"""The line counter of ``tests/code_lines.py`` on a fixture source."""

import pytest

from code_lines import count, count_tree, main

FIXTURE = '''"""Module docstring
over two lines."""

# A comment line.
import math  # a trailing comment keeps the line

TEXT = """a string that is not a docstring
# is code on every line"""


class Box:
    """Class docstring."""

    #: An attribute comment.
    size = 1

    def area(self):
        \'\'\'Function
        docstring.\'\'\'
        return (
            self.size
            * math.pi
        )
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # Code: the import, the two lines of TEXT, the class and def lines,
    # size = 1, and the four lines of the return.
    assert count(FIXTURE) == (23, 10)


def test_a_tree_sums_its_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert count_tree(tmp_path) == (25, 11)


def test_a_file_is_counted_as_itself(tmp_path):
    path = tmp_path / "a.py"
    path.write_text(FIXTURE)
    assert count_tree(path) == (23, 10)


def test_a_missing_path_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nosuchdir"
    with pytest.raises(FileNotFoundError):
        count_tree(missing)
    assert main([str(missing)]) == 1
    assert "nosuchdir" in capsys.readouterr().err

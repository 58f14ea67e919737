"""README's "Library sketch" runs as written.

The sketch shows the public solver API, so a sketch that names a parameter
or a function the package no longer has fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _sketch() -> str:
    """The first python block after the "## Library sketch" heading."""
    text = README.read_text().split("\n## Library sketch\n", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)


def test_the_library_sketch_runs_as_written():
    namespace = {}
    exec(compile(_sketch(), f"{README}:Library sketch", "exec"), namespace)
    assert namespace["report"].ms_stable

"""The suite's pytest configuration reports a failing property test whole.

``pyproject.toml`` turns every DeprecationWarning into an error. When a
Hypothesis test fails, Hypothesis's pytest plugin imports libcst to write
its patch file, and that import warns about ``mypy_extensions.TypedDict``.
Unfiltered, the error ends the run in an INTERNALERROR (exit 3) that loses
the falsifying example.
"""

import tomllib
from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_test_prints_its_falsifying_example(pytester):
    options = tomllib.loads(PYPROJECT.read_text())["tool"]["pytest"]["ini_options"]
    filters = "".join(f"\n    {line}" for line in options["filterwarnings"])
    pytester.makeini(f"[pytest]\nfilterwarnings ={filters}\n")
    pytester.makepyfile(
        test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 10
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert result.ret == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output

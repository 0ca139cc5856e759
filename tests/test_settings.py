"""The pytest settings of pyproject.toml: a warning fails the test that
raised it, and a failing property test still lets the session go on."""

import pathlib
import tomllib

pytest_plugins = ["pytester"]

_PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_given_test_does_not_end_the_session(pytester):
    # hypothesis's report hook warns (mypy_extensions.TypedDict is deprecated)
    # when an @given test fails; turned into an error, that warning was an
    # INTERNALERROR, and no later test ran
    settings = tomllib.loads(_PYPROJECT.read_text(encoding="utf-8"))
    filters = settings["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makepyprojecttoml(
        "[tool.pytest.ini_options]\nfilterwarnings = [%s]\n"
        % ", ".join(f"'{f}'" for f in filters))
    pytester.makepyfile(
        test_a="from hypothesis import Phase, given, settings, strategies as st\n\n"
               "@settings(database=None, phases=[Phase.generate])\n"
               "@given(st.integers())\n"
               "def test_fails(i):\n"
               "    assert False\n",
        test_b="def test_passes():\n"
               "    pass\n")
    result = pytester.runpytest_subprocess()
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()

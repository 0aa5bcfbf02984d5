"""The suite's own settings: a hypothesis test that fails reports its example.

The repo's `filterwarnings` turns every warning into an error, also one
raised inside a plugin's report hook, where it ends the session with
INTERNALERROR before the falsifying example prints.  This runs a failing
`@given` test and a passing one under those filters, in a fresh pytest.
"""

FAILING_AND_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 3))
def test_fails(n):
    assert n < 2


def test_passes():
    pass
"""


def test_a_failing_given_test_reports_its_example_and_the_next_test_runs(pytester, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")  # as read from pyproject.toml
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(FAILING_AND_PASSING)
    # A fresh interpreter: the warning fires only when libcst, which the
    # hook imports, is imported for the first time.
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])

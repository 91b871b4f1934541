import pytest
from regenerate_golden import CASES, GOLDEN, report


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    # a drift here is either a bug or an intended change; for the latter,
    # regenerate with tests/regenerate_golden.py and list the changed keys
    assert report(name) == (GOLDEN / name).read_text(encoding="utf-8")

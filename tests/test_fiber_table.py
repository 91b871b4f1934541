import json

from regenerate_golden import FIBER_TABLE, GOLDEN, fiber_table


def test_fiber_table_matches_golden():
    # the benchmark points are read from the table; the fixtures and the
    # certified points are drawn again, so all three kinds are checked
    golden = (GOLDEN / FIBER_TABLE).read_text(encoding="utf-8")
    sweep = [(row["source"], row["t"]) for row in json.loads(golden)["points"]
             if row["source"].startswith("sweep ")]
    assert fiber_table(sweep) == golden

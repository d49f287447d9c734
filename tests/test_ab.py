"""tools/ab.py: the benchmark as A/B pairs of two trees, and its verdicts.

Fabricated result lines stand in for benchmark runs, so no benchmark process
starts. The tool must alternate which side of a pair runs first, compute
medians, the parent's IQR and the change's wins, mark a metric worse past
its bound and unresolved when the parent's spread exceeds the bound, and
exit 1 on a worse metric or a failed run.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("ab", _TOOLS / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = {m["name"]: m for m in ab.BENCHMARK["end_to_end"]}


def _line(values, failed=0):
    """A benchmark's stdout: a summary line, then the JSON result as the last line."""
    result = {
        "correct": failed == 0,
        "attempted": 40,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": METRICS[name]["unit"]} for name, v in values.items()},
    }
    return f"eavesdrop seed 11: 40 ops attempted, {failed} failed\nwall_s 1 s\n{json.dumps(result)}\n"


def test_sides_alternate_which_runs_first():
    assert [ab.order(k) for k in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")
    ]
    assert list(ab.SEEDS) == list(range(11, 21))


def test_statistics_of_one_metric():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [0.5, 2.5, 2.0, 4.5, 4.0, 6.5, 6.0, 8.5, 8.0, 10.5]
    row = ab.compare(parent, change, "lower", 0.25)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert row["parent_median"] == 5.5 and row["change_median"] == 5.25
    assert row["ratio"] == 5.25 / 5.5
    assert row["parent_iqr"] == q3 - q1 == 4.5
    assert row["wins"] == 5  # pairs 0, 2, 4, 6 and 8
    assert ab.compare(parent, change, "higher", 0.25)["wins"] == 5


def test_verdicts_follow_the_bound_and_the_parent_spread():
    tight = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert ab.compare(tight, [x * 1.2 for x in tight], "lower", 0.25)["verdict"] == "ok"
    assert ab.compare(tight, [x * 1.3 for x in tight], "lower", 0.25)["verdict"] == "worse"
    assert ab.compare(tight, [x * 0.7 for x in tight], "higher", 0.25)["verdict"] == "worse"
    assert ab.compare(tight, [x * 0.8 for x in tight], "higher", 0.25)["verdict"] == "ok"
    wide = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 10.0, 10.0]
    assert ab.compare(wide, wide, "lower", 0.25)["verdict"] == "unresolved"
    # Every change run beating every parent run resolves even a wide spread.
    assert ab.compare(wide, [x / 4 for x in tight], "lower", 0.25)["verdict"] == "ok"
    # A worse median stays worse, whatever the spread.
    assert ab.compare(wide, [2 * x for x in wide], "lower", 0.25)["verdict"] == "worse"


class _Fake:
    """A benchmark runner that records its calls and answers from tables."""

    def __init__(self, factor=1.0, failed=0, code=0):
        self.calls = []
        self.factor, self.failed, self.code = factor, failed, code

    def __call__(self, tree, workload, seed):
        self.calls.append((tree, workload, seed))
        scale = self.factor if tree == "CHANGE" else 1.0
        values = {name: (1.0 + seed / 1000) * scale for name in METRICS}
        failed = self.failed if tree == "CHANGE" and seed == 13 else 0
        return (self.code if tree == "CHANGE" else 0), _line(values, failed)


def test_main_runs_ten_alternating_pairs_per_workload_and_prints_a_row_per_metric(capsys):
    fake = _Fake()
    assert ab.main(["PARENT", "CHANGE", "eavesdrop", "verify"], run=fake) == 0
    for w, workload in enumerate(("eavesdrop", "verify")):
        calls = fake.calls[20 * w:20 * (w + 1)]
        assert [seed for _, _, seed in calls] == [s for s in range(11, 21) for _ in range(2)]
        assert [tree for tree, _, _ in calls[:4]] == ["PARENT", "CHANGE", "CHANGE", "PARENT"]
        assert {wl for _, wl, _ in calls} == {workload}
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["workload", "metric", "parent_median", "change_median", "ratio", "parent_iqr", "wins", "verdict"]
    assert len(rows) == 1 + 2 * len(METRICS)
    assert rows[1].split()[:2] == ["eavesdrop", ab.BENCHMARK["end_to_end"][0]["name"]]
    assert all(row.split()[-2:] == ["0/10", "ok"] for row in rows[1:])


def test_main_defaults_to_every_benchmark_workload():
    fake = _Fake()
    assert ab.main(["PARENT", "CHANGE"], run=fake) == 0
    assert [wl for _, wl, _ in fake.calls[::20]] == [w["name"] for w in ab.BENCHMARK["workloads"]]


@pytest.mark.parametrize("fake", [_Fake(factor=1.5), _Fake(failed=1), _Fake(code=1)], ids=["worse", "failed", "exit"])
def test_main_exits_1_on_a_worse_metric_or_a_failed_run(fake, capsys):
    assert ab.main(["PARENT", "CHANGE", "eavesdrop"], run=fake) == 1
    assert len(fake.calls) == 20  # every pair still runs


def test_a_run_without_a_result_line_is_a_failed_run():
    assert ab.parse_result("") is None
    assert ab.parse_result("Traceback (most recent call last):\n  boom\n") is None
    assert ab.parse_result(_line({"wall_s": 1.0}))["failed"] == 0
    assert ab.main(["PARENT", "CHANGE", "verify"], run=lambda tree, workload, seed: (0, "")) == 1


def test_main_wants_two_trees(capsys):
    assert ab.main(["PARENT"]) == 2
    assert "usage" in capsys.readouterr().err

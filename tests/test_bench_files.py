"""Every committed BENCH_*.json is a well-formed A/B record.

A BENCH file holds alternating parent/change runs of bench/run.py, each
run's last-line JSON object kept whole, and a summary per workload and
end-to-end metric.  The summary must follow from the runs: each median, IQR
and win count is computed again here from the pairs.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
BETTER = {m["name"]: m["better"] for m in END_TO_END}


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(pairs: list[dict], metric: str) -> int:
    """Pairs whose change run is strictly better; ties count for neither."""
    sign = 1 if BETTER[metric] == "higher" else -1
    value = lambda run: run["metrics"][metric]["value"]
    return sum(1 for p in pairs if sign * (value(p["change"]) - value(p["parent"])) > 0)


def test_there_is_a_bench_file():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_follows_from_its_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("parent", "change", "python", "seconds", "command", "workloads"):
        assert record[key], key
    for name, workload in record["workloads"].items():
        pairs = workload["pairs"]
        assert pairs and [p["seed"] for p in pairs] == workload["seeds"], name
        # the side that runs first alternates from pair to pair
        assert [p["first"] for p in pairs] == ["parent", "change"] * (len(pairs) // 2) + (
            ["parent"] if len(pairs) % 2 else []
        ), name
        for p in pairs:
            for side in ("parent", "change"):
                run = p[side]
                assert {"correct", "attempted", "failed", "metrics"} <= set(run), (name, side)
        assert set(workload["summary"]) == set(BETTER), name
        for metric, row in workload["summary"].items():
            for side in ("parent", "change"):
                values = [p[side]["metrics"][metric]["value"] for p in pairs]
                where = (name, metric, side)
                assert row[f"{side}_median"] == pytest.approx(statistics.median(values)), where
                assert row[f"{side}_iqr"] == pytest.approx(iqr(values)), where
            assert (row["wins"], row["pairs"]) == (wins(pairs, metric), len(pairs)), (name, metric)

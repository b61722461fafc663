"""The committed benchmark records agree with the benchmark and with their own runs.

Each ``BENCH_*.json`` at the repository root reports, per workload and
end-to-end metric, the parent's and the change's runs, one per pair, and
the statistics derived from them.  Figures are rounded to four decimals,
so a derived figure may differ from its recomputation by that rounding.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BETTER = {metric["name"]: metric["better"] for metric in SPEC["end_to_end"]}
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RULE = ("a gain is claimed only where the change is better in at least 9 of 10 pairs "
        "and the medians differ by more than the parent's interquartile range")
ROUNDING = 1e-4


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def entries(record):
    """``(workload, metric, entry)`` for every end-to-end figure of a record."""
    for workload, body in record["workloads"].items():
        for metric, entry in body["end_to_end"].items():
            yield workload, metric, entry


def wins(metric, entry):
    """Pairs in which the change reads better; a tie counts for neither side."""
    sign = 1 if BETTER[metric] == "lower" else -1
    return sum(sign * (change - parent) < 0
               for parent, change in zip(entry["parent"]["runs"], entry["change"]["runs"]))


def test_there_are_records():
    assert len(RECORDS) >= 3


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    record = load(path)
    assert set(record["workloads"]) <= WORKLOADS
    for workload, metric, entry in entries(record):
        assert metric in BETTER, (workload, metric)
        body = record["workloads"][workload]
        assert len(entry["parent"]["runs"]) == len(entry["change"]["runs"]) \
            == body["pairs_run"] == len(body["seeds"]), (workload, metric)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_statistics_recompute_from_the_runs(path):
    for workload, metric, entry in entries(load(path)):
        for side in ("parent", "change"):
            runs, stats = entry[side]["runs"], entry[side]
            q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            for name, value in (("min", min(runs)), ("median", median), ("q1", q1), ("q3", q3)):
                assert math.isclose(stats[name], value, rel_tol=0, abs_tol=ROUNDING), \
                    (workload, metric, side, name)
        parent = entry["parent"]
        assert math.isclose(entry["parent_iqr"], parent["q3"] - parent["q1"],
                            rel_tol=0, abs_tol=ROUNDING), (workload, metric)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_pair_counts_match_the_runs(path):
    for workload, metric, entry in entries(load(path)):
        assert entry["change_better_in_pairs"] == wins(metric, entry), (workload, metric)


@pytest.mark.parametrize("path", [p for p in RECORDS if "claim" in load(p)],
                         ids=lambda p: p.name)
def test_claim_meets_the_rule(path):
    record = load(path)
    assert record["rule"] == RULE
    workload, metric = record["claim"].split()
    entry = record["workloads"][workload]["end_to_end"][metric]
    pairs = len(entry["parent"]["runs"])
    assert pairs >= 10 and wins(metric, entry) >= math.ceil(0.9 * pairs)
    parent, change = entry["parent"]["runs"], entry["change"]["runs"]
    gain = statistics.median(parent) - statistics.median(change)
    if BETTER[metric] == "higher":
        gain = -gain
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert gain > q3 - q1

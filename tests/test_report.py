"""Outcome records, aggregation and report rendering tests."""

import numpy as np
import pytest

from gradus.report import (
    OutcomeRecord,
    ReportError,
    aggregate,
    classify_outcome,
    render_report,
)


class TestClassifyOutcome:
    def test_all_combinations(self):
        for orig in range(1, 10):
            for pred in range(1, 10):
                got = classify_outcome(orig, pred)
                if pred < orig:
                    assert got == "easier"
                elif pred > orig:
                    assert got == "harder"
                else:
                    assert got == "similar"

    def test_bounds(self):
        with pytest.raises(ReportError):
            classify_outcome(0, 5)
        with pytest.raises(ReportError):
            classify_outcome(5, 10)


def rec(orig, pred, strategy="filtered", gap=1, distance=0.1,
        piece="p0", variation="p0.v000", genre="etude"):
    return OutcomeRecord(
        piece=piece, variation=variation, original_level=orig,
        predicted_level=pred, distance=distance, genre=genre,
        strategy=strategy, gap=gap)


def tenths(row):
    """Percentage sum in integer tenths, dodging binary float noise."""
    return (round(row.easier_pct * 10) + round(row.similar_pct * 10)
            + round(row.harder_pct * 10))


class TestOutcomeRecord:
    def test_outcome_derived_from_levels(self):
        assert rec(5, 3).outcome == "easier"
        assert rec(5, 5).outcome == "similar"
        assert rec(5, 8).outcome == "harder"
        with pytest.raises(TypeError, match="outcome"):
            OutcomeRecord(piece="p", variation="v", original_level=5, predicted_level=3,
                          outcome="harder", distance=0.1)

    def test_level_bounds_checked(self):
        with pytest.raises(ReportError):
            rec(0, 3)
        with pytest.raises(ReportError):
            rec(5, 11)


class TestAggregate:
    def hand_rows(self):
        # filtered/gap1: 3 easier, 1 similar, 0 harder; distances .1 .2 .3 .4
        records = [rec(5, 3, "filtered", 1, 0.1),
                   rec(6, 2, "filtered", 1, 0.2),
                   rec(4, 1, "filtered", 1, 0.3),
                   rec(7, 7, "filtered", 1, 0.4),
                   # random/gap2: 1 each
                   rec(5, 3, "random", 2, 0.5),
                   rec(5, 5, "random", 2, 0.6),
                   rec(5, 9, "random", 2, 0.7)]
        return records

    def test_counts_and_percentages(self):
        rows = aggregate(self.hand_rows())
        assert len(rows) == 2
        by_group = {(r.strategy, r.gap): r for r in rows}
        f = by_group[("filtered", 1)]
        assert f.count == 4
        assert f.easier_pct == 75.0
        assert f.similar_pct == 25.0
        assert f.harder_pct == 0.0
        assert f.mean_distance == pytest.approx(0.25)
        r = by_group[("random", 2)]
        assert r.count == 3
        # 33.333... rounds by largest remainder to sum 100.0 in tenths
        assert tenths(r) == 1000

    def test_percentages_always_sum_to_hundred(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n = int(rng.integers(1, 30))
            records = [rec(int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                           "random", 1, float(rng.uniform()),
                           variation=f"p0.v{i:03d}")
                       for i in range(n)]
            for row in aggregate(records):
                assert tenths(row) == 1000, trial
                # tenth-of-a-percent resolution
                for pct in (row.easier_pct, row.similar_pct, row.harder_pct):
                    assert round(pct * 10) == pytest.approx(pct * 10)

    def test_largest_remainder_thirds(self):
        records = [rec(5, 3, "r", 1), rec(5, 5, "r", 1), rec(5, 8, "r", 1)]
        row = aggregate(records)[0]
        parts = sorted([row.easier_pct, row.similar_pct, row.harder_pct])
        assert parts == [33.3, 33.3, 33.4]

    def test_group_order_deterministic(self):
        records = [rec(5, 3, "random", 2), rec(5, 3, "filtered", 1),
                   rec(5, 3, "random", 10), rec(5, 3, "random", 1), rec(5, 3, "filtered", 2)]
        rows = aggregate(records)
        # sorted on the text of each field, so gap 10 comes before gap 2
        assert [(r.strategy, r.gap) for r in rows] == [
            ("filtered", 1), ("filtered", 2), ("random", 1), ("random", 10), ("random", 2)]

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            aggregate([])


class TestRender:
    def sample_rows(self):
        return aggregate([rec(5, 3, "filtered", 1, 0.123456),
                          rec(5, 5, "filtered", 1, 0.2),
                          rec(6, 2, "random", 1, 0.35),
                          rec(6, 8, "random", 1, 0.05)])

    def test_csv_shape(self):
        text = render_report(self.sample_rows(), format="csv")
        lines = text.strip().split("\n")
        assert lines[0] == "strategy,gap,↓,∼,↑,distance"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "filtered"
        assert first[1] == "1"
        assert first[2] == "50.0"
        assert first[3] == "50.0"
        assert first[4] == "0.0"
        assert first[5] == f"{(0.123456 + 0.2) / 2:.3f}"

    def test_markdown_shape(self):
        text = render_report(self.sample_rows(), format="markdown")
        lines = text.strip().split("\n")
        assert lines[0].startswith("|")
        assert set(lines[1].replace("|", "").strip()) <= {"-", " ", ":"}
        assert len(lines) == 4
        assert "filtered" in lines[2]
        assert "random" in lines[3]

    def test_no_rows_give_the_fixed_header(self):
        assert render_report([], format="csv") == "strategy,gap,↓,∼,↑,distance\n"
        lines = render_report([], format="markdown").split("\n")
        assert lines[0] == "| strategy | gap | ↓ | ∼ | ↑ | distance |"
        assert len(lines) == 3 and lines[2] == ""

    def test_unknown_format_rejected(self):
        with pytest.raises(ReportError):
            render_report(self.sample_rows(), format="html")

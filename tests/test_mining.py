"""Pair mining tests, including an exhaustive enumeration oracle."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradus import mining
from gradus.gnb import CONFIDENCE_DROP_FRACTION, confidence_filter
from gradus.mining import (
    MiningError,
    MiningReport,
    Pair,
    SIMILARITY_KEEP_FRACTION,
    Variation,
    enumerate_pairs,
    load_pairs,
    load_report,
    mine,
    save_pairs,
    save_report,
)


def oracle_pairs(levels, min_gap):
    """Every ordered index pair whose level gap clears the threshold."""
    out = []
    for i, hi in enumerate(levels):
        for j, lo in enumerate(levels):
            if i != j and hi - lo >= min_gap:
                out.append((i, j))
    return sorted(out)


class TestEnumeratePairs:
    def test_exhaustive_small_multisets(self):
        # every multiset of levels 1..4 up to size 8, several gaps
        for size in range(2, 9):
            for levels in itertools.combinations_with_replacement(
                    range(1, 5), size):
                for gap in (1, 2, 3):
                    got = sorted(enumerate_pairs(list(levels), min_gap=gap))
                    assert got == oracle_pairs(levels, gap), (levels, gap)

    def test_empty_and_singleton(self):
        assert enumerate_pairs([], min_gap=1) == []
        assert enumerate_pairs([5], min_gap=1) == []

    def test_no_self_pairs(self):
        pairs = enumerate_pairs([1, 5, 9], min_gap=1)
        assert all(i != j for i, j in pairs)
        assert len(pairs) == 3

    def test_gap_below_one_rejected(self):
        with pytest.raises(MiningError):
            enumerate_pairs([1, 2], min_gap=0)

    def test_count_formula(self):
        # uniform levels 1..9, gap g: count = sum over pairs with diff >= g
        levels = list(range(1, 10))
        for gap in range(1, 9):
            expected = sum(1 for a in levels for b in levels if a - b >= gap)
            assert len(enumerate_pairs(levels, min_gap=gap)) == expected


def make_variations(rng, n_pieces=4, per_piece=12):
    out = []
    for p in range(n_pieces):
        for k in range(per_piece):
            emb = rng.normal(size=8)
            emb /= np.linalg.norm(emb)
            out.append(Variation(
                id=f"piece{p:03d}.v{k:03d}",
                piece=f"piece{p:03d}",
                level=int(rng.integers(1, 10)),
                confidence=float(rng.uniform(0.2, 1.0)),
                embedding=emb))
    return out


class TestMine:
    def test_random_strategy_is_all_in_piece_pairs(self):
        rng = np.random.default_rng(0)
        variations = make_variations(rng)
        pairs, report = mine(variations, strategy="random", min_gap=1)
        # oracle: group by piece, enumerate within each
        want = 0
        by_piece = {}
        for v in variations:
            by_piece.setdefault(v.piece, []).append(v)
        for vs in by_piece.values():
            want += len(oracle_pairs([v.level for v in vs], 1))
        assert len(pairs) == want
        assert report.counts["raw"] == want

    def test_pairs_never_cross_pieces(self):
        rng = np.random.default_rng(1)
        variations = make_variations(rng)
        for strategy in ("random", "filtered"):
            pairs, _ = mine(variations, strategy=strategy, min_gap=2)
            for pr in pairs:
                assert pr.hard.startswith(pr.piece)
                assert pr.easy.startswith(pr.piece)

    def test_gap_attribute_correct(self):
        rng = np.random.default_rng(2)
        variations = make_variations(rng)
        lookup = {v.id: v for v in variations}
        pairs, _ = mine(variations, strategy="random", min_gap=3)
        for pr in pairs:
            assert pr.gap == pr.hard_level - pr.easy_level
            assert pr.gap >= 3
            assert lookup[pr.hard].level == pr.hard_level
            assert lookup[pr.easy].level == pr.easy_level

    def test_filtered_subset_of_random(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            variations = make_variations(rng, n_pieces=5, per_piece=10)
            rand, _ = mine(variations, strategy="random", min_gap=1)
            filt, _ = mine(variations, strategy="filtered", min_gap=1)
            rand_keys = {(p.hard, p.easy) for p in rand}
            filt_keys = {(p.hard, p.easy) for p in filt}
            assert filt_keys <= rand_keys
            assert len(filt) < len(rand) or len(rand) == 0

    def test_filtered_counts_consistent(self):
        rng = np.random.default_rng(3)
        variations = make_variations(rng)
        pairs, report = mine(variations, strategy="filtered", min_gap=1)
        c = report.counts
        assert c["after_similarity"] == len(pairs)
        assert c["after_similarity"] <= c["after_confidence"] <= c["raw"]

    def test_confidence_cut_drops_exact_fraction(self):
        rng = np.random.default_rng(4)
        variations = make_variations(rng, n_pieces=5, per_piece=20)  # 100
        pairs, _ = mine(variations, strategy="filtered", min_gap=1)
        n_drop = int(CONFIDENCE_DROP_FRACTION * len(variations))
        assert n_drop == 25
        dropped = {v.id for v in sorted(
            variations, key=lambda v: v.confidence)[:n_drop]}
        # kept pairs never touch the 25 least-confident variations
        for pr in pairs:
            assert pr.hard not in dropped
            assert pr.easy not in dropped

    def test_similarity_cut_keeps_most_similar_half(self):
        rng = np.random.default_rng(5)
        variations = make_variations(rng, n_pieces=1, per_piece=8)
        # uniform confidence: the 25% cut drops the last two by index
        variations = [Variation(id=v.id, piece=v.piece, level=v.level,
                                confidence=1.0, embedding=v.embedding)
                      for v in variations]
        pairs, _ = mine(variations, strategy="filtered", min_gap=1)
        survivors = variations[:6]
        all_pairs = enumerate_pairs([v.level for v in survivors], 1)
        if not all_pairs:
            pytest.skip("degenerate level draw")
        sims = sorted(
            (float(np.dot(survivors[i].embedding, survivors[j].embedding))
             for i, j in all_pairs), reverse=True)
        keep = math.ceil(len(all_pairs) * SIMILARITY_KEEP_FRACTION)
        assert len(pairs) == keep
        got_sims = sorted((p.sim for p in pairs), reverse=True)
        np.testing.assert_allclose(got_sims, sims[:keep], atol=1e-12)

    def test_filtered_distance_not_worse(self):
        hits = 0
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            variations = make_variations(rng, n_pieces=6, per_piece=12)
            _, rrep = mine(variations, strategy="random", min_gap=1)
            _, frep = mine(variations, strategy="filtered", min_gap=1)
            if not math.isnan(frep.mean_distance):
                assert frep.mean_distance <= rrep.mean_distance + 1e-12
                hits += 1
        assert hits > 0

    def test_unknown_strategy_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(MiningError):
            mine(make_variations(rng), strategy="exotic", min_gap=1)

    def test_duplicate_ids_rejected(self):
        rng = np.random.default_rng(7)
        variations = make_variations(rng, n_pieces=1, per_piece=3)
        variations.append(variations[0])
        with pytest.raises(MiningError):
            mine(variations, strategy="random", min_gap=1)

    def test_empty_input(self):
        pairs, report = mine([], strategy="random", min_gap=1)
        assert pairs == []
        assert math.isnan(report.mean_distance)

    def test_report_distance_matches_pairs(self):
        rng = np.random.default_rng(8)
        variations = make_variations(rng)
        pairs, report = mine(variations, strategy="random", min_gap=2)
        want = float(np.mean([1.0 - p.sim for p in pairs]))
        assert report.mean_distance == pytest.approx(want, abs=1e-12)
        for gap, dist in report.mean_distance_by_gap.items():
            sub = [1.0 - p.sim for p in pairs if p.gap == gap]
            assert dist == pytest.approx(float(np.mean(sub)), abs=1e-12)


def two_pass_mine(variations, strategy, min_gap):
    """The reference: score every raw pair, cut by confidence, enumerate and
    score the survivors' pairs again, then keep each piece's most similar half."""
    def in_piece_pairs(pool):
        by_piece = {}
        for v in pool:
            by_piece.setdefault(v.piece, []).append(v)
        pairs = []
        for piece in sorted(by_piece):
            group = by_piece[piece]
            for i, j in enumerate_pairs([v.level for v in group], min_gap):
                hard, easy = group[i], group[j]
                pairs.append(Pair(
                    piece=piece, hard=hard.id, easy=easy.id,
                    hard_level=hard.level, easy_level=easy.level,
                    gap=hard.level - easy.level,
                    sim=mining.cosine_similarity(hard.embedding, easy.embedding)))
        return pairs

    def similarity_cut(pairs):
        by_piece = {}
        for idx, p in enumerate(pairs):
            by_piece.setdefault(p.piece, []).append((idx, p))
        keep = []
        for group in by_piece.values():
            n_keep = math.ceil(SIMILARITY_KEEP_FRACTION * len(group))
            keep.extend(sorted(group, key=lambda t: (-t[1].sim, t[0]))[:n_keep])
        return [p for _, p in sorted(keep, key=lambda t: t[0])]

    pool = list(variations)
    raw = in_piece_pairs(pool)
    counts = {"raw": len(raw)}
    if strategy == "random":
        kept = raw
        counts["after_confidence"] = counts["after_similarity"] = len(kept)
    else:
        confident = in_piece_pairs([pool[i] for i in confidence_filter(
            [v.confidence for v in pool])])
        counts["after_confidence"] = len(confident)
        kept = similarity_cut(confident)
        counts["after_similarity"] = len(kept)
    return kept, counts


class TestOnePass:
    @pytest.mark.parametrize("strategy", ["random", "filtered"])
    @pytest.mark.parametrize("min_gap", [1, 3])
    def test_scores_each_confident_pair_once(self, monkeypatch, strategy, min_gap):
        calls = []
        cosine = mining.cosine_similarity

        def counting(a, b):
            calls.append(1)
            return cosine(a, b)

        monkeypatch.setattr(mining, "cosine_similarity", counting)
        variations = make_variations(np.random.default_rng(12), n_pieces=5, per_piece=10)
        _, report = mine(variations, strategy=strategy, min_gap=min_gap)
        assert report.counts["after_confidence"] > 0
        assert len(calls) == report.counts["after_confidence"]

    # pools of up to 24 variations over 1-4 pieces, drawn from few levels,
    # confidences and embeddings so levels, confidences and similarities tie;
    # 300 examples take about 1.7 s of a tier-1 run on a 2-vCPU machine
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), strategy=st.sampled_from(["random", "filtered"]),
           min_gap=st.integers(1, 3))
    def test_matches_the_two_pass_reference(self, data, strategy, min_gap):
        vectors = [np.array(v, dtype=np.float64) for v in
                   ([1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.5, 2.0],
                    [1.0, 1.0, 1.0])]
        rows = data.draw(st.lists(st.tuples(
            st.sampled_from(["a", "b", "c", "d"]), st.integers(1, 5),
            st.sampled_from([0.1, 0.5, 0.5, 0.9, 1.0]),
            st.integers(0, len(vectors) - 1)), max_size=24))
        variations = [Variation(id=f"{piece}.v{k:03d}", piece=piece, level=level,
                                confidence=confidence, embedding=vectors[e])
                      for k, (piece, level, confidence, e) in enumerate(rows)]
        pairs, report = mine(variations, strategy=strategy, min_gap=min_gap)
        want_pairs, want_counts = two_pass_mine(variations, strategy, min_gap)
        assert pairs == want_pairs
        assert report.counts == want_counts


class TestPersistence:
    def test_pairs_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        variations = make_variations(rng)
        pairs, report = mine(variations, strategy="filtered", min_gap=1)
        ppath = tmp_path / "pairs.jsonl"
        save_pairs(str(ppath), pairs)
        loaded = load_pairs(str(ppath))
        assert sorted(loaded, key=lambda p: (p.piece, p.hard, p.easy)) == \
            sorted(pairs, key=lambda p: (p.piece, p.hard, p.easy))

    def test_pairs_file_sorted(self, tmp_path):
        rng = np.random.default_rng(10)
        variations = make_variations(rng)
        pairs, _ = mine(variations, strategy="random", min_gap=1)
        ppath = tmp_path / "pairs.jsonl"
        save_pairs(str(ppath), pairs)
        loaded = load_pairs(str(ppath))
        keys = [(p.piece, p.hard, p.easy) for p in loaded]
        assert keys == sorted(keys)

    def test_report_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        variations = make_variations(rng)
        _, report = mine(variations, strategy="filtered", min_gap=2)
        rpath = tmp_path / "report.json"
        save_report(str(rpath), report)
        loaded = load_report(str(rpath))
        assert loaded.strategy == report.strategy
        assert loaded.min_gap == report.min_gap
        assert loaded.counts == report.counts
        if math.isnan(report.mean_distance):
            assert math.isnan(loaded.mean_distance)
        else:
            assert loaded.mean_distance == pytest.approx(report.mean_distance)

    def test_nan_distance_round_trips(self, tmp_path):
        _, report = mine([], strategy="random", min_gap=1)
        rpath = tmp_path / "empty.json"
        save_report(str(rpath), report)
        assert math.isnan(load_report(str(rpath)).mean_distance)


GOOD_PAIR = {"piece": "p", "hard": "p.v001", "easy": "p.v000", "hard_level": 5,
             "easy_level": 2, "gap": 3, "sim": 0.5}
GOOD_REPORT = {"strategy": "random", "min_gap": 1, "counts": {"raw": 0},
               "mean_distance": None, "mean_distance_by_gap": {}}


def without(record, key):
    return {k: v for k, v in record.items() if k != key}


MALFORMED_PAIR_LINES = {
    "list": "[1, 2]",
    "string": '"x"',
    "null sim": json.dumps({**GOOD_PAIR, "sim": None}),
    "text level": json.dumps({**GOOD_PAIR, "hard_level": "x"}),
    "no gap": json.dumps(without(GOOD_PAIR, "gap")),
    "truncated": "{",
    "bool level": json.dumps({**GOOD_PAIR, "hard_level": True}),
    "fractional level": json.dumps({**GOOD_PAIR, "easy_level": 0.7}),
    "text gap": json.dumps({**GOOD_PAIR, "gap": "2"}),
    "text sim": json.dumps({**GOOD_PAIR, "sim": "0.5"}),
}
MALFORMED_REPORTS = {
    "list": "[1]",
    "no min_gap": json.dumps(without(GOOD_REPORT, "min_gap")),
    "text min_gap": json.dumps({**GOOD_REPORT, "min_gap": "x"}),
    "scalar counts": json.dumps({**GOOD_REPORT, "counts": 3}),
    "list by_gap": json.dumps({**GOOD_REPORT, "mean_distance_by_gap": []}),
    "truncated": "{",
}


@pytest.mark.parametrize("line", MALFORMED_PAIR_LINES.values(), ids=MALFORMED_PAIR_LINES.keys())
def test_malformed_pair_line_raises_mining_error(tmp_path, line):
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(GOOD_PAIR) + "\n" + line + "\n")
    with pytest.raises(MiningError, match=r"pairs\.jsonl:2:"):
        load_pairs(str(path))


@pytest.mark.parametrize("sim", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "minus-inf"])
def test_non_finite_sim_raises_mining_error(tmp_path, sim):
    path = tmp_path / "pairs.jsonl"
    path.write_text(json.dumps(GOOD_PAIR) + "\n" + json.dumps({**GOOD_PAIR, "sim": sim}) + "\n")
    with pytest.raises(MiningError, match=r"pairs\.jsonl:2: field 'sim' must be a finite number"):
        load_pairs(str(path))


@pytest.mark.parametrize("text", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS.keys())
def test_malformed_report_raises_mining_error(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(MiningError, match=r"report\.json"):
        load_report(str(path))


COERCIBLE_REPORTS = {
    "bool min_gap": ({"min_gap": True}, "min_gap", "an integer"),
    "text mean_distance": ({"mean_distance": "0.5"}, "mean_distance",
                           "a finite number or null"),
    "text count": ({"counts": {"raw": "3"}}, "counts", "an object of integers"),
    "bool count": ({"counts": {"raw": False}}, "counts", "an object of integers"),
    "infinite mean_distance": ({"mean_distance": float("inf")}, "mean_distance",
                               "a finite number or null"),
    "text gap key": ({"mean_distance_by_gap": {"x": 0.5}}, "mean_distance_by_gap",
                     "an object of finite numbers keyed by gap"),
    "list strategy": ({"strategy": ["random"]}, "strategy", "a string"),
}


@pytest.mark.parametrize("change, field, kind", COERCIBLE_REPORTS.values(),
                         ids=COERCIBLE_REPORTS.keys())
def test_report_fields_are_checked_not_coerced(tmp_path, change, field, kind):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({**GOOD_REPORT, **change}))
    with pytest.raises(MiningError) as exc:
        load_report(str(path))
    assert str(exc.value) == f"{path}: field {field!r} must be {kind}"


def test_report_missing_a_field_names_it(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(without(GOOD_REPORT, "counts")))
    with pytest.raises(MiningError, match=r"report\.json: missing field 'counts'$"):
        load_report(str(path))


def test_report_round_trips_exactly(tmp_path):
    path = tmp_path / "report.json"
    rep = MiningReport(strategy="filtered", min_gap=2, counts={"raw": 7, "after_similarity": 3},
                       mean_distance=0.375, mean_distance_by_gap={2: 0.25, 5: 1})
    save_report(str(path), rep)
    assert load_report(str(path)) == rep


def test_good_report_record_loads(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(GOOD_REPORT))
    assert load_report(str(path)).counts == {"raw": 0}


class TestVariationValidation:
    def test_level_bounds(self):
        emb = np.ones(4) / 2.0
        with pytest.raises(MiningError):
            Variation(id="a", piece="p", level=0, confidence=0.5,
                      embedding=emb)
        with pytest.raises(MiningError):
            Variation(id="a", piece="p", level=10, confidence=0.5,
                      embedding=emb)

    def test_confidence_bounds(self):
        emb = np.ones(4) / 2.0
        with pytest.raises(MiningError):
            Variation(id="a", piece="p", level=5, confidence=1.5,
                      embedding=emb)

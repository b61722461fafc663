"""Acceptance gate: the properties this package promises, with budgets.

Each test states its own runtime budget and enforces it, so a regression
that silently blows a budget fails loudly instead of dragging the suite.
"""

import json
import math
import time
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import semantic_signature
from gradus import gnb, mining, seqbuild, style
from gradus.analysis import perturb_profile, pitch_class_profile, skyline
from gradus.cli import main as cli_main
from gradus.fixtures import generate_corpus
from gradus.lmx import Vocabulary, decode, encode
from gradus.model import _HARMONY_ID, AdamW, ModelConfig, TinyLM, rope_rotate
from gradus.score import merged_sounding_intervals, serialize_musicxml


class Budget:
    """Context manager asserting wall-clock time stays under a limit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, \
                f"took {elapsed:.1f}s, budget {self.limit}s"
        return False


def test_01_reference_compression(reference_piece):
    with Budget(1.0):
        tokens = encode(reference_piece)
        assert 19 <= len(tokens) <= 27, len(tokens)
        xml_chars = len(serialize_musicxml(reference_piece))
        token_chars = len(" ".join(tokens))
        assert xml_chars / token_chars >= 5.0


def test_02_codec_round_trip_fifty_pieces(medium_corpus):
    assert len(medium_corpus) == 50
    with Budget(30.0):
        for score in medium_corpus:
            back = decode(encode(score))
            assert semantic_signature(back) == semantic_signature(score), \
                score.source_id


def sweep_top_line(score):
    """Independent top-voice derivation: boundary sweep over merged intervals.

    Returns (start, end, midi-or-None) segments tiling [0, total).
    """
    intervals = merged_sounding_intervals(score)
    starts_at = {}
    ends_at = {}
    bounds = {0, score.total_duration}
    for s, e, pitch in intervals:
        starts_at.setdefault(s, []).append(pitch.midi_number)
        ends_at.setdefault(e, []).append(pitch.midi_number)
        bounds.add(s)
        bounds.add(e)
    ordered = sorted(bounds)
    active = Counter()
    out = []
    for t0, t1 in zip(ordered, ordered[1:]):
        for midi in ends_at.get(t0, ()):
            active[midi] -= 1
            if active[midi] == 0:
                del active[midi]
        for midi in starts_at.get(t0, ()):
            active[midi] += 1
        out.append((t0, t1, max(active) if active else None))
    return out


def test_03_skyline_matches_sweep_oracle():
    pieces = generate_corpus(n=100, seed=314)
    with Budget(10.0):
        for score in pieces:
            notes = skyline(score)
            # tiling: consecutive, gapless, covering the whole piece
            cursor = 0
            for sn in notes:
                assert sn.onset == cursor, score.source_id
                cursor = sn.onset + sn.duration
            assert cursor == score.total_duration
            # segment-by-segment equality with the sweep
            want = sweep_top_line(score)
            idx = 0
            for t0, t1, midi in want:
                while notes[idx].onset + notes[idx].duration <= t0:
                    idx += 1
                sn = notes[idx]
                assert sn.onset <= t0 and t1 <= sn.onset + sn.duration, \
                    (score.source_id, t0)
                got = None if sn.pitch is None else sn.pitch.midi_number
                assert got == midi, (score.source_id, t0, got, midi)


def test_04_profile_and_perturbation_properties():
    pieces = generate_corpus(n=8, seed=400)
    with Budget(5.0):
        profiles = []
        for score in pieces:
            p = pitch_class_profile(score)
            assert abs(p.sum() - 1.0) <= 1e-9
            profiles.append(p)
        # a profile with genuine zero bins for the zero-stays-zero check
        sparse = np.zeros(12)
        sparse[[0, 4, 7, 11]] = [0.4, 0.3, 0.2, 0.1]
        profiles.append(sparse)

        noise_scale = 0.2
        rng = np.random.default_rng(777)
        twin = np.random.default_rng(777)
        draws_per_profile = 10_000 // len(profiles) + 1
        n_draws = 0
        for p in profiles:
            zero_bins = p == 0.0
            for _ in range(draws_per_profile):
                q = perturb_profile(p, rng, noise_scale)
                # reconstruct the pre-normalization vector with a twin
                # generator; the output must equal its renormalization,
                # which pins the reconstruction to the real internal draw
                raw = p + twin.uniform(-noise_scale * p, noise_scale * p)
                np.testing.assert_allclose(q, raw / raw.sum(), atol=1e-12)
                assert np.all(np.abs(raw - p) <= noise_scale * p + 1e-15)
                assert abs(q.sum() - 1.0) <= 1e-9
                assert np.all(q[zero_bins] == 0.0)
                n_draws += 1
        assert n_draws >= 10_000


def mpmath_posterior(model, x, dps=30):
    with mpmath.workdps(dps):
        joints = []
        for c in range(9):
            if not np.isfinite(model.log_prior[c]):
                joints.append(mpmath.mpf(0))
                continue
            lj = mpmath.mpf(float(model.log_prior[c]))
            for d in range(x.shape[0]):
                var = mpmath.mpf(float(model.var[c, d]))
                diff = mpmath.mpf(float(x[d])) - mpmath.mpf(float(model.mean[c, d]))
                lj += -(mpmath.log(2 * mpmath.pi * var)) / 2 - diff ** 2 / (2 * var)
            joints.append(mpmath.e ** lj)
        total = sum(joints)
        return np.array([float(j / total) for j in joints])


def test_05_gnb_matches_bayes_oracle():
    rng = np.random.default_rng(500)
    n_models, n_queries = 25, 40
    for _ in range(n_models):
        n_levels = int(rng.integers(2, 10))
        levels = sorted(rng.choice(np.arange(1, 10), size=n_levels,
                                   replace=False).tolist())
        n = 6 * n_levels
        X = rng.normal(size=(n, 12)) * rng.uniform(0.5, 3.0) \
            + rng.uniform(-2, 5, size=12)
        y = np.array([levels[i % n_levels] for i in range(n)])
        model = gnb.fit(X, y)
        Q = rng.normal(size=(n_queries, 12)) * 2.0 + rng.uniform(-1, 4)
        post = model.posterior(Q)   # fit leaves the temperature at 1
        for i in range(n_queries):
            want = mpmath_posterior(model, Q[i])
            np.testing.assert_allclose(post[i], want, atol=1e-9)

    # temperature never flips a label: fitted and forced extremes alike
    rng = np.random.default_rng(501)
    X = rng.normal(size=(180, 12)) * 2 + 1
    y = np.array([1 + i % 9 for i in range(180)])
    model = gnb.fit(X[:140], y[:140])
    base = model.predict(X)
    calibrated = gnb.fit_temperature(model, X[140:], y[140:])
    np.testing.assert_array_equal(calibrated.predict(X), base)
    for t in (0.05, 0.7, 5.0, 20.0):
        forced = gnb.GaussianNB(log_prior=model.log_prior, mean=model.mean,
                                var=model.var, temperature=t)
        np.testing.assert_array_equal(forced.predict(X), base)
        np.testing.assert_array_equal(
            forced.posterior(X).argmax(axis=1) + 1, base)

    # dropping the least confident quarter keeps exactly 75 of 100
    conf = np.random.default_rng(502).uniform(size=100)
    kept = gnb.confidence_filter(conf)
    assert len(kept) == 75
    dropped = sorted(set(range(100)) - set(kept))
    assert max(conf[dropped]) <= min(conf[kept])


def test_06_pair_mining_correctness():
    import itertools

    def oracle(levels, gap):
        return sorted((i, j) for i in range(len(levels))
                      for j in range(len(levels))
                      if i != j and levels[i] - levels[j] >= gap)

    for size in range(2, 9):
        for levels in itertools.combinations_with_replacement(range(1, 5),
                                                              size):
            for gap in (1, 2, 3):
                got = sorted(mining.enumerate_pairs(list(levels), gap))
                assert got == oracle(levels, gap), (levels, gap)

    # subset and distance monotonicity on every fixture population
    for seed in range(8):
        rng = np.random.default_rng(600 + seed)
        pool = []
        for p in range(5):
            for k in range(10):
                emb = rng.normal(size=16)
                pool.append(mining.Variation(
                    id=f"piece{p:03d}.v{k:03d}", piece=f"piece{p:03d}",
                    level=int(rng.integers(1, 10)),
                    confidence=float(rng.uniform(0.2, 1.0)),
                    embedding=emb / np.linalg.norm(emb)))
        rand_pairs, rand_rep = mining.mine(pool, strategy="random", min_gap=1)
        filt_pairs, filt_rep = mining.mine(pool, strategy="filtered",
                                           min_gap=1)
        rand_keys = {(p.hard, p.easy) for p in rand_pairs}
        filt_keys = {(p.hard, p.easy) for p in filt_pairs}
        assert filt_keys <= rand_keys, seed
        if not math.isnan(filt_rep.mean_distance):
            assert filt_rep.mean_distance <= rand_rep.mean_distance + 1e-12


def test_07_mask_correctness(small_corpus):
    streams = [encode(s) for s in small_corpus]
    vocab = Vocabulary.from_corpus(streams)
    rng = np.random.default_rng(700)
    V = len(vocab.tokens)
    samples = []
    for i in range(50):
        st = streams[i % len(streams)]
        harmony = rng.uniform(size=12)
        samples.append(("conditioned", seqbuild.conditioned_sample(
            vocab, st, harmony, piece=f"c{i}")))
    for i in range(50):
        hard = streams[rng.integers(0, len(streams))]
        easy = streams[rng.integers(0, len(streams))]
        s = seqbuild.adaptation_sample(
            vocab, hard, easy, hard_level=int(rng.integers(2, 10)),
            easy_level=1, piece=f"a{i}")
        samples.append(("adaptation", s))
        assert int((s.mask == 0).sum()) == len(easy) + 1

    assert len(samples) == 100
    for kind, s in samples:
        targets = s.ids[1:]
        mask = s.mask[1:]
        logits = rng.normal(size=(targets.shape[0], V))
        base, dbase = seqbuild.masked_cross_entropy(logits, targets, mask)
        masked_idx = np.nonzero(mask == 1)[0]
        for _ in range(3):
            scrambled = targets.copy()
            scrambled[masked_idx] = rng.integers(0, V, size=masked_idx.size)
            pert, dpert = seqbuild.masked_cross_entropy(logits, scrambled, mask)
            assert pert == base, kind     # exactly zero change
            assert np.array_equal(dpert, dbase), kind


def test_08_gradient_check():
    with Budget(120.0):
        cfg = ModelConfig(vocab_size=19, d_model=8, n_heads=2, n_layers=1,
                          d_ff=16, max_len=32)
        model = TinyLM.create(cfg, seed=800)
        rng = np.random.default_rng(801)
        ids = rng.integers(1, 19, size=(2, 9)).astype(np.int64)
        ids[:, 1] = _HARMONY_ID
        mask = np.zeros((2, 9), dtype=np.int8)
        mask[:, :2] = 1
        harmony = rng.uniform(size=(2, 12))
        _, grads = model.loss_and_grads(ids, mask, harmony)
        h = 1e-5
        checked = 0
        for name, arr in model.params.items():
            flat = arr.reshape(-1)
            take = min(6, flat.size)
            for idx in rng.choice(flat.size, size=take, replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                up, _ = model.loss_and_grads(ids, mask, harmony)
                flat[idx] = keep - h
                down, _ = model.loss_and_grads(ids, mask, harmony)
                flat[idx] = keep
                numeric = (up - down) / (2 * h)
                analytic = grads[name].reshape(-1)[idx]
                rel = abs(analytic - numeric) / max(
                    abs(analytic) + abs(numeric), 1e-8)
                assert rel < 1e-4, (name, int(idx), rel)
                checked += 1
        assert checked >= 100


def test_09_causality_and_rotary_shift():
    cfg = ModelConfig(vocab_size=23, d_model=16, n_heads=2, n_layers=2,
                      d_ff=32, max_len=64)
    model = TinyLM.create(cfg, seed=900)
    rng = np.random.default_rng(901)
    ids = rng.integers(1, 23, size=(2, 14)).astype(np.int64)
    base = model.logits(ids)
    for t in range(1, 14):
        altered = ids.copy()
        altered[:, t] = (altered[:, t] % 22) + 1
        out = model.logits(altered)
        assert np.array_equal(out[:, :t], base[:, :t]), t

    # attention scores are functions of relative offset only
    q = rng.normal(size=8)
    k = rng.normal(size=8)
    for i, j in ((0, 0), (1, 5), (3, 11), (7, 2)):
        ref = float(rope_rotate(q[None], np.array([i]))[0]
                    @ rope_rotate(k[None], np.array([j]))[0])
        for shift in (1, 17, 256):
            moved = float(
                rope_rotate(q[None], np.array([i + shift]))[0]
                @ rope_rotate(k[None], np.array([j + shift]))[0])
            assert abs(moved - ref) < 1e-6, (i, j, shift)


def test_10_overfit_sanity(small_corpus):
    with Budget(600.0):
        streams = [encode(s) for s in small_corpus[:10]]
        vocab = Vocabulary.from_corpus(streams)
        # short sequences: keep the first two measures of each piece
        short = []
        for st in streams:
            cuts = [i for i, t in enumerate(st) if t == "measure"]
            end = cuts[2] if len(cuts) > 2 else len(st)
            short.append(st[:end])
        rng = np.random.default_rng(1000)
        samples = [seqbuild.conditioned_sample(vocab, st,
                                               rng.uniform(size=12),
                                               piece=f"p{i}")
                   for i, st in enumerate(short)]
        ids, mask, harmony = seqbuild.collate(samples, vocab)
        cfg = ModelConfig(vocab_size=len(vocab.tokens), d_model=64,
                          n_heads=4, n_layers=2, d_ff=256,
                          max_len=ids.shape[1])
        model = TinyLM.create(cfg, seed=1001)
        opt = AdamW(model.params, lr=6e-4)
        reached = None
        for step in range(1, 2001):
            loss, grads = model.loss_and_grads(ids, mask, harmony)
            opt.update(model.params, grads)
            if loss < 0.1:
                reached = step
                break
        assert reached is not None, f"loss still {loss:.3f} after 2000 steps"


def test_11_end_to_end_pipeline(tmp_path):
    def run(*argv):
        rc = cli_main([str(a) for a in argv])
        assert rc == 0, argv

    with Budget(1800.0):
        ws = tmp_path
        corpus = ws / "corpus"
        run("gen-fixtures", "--out", corpus, "--pieces", "6", "--seed", "2026")
        run("lmx", "encode", "--corpus", corpus, "--out-dir", ws / "enc")
        run("skyline", "--corpus", corpus, "--out", ws / "sky.jsonl")
        run("profile", "--corpus", corpus, "--out", ws / "prof.jsonl",
            "--noise-scale", "0.15", "--seed", "8")
        run("build-seqs", "--mode", "conditioned",
            "--vocab", ws / "enc" / "vocab.txt",
            "--tokens", ws / "sky.jsonl", "--profiles", ws / "prof.jsonl",
            "--out", ws / "seqs.npz")
        run("train", "--seqs", ws / "seqs.npz",
            "--vocab", ws / "enc" / "vocab.txt", "--out-dir", ws / "ck",
            "--steps", "300", "--d-model", "48", "--n-layers", "1",
            "--n-heads", "4", "--d-ff", "128", "--lr", "3e-3",
            "--context", "512", "--seed", "4")
        run("sample", "--checkpoint", ws / "ck" / "checkpoint.npz",
            "--vocab", ws / "enc" / "vocab.txt",
            "--skylines", ws / "sky.jsonl", "--profiles", ws / "prof.jsonl",
            "--out-dir", ws / "samples", "--n", "128", "--max-new", "160",
            "--temperature", "0.95", "--seed", "6")

        with open(ws / "samples" / "variations.jsonl", encoding="utf-8") as fh:
            var_rows = [json.loads(line) for line in fh]
        assert len(var_rows) == 6 * 128
        n_valid = sum(1 for r in var_rows if r["valid"])
        assert n_valid >= 6 * 128 // 2, f"only {n_valid} decodable variations"

        # classify the variations, then the skylines through the same lens
        run("features", "--corpus", ws / "samples" / "scores",
            "--out", ws / "varfeat.jsonl")
        run("fit-gnb", "--features", ws / "varfeat.jsonl",
            "--out-dir", ws / "gnb", "--seed", "10")
        run("classify", "--model", ws / "gnb" / "model.json",
            "--features", ws / "varfeat.jsonl", "--out", ws / "varpost.jsonl")
        run("embed", "--corpus", ws / "samples" / "scores",
            "--out", ws / "varemb.jsonl")
        run("lmx", "decode", "--tokens", ws / "sky.jsonl",
            "--out-dir", ws / "skyscores")
        run("features", "--corpus", ws / "skyscores",
            "--out", ws / "origfeat.jsonl")
        run("classify", "--model", ws / "gnb" / "model.json",
            "--features", ws / "origfeat.jsonl", "--out",
            ws / "origpost.jsonl")
        run("embed", "--corpus", ws / "skyscores",
            "--out", ws / "origemb.jsonl")

        runs = []
        mined = {}
        for strategy in ("filtered", "random"):
            for gap in (1, 2):
                out = ws / f"mine_{strategy}_{gap}"
                run("mine-pairs", "--variations",
                    ws / "samples" / "variations.jsonl",
                    "--posteriors", ws / "varpost.jsonl",
                    "--embeddings", ws / "varemb.jsonl",
                    "--strategy", strategy, "--min-gap", gap,
                    "--out-dir", out)
                with open(out / "pairs.jsonl", encoding="utf-8") as fh:
                    mined[(strategy, gap)] = {
                        (r["hard"], r["easy"])
                        for r in map(json.loads, fh)}
                runs.append(out)
        for gap in (1, 2):
            assert mined[("filtered", gap)], ("no pairs", gap)
            assert mined[("filtered", gap)] <= mined[("random", gap)]

        run("evaluate", "--runs", *runs,
            "--original-posteriors", ws / "origpost.jsonl",
            "--variation-posteriors", ws / "varpost.jsonl",
            "--original-embeddings", ws / "origemb.jsonl",
            "--variation-embeddings", ws / "varemb.jsonl",
            "--corpus", corpus, "--out-dir", ws / "eval")

        lines = (ws / "eval" / "report.csv").read_text(
            encoding="utf-8").strip().splitlines()
        assert lines[0] == "strategy,gap,↓,∼,↑,distance"
        assert len(lines) == 5      # filtered/random x gaps 1/2
        seen = set()
        for line in lines[1:]:
            cells = line.split(",")
            seen.add((cells[0], cells[1]))
            outcome_total = sum(float(c) for c in cells[2:5])
            assert abs(outcome_total - 100.0) <= 0.1, line
            float(cells[5])         # distance parses
        assert seen == {("filtered", "1"), ("filtered", "2"),
                        ("random", "1"), ("random", "2")}

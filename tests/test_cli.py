"""Command-line pipeline tests: artifact shapes, manifests, error contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from gradus import gnb, model, style
from gradus.cli import main
from gradus.lmx import SPECIAL_TOKENS, encode
from gradus.score import read_musicxml


def run(*argv):
    rc = main(list(argv))
    assert rc == 0, f"command failed: {argv}"


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One shared workspace with the cheap half of the pipeline run once."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    run("gen-fixtures", "--out", str(corpus), "--pieces", "6",
        "--seed", "11")
    run("lmx", "encode", "--corpus", str(corpus), "--out-dir",
        str(root / "enc"))
    run("skyline", "--corpus", str(corpus), "--out", str(root / "sky.jsonl"))
    run("profile", "--corpus", str(corpus), "--out", str(root / "prof.jsonl"),
        "--noise-scale", "0.1", "--seed", "3")
    run("features", "--corpus", str(corpus), "--out",
        str(root / "feat.jsonl"))
    run("fit-gnb", "--features", str(root / "feat.jsonl"), "--out-dir",
        str(root / "gnb"), "--seed", "5")
    run("classify", "--model", str(root / "gnb" / "model.json"),
        "--features", str(root / "feat.jsonl"), "--out",
        str(root / "post.jsonl"))
    run("embed", "--corpus", str(corpus), "--out", str(root / "emb.jsonl"))
    return root


@pytest.fixture(scope="module")
def synthetic_variations(ws):
    """Hand-built variation artifacts so mining needs no trained model."""
    rng = np.random.default_rng(21)
    pieces = sorted(r["piece"] for r in read_jsonl(ws / "post.jsonl"))
    tokens = {r["piece"]: r["tokens"] for r in read_jsonl(ws / "sky.jsonl")}
    var_rows, post_rows, embs = [], [], {}
    for piece in pieces:
        for k in range(4):
            var_id = f"{piece}.v{k:03d}"
            var_rows.append({"piece": piece, "var": var_id,
                             "tokens": tokens[piece], "valid": True})
            post_rows.append({"piece": var_id,
                              "level": int(rng.integers(1, 10)),
                              "confidence": float(rng.uniform(0.3, 1.0))})
            v = rng.normal(size=64)
            embs[var_id] = v / np.linalg.norm(v)
    vdir = ws / "vars"
    vdir.mkdir(exist_ok=True)
    with open(vdir / "variations.jsonl", "w", encoding="utf-8") as fh:
        for row in var_rows:
            fh.write(json.dumps(row) + "\n")
    with open(vdir / "varpost.jsonl", "w", encoding="utf-8") as fh:
        for row in post_rows:
            fh.write(json.dumps(row) + "\n")
    style.save_embeddings(str(vdir / "varemb.jsonl"), embs)
    return vdir


class TestGenFixtures:
    def test_creates_corpus_and_manifest(self, ws):
        files = sorted((ws / "corpus").glob("*.musicxml"))
        assert len(files) == 6
        manifest = json.loads((ws / "corpus" / "manifest.json").read_text())
        assert manifest["command"] == "gen-fixtures"
        assert manifest["seed"] == 11
        assert "version" in manifest
        assert "timestamp" not in manifest
        assert "created" not in manifest

    def test_deterministic_across_runs(self, ws, tmp_path):
        run("gen-fixtures", "--out", str(tmp_path / "again"), "--pieces", "6",
            "--seed", "11")
        for f in sorted((ws / "corpus").glob("*.musicxml")):
            twin = tmp_path / "again" / f.name
            assert twin.read_text() == f.read_text()


class TestLmx:
    def test_token_and_vocab_artifacts(self, ws):
        rows = read_jsonl(ws / "enc" / "tokens.jsonl")
        assert len(rows) == 6
        assert all(isinstance(r["tokens"], list) for r in rows)
        vocab_lines = (ws / "enc" / "vocab.txt").read_text().splitlines()
        assert vocab_lines[:len(SPECIAL_TOKENS)] == list(SPECIAL_TOKENS)
        assert len(vocab_lines) <= 512

    def test_decode_round_trip(self, ws, tmp_path):
        dec = tmp_path / "dec"
        run("lmx", "decode", "--tokens", str(ws / "enc" / "tokens.jsonl"),
            "--out-dir", str(dec))
        originals = {r["piece"]: r["tokens"]
                     for r in read_jsonl(ws / "enc" / "tokens.jsonl")}
        files = sorted(dec.glob("*.musicxml"))
        assert len(files) == 6
        for f in files:
            back = read_musicxml(str(f))
            assert encode(back) == originals[f.stem]

    def test_decode_error_names_the_row(self, ws, tmp_path, capsys):
        rows = read_jsonl(ws / "enc" / "tokens.jsonl")[:2]
        rows[1]["tokens"] = rows[1]["tokens"][1:]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["lmx", "decode", "--tokens", str(bad), "--out-dir", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "CliError",
                           "message": f"{bad}:2: token 0: stream must begin with 'measure'"}

    def test_parallel_encode_identical(self, ws, tmp_path):
        par = tmp_path / "par"
        run("lmx", "encode", "--corpus", str(ws / "corpus"), "--out-dir",
            str(par), "--jobs", "2")
        assert (par / "tokens.jsonl").read_text() == \
            (ws / "enc" / "tokens.jsonl").read_text()
        assert (par / "vocab.txt").read_text() == \
            (ws / "enc" / "vocab.txt").read_text()


class TestAnalysisCommands:
    def test_skyline_rows(self, ws):
        rows = read_jsonl(ws / "sky.jsonl")
        assert len(rows) == 6
        for row in rows:
            assert row["tokens"][0] == "measure"
            # notes are (onset, duration, midi-or-null) triples
            for onset, duration, midi in row["notes"]:
                assert "/" in onset or onset.lstrip("-").isdigit()
                assert midi is None or 0 < midi < 128

    def test_profile_rows(self, ws):
        rows = read_jsonl(ws / "prof.jsonl")
        for row in rows:
            assert len(row["profile"]) == 12
            assert abs(sum(row["profile"]) - 1.0) < 1e-9
            assert len(row["perturbed"]) == 12
            assert abs(sum(row["perturbed"]) - 1.0) < 1e-9

    def test_profile_noise_seeded(self, ws, tmp_path):
        twin = tmp_path / "prof2.jsonl"
        run("profile", "--corpus", str(ws / "corpus"), "--out", str(twin),
            "--noise-scale", "0.1", "--seed", "3")
        assert twin.read_text() == (ws / "prof.jsonl").read_text()

    def test_feature_rows(self, ws):
        rows = read_jsonl(ws / "feat.jsonl")
        assert len(rows) == 6
        for row in rows:
            assert len(row["features"]) == 12


class TestModelCommands:
    def test_fit_artifacts(self, ws):
        model_doc = json.loads((ws / "gnb" / "model.json").read_text())
        assert model_doc["format"] == "gnb-v1"
        labels = read_jsonl(ws / "gnb" / "labels.jsonl")
        assert len(labels) == 6
        assert all(1 <= r["level"] <= 9 for r in labels)

    def test_classify_rows(self, ws):
        rows = read_jsonl(ws / "post.jsonl")
        assert len(rows) == 6
        for row in rows:
            assert 1 <= row["level"] <= 9
            assert 0.0 <= row["confidence"] <= 1.0
            assert len(row["posterior"]) == 9
            assert abs(sum(row["posterior"]) - 1.0) < 1e-6
            assert row["posterior"].index(max(row["posterior"])) + 1 == \
                row["level"]

    def test_classify_computes_one_log_joint(self, ws, tmp_path, monkeypatch):
        calls = []
        log_joint = gnb.GaussianNB.log_joint

        def counted(self, features):
            calls.append(len(features))
            return log_joint(self, features)

        monkeypatch.setattr(gnb.GaussianNB, "log_joint", counted)
        run("classify", "--model", str(ws / "gnb" / "model.json"),
            "--features", str(ws / "feat.jsonl"), "--out", str(tmp_path / "post.jsonl"))
        assert calls == [6]
        assert (tmp_path / "post.jsonl").read_bytes() == (ws / "post.jsonl").read_bytes()

    def test_classify_level_is_the_argmax_of_the_unscaled_log_joint(self, tmp_path):
        # at every level's mean, with variance 1 / (2 pi), a row's log-joint
        # is its level's log prior exactly; levels 1 and 2 differ by one ulp,
        # and divided by the temperature 3 they round to one value
        low, high = -1.0, float(np.nextafter(-1.0, 0.0))
        assert low < high and low / 3.0 == high / 3.0
        row = [0.5] * 12
        fitted = gnb.GaussianNB(np.array([low, high] + [-np.inf] * 7), np.tile(row, (9, 1)),
                                np.full((9, 12), 1.0 / (2.0 * np.pi)), temperature=3.0)
        assert fitted.log_joint(np.array([row]))[0, :2].tolist() == [low, high]
        gnb.save_model(fitted, str(tmp_path / "model.json"))
        (tmp_path / "feat.jsonl").write_text(json.dumps({"piece": "p", "features": row}) + "\n",
                                            encoding="utf-8")
        run("classify", "--model", str(tmp_path / "model.json"),
            "--features", str(tmp_path / "feat.jsonl"), "--out", str(tmp_path / "post.jsonl"))
        (got,) = read_jsonl(tmp_path / "post.jsonl")
        assert got["level"] == 2
        assert got["posterior"] == [0.5, 0.5] + [0.0] * 7
        assert got["confidence"] == 0.5

    def test_embed_artifact(self, ws):
        table = style.load_embeddings(str(ws / "emb.jsonl"))
        assert len(table) == 6
        for v in table.values():
            assert v.shape == (64,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9


class TestFitGnbReport:
    """fit-gnb names the reason whenever it leaves the temperature uncalibrated."""

    SEED = 5

    def fit(self, tmp_path, capsys, levels, x=None):
        if x is None:
            x = np.random.default_rng(1).normal(size=(len(levels), 12))
        with open(tmp_path / "feat.jsonl", "w", encoding="utf-8") as fh:
            for k, row in enumerate(x):
                fh.write(json.dumps({"piece": f"p{k}", "features": row.tolist()}) + "\n")
        with open(tmp_path / "labels.jsonl", "w", encoding="utf-8") as fh:
            for k, level in enumerate(levels):
                fh.write(json.dumps({"piece": f"p{k}", "level": level}) + "\n")
        capsys.readouterr()
        run("fit-gnb", "--features", str(tmp_path / "feat.jsonl"),
            "--labels", str(tmp_path / "labels.jsonl"),
            "--out-dir", str(tmp_path / "gnb"), "--seed", str(self.SEED))
        return capsys.readouterr().out.strip()

    def levels_with_twos_at(self, positions, n=12):
        # the default holdout fraction holds out the first 3 rows of this order
        order = np.random.default_rng(self.SEED).permutation(n)
        levels = [1] * n
        for k in positions:
            levels[int(order[k])] = 2
        return levels

    def test_calibrated_without_note(self, tmp_path, capsys):
        out = self.fit(tmp_path, capsys, [1, 2] * 6)
        assert out.startswith("fitted on 9 pieces, temperature ")
        assert "not calibrated" not in out

    def bound_split(self, held_out_x):
        """16 rows whose column 0 alone tells level 1 (near 0) from level 2
        (near 2); the four held-out rows sit at ``held_out_x``."""
        order = np.random.default_rng(self.SEED).permutation(16)
        levels, x = [0] * 16, np.zeros((16, 12))
        for k, level, value in zip(order, [1, 2] * 8, [*held_out_x, *([-1, 1, 0, 2, 1, 3] * 2)]):
            levels[int(k)], x[int(k), 0] = level, value
        return levels, x

    @pytest.mark.parametrize("held_out_x, end, bound, past", [
        ((0.8, 1.2) * 2, "lower", 0.05, 0.025),
        ((1.2, 0.8) * 2, "upper", 20.0, 40.0),
    ], ids=["lower", "upper"])
    def test_temperature_on_a_bound_is_reported(self, tmp_path, capsys, held_out_x, end,
                                                bound, past):
        # held-out rows just on their own level's side of the midpoint (lower) or just on
        # the other's (upper): the held-out NLL keeps falling past that end of the range
        levels, x = self.bound_split(held_out_x)
        out = self.fit(tmp_path, capsys, levels, x)
        assert out == (f"fitted on 12 pieces, temperature {bound:.3f} "
                       f"(on the {end} bound of the search range)")
        fitted = gnb.load_model(str(tmp_path / "gnb" / "model.json"))
        assert abs(fitted.temperature - bound) <= gnb.TEMPERATURE_TOL
        held = np.random.default_rng(self.SEED).permutation(16)[:4]
        y, joint = np.array(levels)[held], fitted.log_joint(x[held])
        assert gnb._held_out_nll(joint, y, past) < gnb._held_out_nll(joint, y, bound)

    def test_corpus_too_small(self, tmp_path, capsys):
        out = self.fit(tmp_path, capsys, [1, 1, 1, 2, 2])
        assert out == ("fitted on 5 pieces, temperature 1.000 "
                       "(not calibrated: corpus too small for a holdout)")

    def test_split_starved_a_level(self, tmp_path, capsys):
        out = self.fit(tmp_path, capsys, self.levels_with_twos_at([0, 5]))
        assert out == ("fitted on 12 pieces, temperature 1.000 "
                       "(not calibrated: split starved a level)")

    def test_feature_whose_square_overflows_fails_the_stage(self, tmp_path, capsys):
        levels = [1, 2] * 6
        x = np.random.default_rng(1).normal(size=(len(levels), 12))
        # a training row: the default holdout is the first 3 rows of the order
        x[int(np.random.default_rng(self.SEED).permutation(len(levels))[5]), 3] = 1e155
        with pytest.raises(AssertionError, match="command failed"):
            self.fit(tmp_path, capsys, levels, x)
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "ModelError",
                           "message": "feature column 3: pooled variance is not finite"}

    def test_holdout_row_no_level_can_score_is_located(self, tmp_path, capsys):
        levels = [1, 2] * 6
        x = np.random.default_rng(1).normal(size=(len(levels), 12))
        # the first held-out row, which calibration is the first to score
        row = int(np.random.default_rng(self.SEED).permutation(len(levels))[0])
        x[row, 3] = 1e155
        with pytest.raises(AssertionError, match="command failed"):
            self.fit(tmp_path, capsys, levels, x)
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "CliError"
        assert payload["message"].startswith(f"{tmp_path / 'feat.jsonl'}:{row + 1}: ")
        assert payload["message"].endswith("has a finite log-likelihood under no level")

    def test_holdout_levels_absent_from_training(self, tmp_path, capsys):
        # level 2 has no training row, which starves it as one row would
        out = self.fit(tmp_path, capsys, self.levels_with_twos_at([0, 1]))
        assert out == ("fitted on 12 pieces, temperature 1.000 "
                       "(not calibrated: split starved a level)")

    def test_proxy_level_held_out_whole_fits_every_row(self, tmp_path, capsys):
        # at this seed the holdout takes every row of one of the nine proxy levels
        with open(tmp_path / "feat.jsonl", "w", encoding="utf-8") as fh:
            for k, row in enumerate(np.random.default_rng(0).normal(size=(24, 12))):
                fh.write(json.dumps({"piece": f"p{k}", "features": row.tolist()}) + "\n")
        capsys.readouterr()
        run("fit-gnb", "--features", str(tmp_path / "feat.jsonl"),
            "--out-dir", str(tmp_path / "gnb"), "--seed", "28")
        assert capsys.readouterr().out.strip() == (
            "fitted on 24 pieces, temperature 1.000 (not calibrated: split starved a level)")
        fitted = gnb.load_model(str(tmp_path / "gnb" / "model.json"))
        assert np.isfinite(fitted.log_prior).all()


class TestMiningCommands:
    def test_mine_both_strategies(self, ws, synthetic_variations, tmp_path):
        outs = {}
        for strategy in ("random", "filtered"):
            out = tmp_path / strategy
            run("mine-pairs",
                "--variations", str(synthetic_variations / "variations.jsonl"),
                "--posteriors", str(synthetic_variations / "varpost.jsonl"),
                "--embeddings", str(synthetic_variations / "varemb.jsonl"),
                "--strategy", strategy, "--min-gap", "1",
                "--out-dir", str(out))
            outs[strategy] = {(r["hard"], r["easy"])
                              for r in read_jsonl(out / "pairs.jsonl")}
            rep = json.loads((out / "report.json").read_text())
            assert rep["strategy"] == strategy
            assert rep["counts"]["raw"] >= len(outs[strategy])
        assert outs["filtered"] <= outs["random"]

    def test_build_conditioned_seqs(self, ws, tmp_path):
        out = tmp_path / "cond.npz"
        run("build-seqs", "--mode", "conditioned",
            "--vocab", str(ws / "enc" / "vocab.txt"),
            "--tokens", str(ws / "sky.jsonl"),
            "--profiles", str(ws / "prof.jsonl"),
            "--out", str(out))
        data = np.load(out)
        assert data["ids"].shape[0] == 6
        assert data["ids"].shape == data["mask"].shape
        assert data["harmony"].shape == (6, 12)
        pieces = json.loads(bytes(data["pieces"]).decode())
        assert len(pieces) == 6

    def test_sequence_file_without_npz_suffix_is_written_and_read_at_its_path(
            self, ws, tmp_path, capsys):
        out = tmp_path / "seqs.bin"
        run("build-seqs", "--mode", "conditioned",
            "--vocab", str(ws / "enc" / "vocab.txt"),
            "--tokens", str(ws / "sky.jsonl"),
            "--profiles", str(ws / "prof.jsonl"),
            "--out", str(out))
        assert capsys.readouterr().out == f"built 6 conditioned sequences -> {out}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seqs.bin",
                                                              "seqs.bin.manifest.json"]
        run("train", "--seqs", str(out), "--vocab", str(ws / "enc" / "vocab.txt"),
            "--out-dir", str(tmp_path / "ck"), "--steps", "1",
            "--d-model", "8", "--n-layers", "1", "--n-heads", "2", "--d-ff", "8")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert str(out) in manifest["inputs"]

    def test_build_adaptation_seqs(self, ws, synthetic_variations, tmp_path):
        mined = tmp_path / "mined"
        run("mine-pairs",
            "--variations", str(synthetic_variations / "variations.jsonl"),
            "--posteriors", str(synthetic_variations / "varpost.jsonl"),
            "--embeddings", str(synthetic_variations / "varemb.jsonl"),
            "--strategy", "random", "--min-gap", "2",
            "--out-dir", str(mined))
        out = tmp_path / "adapt.npz"
        run("build-seqs", "--mode", "adaptation",
            "--vocab", str(ws / "enc" / "vocab.txt"),
            "--pairs", str(mined / "pairs.jsonl"),
            "--variations", str(synthetic_variations / "variations.jsonl"),
            "--out", str(out))
        data = np.load(out)
        n_pairs = len(read_jsonl(mined / "pairs.jsonl"))
        assert data["ids"].shape[0] == n_pairs
        # every row scores at least one position
        assert np.all((data["mask"] == 0).sum(axis=1) >= 1)

    def test_mode_arguments_enforced(self, capsys):
        rc = main(["build-seqs", "--mode", "conditioned", "--vocab", "x",
                   "--out", "y"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "tokens" in payload["message"]

    def test_other_modes_files_refused(self, ws, tmp_path, capsys):
        rc = main(["build-seqs", "--mode", "conditioned",
                   "--vocab", str(ws / "enc" / "vocab.txt"),
                   "--tokens", str(ws / "sky.jsonl"), "--profiles", str(ws / "prof.jsonl"),
                   "--pairs", str(ws / "sky.jsonl"), "--out", str(tmp_path / "seqs.npz")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload == {"error": "CliError",
                           "message": "--pairs is not used by mode conditioned"}
        assert not (tmp_path / "seqs.npz").exists()


@pytest.fixture(scope="module")
def trained(ws, tmp_path_factory):
    root = tmp_path_factory.mktemp("train")
    seqs = root / "cond.npz"
    run("build-seqs", "--mode", "conditioned",
        "--vocab", str(ws / "enc" / "vocab.txt"),
        "--tokens", str(ws / "sky.jsonl"),
        "--profiles", str(ws / "prof.jsonl"),
        "--out", str(seqs))
    run("train", "--seqs", str(seqs),
        "--vocab", str(ws / "enc" / "vocab.txt"),
        "--out-dir", str(root / "ck"), "--steps", "3",
        "--d-model", "16", "--n-layers", "1", "--n-heads", "2",
        "--d-ff", "32", "--seed", "1")
    return root


@pytest.fixture(scope="module")
def fluent(ws, trained, tmp_path_factory):
    """The checkpoint of a model trained until its draws decode to scores."""
    out = tmp_path_factory.mktemp("fluent")
    run("train", "--seqs", str(trained / "cond.npz"),
        "--vocab", str(ws / "enc" / "vocab.txt"),
        "--out-dir", str(out), "--steps", "120",
        "--d-model", "32", "--n-layers", "1", "--n-heads", "2",
        "--d-ff", "64", "--lr", "3e-3", "--seed", "1")
    return out / "checkpoint.npz"


def sampled(ws, checkpoint, out, *options):
    """The rows of ``variations.jsonl`` that ``sample`` writes to ``out``."""
    run("sample", "--checkpoint", str(checkpoint),
        "--vocab", str(ws / "enc" / "vocab.txt"),
        "--skylines", str(ws / "sky.jsonl"),
        "--profiles", str(ws / "prof.jsonl"),
        "--out-dir", str(out), "--max-new", "120", "--seed", "9", *options)
    return read_jsonl(out / "variations.jsonl")


class TestTrainSample:
    def test_train_artifacts(self, trained):
        assert (trained / "ck" / "checkpoint.npz").exists()
        log = (trained / "ck" / "train_log.csv").read_text().splitlines()
        assert log[0] == "step,loss"
        assert len(log) >= 2
        step, loss = log[-1].split(",")
        assert int(step) == 3
        assert float(loss) > 0

    def test_sample_artifacts(self, ws, fluent, tmp_path):
        out = tmp_path / "samples"
        rows = sampled(ws, fluent, out, "--n", "4", "--temperature", "0.6")
        assert len(rows) == 24    # 6 pieces x 4 draws
        by_var = {row["var"]: row for row in rows}
        distinct = {}
        for row in rows:
            assert row["var"].startswith(row["piece"] + ".v")
            score = out / "scores" / f"{row['var']}.musicxml"
            if "same_as" in row:
                first = by_var[row["same_as"]]
                assert first["piece"] == row["piece"] and "same_as" not in first
                assert first["var"] < row["var"]
                assert (row["tokens"], row["valid"]) == (first["tokens"], first["valid"])
                assert not score.exists()
            else:
                assert score.exists() == row["valid"]
                distinct.setdefault(row["piece"], []).append(tuple(row["tokens"]))
        # both kinds of row occur, and no two distinct draws of a piece are equal
        assert any(row["valid"] and "same_as" not in row for row in rows)
        assert any("same_as" in row for row in rows)
        assert all(len(set(streams)) == len(streams) for streams in distinct.values())

    def test_greedy_draws_are_one_variation(self, ws, fluent, tmp_path, capsys):
        out = tmp_path / "greedy"
        rows = sampled(ws, fluent, out, "--n", "4", "--temperature", "0")
        assert capsys.readouterr().out == f"sampled 24 variations (24 valid, 6 distinct) -> {out}\n"
        pieces = sorted({row["piece"] for row in rows})
        assert sorted(p.name for p in (out / "scores").iterdir()) == \
            [f"{piece}.v000.musicxml" for piece in pieces]
        for row in rows:
            if row["var"].endswith(".v000"):
                assert "same_as" not in row
            else:
                assert row["same_as"] == f"{row['piece']}.v000"

    def test_mining_distinct_draws_keeps_every_distinct_pair(self, ws, fluent, tmp_path):
        # a level, confidence and embedding that depend only on the tokens, as
        # grading a variation's score would give; draws are told apart within a
        # piece, so a pair is its piece and its two token streams
        rows = sampled(ws, fluent, tmp_path / "samples", "--n", "6", "--temperature", "0.6")
        assert any("same_as" in row for row in rows)

        def graded(tokens):
            rng = np.random.default_rng(list(json.dumps(tokens).encode()))
            return int(rng.integers(1, 10)), float(rng.uniform(0.3, 1.0)), rng.normal(size=8)

        def mined(name, var_rows):
            out = tmp_path / name
            out.mkdir()
            grades = {row["var"]: graded(row["tokens"]) for row in var_rows
                      if row["valid"] and "same_as" not in row}
            (out / "variations.jsonl").write_text(
                "".join(json.dumps(row) + "\n" for row in var_rows))
            (out / "post.jsonl").write_text("".join(
                json.dumps({"piece": var, "level": level, "confidence": confidence}) + "\n"
                for var, (level, confidence, _) in grades.items()))
            style.save_embeddings(str(out / "emb.jsonl"),
                                  {var: emb for var, (_, _, emb) in grades.items()})
            run("mine-pairs", "--variations", str(out / "variations.jsonl"),
                "--posteriors", str(out / "post.jsonl"), "--embeddings", str(out / "emb.jsonl"),
                "--strategy", "random", "--min-gap", "1", "--out-dir", str(out))
            tokens = {row["var"]: tuple(row["tokens"]) for row in var_rows}
            return [(p["piece"], tokens[p["hard"]], tokens[p["easy"]])
                    for p in read_jsonl(out / "pairs.jsonl")]

        every_row = mined("every", [{k: v for k, v in row.items() if k != "same_as"}
                                    for row in rows])
        distinct = mined("distinct", rows)
        assert len(distinct) < len(every_row)
        assert sorted(distinct) == sorted(set(every_row))


def failure(capsys, *argv):
    """The error line a failing command prints."""
    assert main(list(argv)) == 1
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestTrainSampleInputErrors:
    def test_sequence_file_without_lengths(self, ws, trained, tmp_path, capsys):
        with np.load(trained / "cond.npz") as data:
            arrays = {name: data[name] for name in data.files if name != "lengths"}
        seqs = tmp_path / "nolengths.npz"
        np.savez(seqs, **arrays)
        payload = failure(capsys, "train", "--seqs", str(seqs),
                          "--vocab", str(ws / "enc" / "vocab.txt"),
                          "--out-dir", str(tmp_path / "ck"), "--steps", "1")
        assert payload == {"error": "CliError",
                           "message": f"{seqs}: sequence file has no 'lengths' array"}

    def test_jsonl_as_sequence_file(self, ws, tmp_path, capsys):
        payload = failure(capsys, "train", "--seqs", str(ws / "sky.jsonl"),
                          "--vocab", str(ws / "enc" / "vocab.txt"),
                          "--out-dir", str(tmp_path / "ck"), "--steps", "1")
        assert payload["error"] == "CliError"
        assert payload["message"].startswith(f"{ws / 'sky.jsonl'}: not a sequence file (ValueError")

    def _train_fails(self, ws, tmp_path, capsys, monkeypatch, seqs, vocab=None):
        """The error of ``train`` on ``seqs``, which must come before any model is made."""
        def create(*args, **kwargs):
            raise AssertionError("TinyLM.create ran")
        monkeypatch.setattr(model.TinyLM, "create", create)
        return failure(capsys, "train", "--seqs", str(seqs),
                       "--vocab", str(vocab or ws / "enc" / "vocab.txt"),
                       "--out-dir", str(tmp_path / "ck"), "--steps", "1")

    @pytest.mark.parametrize("change, message", [
        (lambda a, v: a["ids"].__setitem__((0, 0), v + 1000),
         "'ids' must hold a row or more of ids in [0, {v})"),
        (lambda a, v: a["ids"].__setitem__((1, 2), -1),
         "'ids' must hold a row or more of ids in [0, {v})"),
        (lambda a, v: a.update(mask=a["mask"][1:]), "'mask' must be shaped as 'ids', "),
        (lambda a, v: a.update(harmony=a["harmony"][:, :5]),
         "'harmony' must be shaped (6, 12)"),
        (lambda a, v: a.update(lengths=a["lengths"][:3]),
         "'lengths' must be shaped (6,) and hold lengths in [1, "),
        (lambda a, v: a["lengths"].__setitem__(0, a["ids"].shape[1] + 1),
         "'lengths' must be shaped (6,) and hold lengths in [1, "),
        (lambda a, v: a.update(ids=a["ids"].astype(np.float64)),
         "'ids' must be 2-d of dtype kind 'iu', got 2-d float64"),
    ], ids=["id-above-vocab", "negative-id", "mask-rows", "harmony-width", "lengths-rows",
            "length-over-width", "float-ids"])
    def test_sequence_file_that_does_not_fit(self, ws, trained, tmp_path, capsys, monkeypatch,
                                             change, message):
        vocab_size = len((ws / "enc" / "vocab.txt").read_text().splitlines())
        with np.load(trained / "cond.npz") as data:
            arrays = {name: data[name] for name in data.files}
        change(arrays, vocab_size)
        seqs = tmp_path / "bad.npz"
        np.savez(seqs, **arrays)
        payload = self._train_fails(ws, tmp_path, capsys, monkeypatch, seqs)
        assert payload["error"] == "CliError"
        assert payload["message"].startswith(
            f"{seqs}: sequence file array " + message.format(v=vocab_size))

    def test_npy_as_sequence_file(self, ws, trained, tmp_path, capsys, monkeypatch):
        seqs = tmp_path / "ids.npy"
        with np.load(trained / "cond.npz") as data:
            np.save(seqs, data["ids"])
        payload = self._train_fails(ws, tmp_path, capsys, monkeypatch, seqs)
        assert payload == {"error": "CliError", "message": (
            f"{seqs}: not a sequence file (ValueError: a single .npy array, not an npz archive)")}

    def test_vocabulary_that_is_not_utf8(self, ws, trained, tmp_path, capsys, monkeypatch):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes((ws / "enc" / "vocab.txt").read_bytes() + b"\xff\n")
        payload = self._train_fails(ws, tmp_path, capsys, monkeypatch, trained / "cond.npz",
                                    vocab)
        assert payload["error"] == "VocabularyError"
        assert payload["message"].startswith(f"{vocab}: 'utf-8' codec can't decode byte 0xff")

    def test_vocabulary_shorter_than_the_checkpoints(self, ws, trained, tmp_path, capsys):
        lines = (ws / "enc" / "vocab.txt").read_text().splitlines()
        vocab = tmp_path / "short.txt"
        vocab.write_text("\n".join(lines[:-3]) + "\n")
        checkpoint = trained / "ck" / "checkpoint.npz"
        payload = failure(capsys, "sample", "--checkpoint", str(checkpoint),
                          "--vocab", str(vocab), "--skylines", str(ws / "sky.jsonl"),
                          "--profiles", str(ws / "prof.jsonl"),
                          "--out-dir", str(tmp_path / "out"), "--n", "2")
        assert payload == {"error": "CliError", "message": (
            f"{vocab}: vocabulary has {len(lines) - 3} tokens but checkpoint "
            f"{checkpoint} was trained on {len(lines)}")}
        assert not (tmp_path / "out" / "variations.jsonl").exists()


class TestManifests:
    def test_derived_from_parsed_arguments(self, ws, trained):
        enc = json.loads((ws / "enc" / "manifest.json").read_text())
        assert enc["command"] == "lmx encode"
        assert enc["args"] == {"corpus": str(ws / "corpus"), "out_dir": str(ws / "enc"),
                               "jobs": 1}
        assert enc["seed"] is None
        ck = json.loads((trained / "ck" / "manifest.json").read_text())
        assert ck["seed"] == 1 and "seed" not in ck["args"]
        assert ck["args"]["context"] == 4096

    def test_file_outputs_sharing_a_directory_keep_one_manifest_each(self, ws, tmp_path):
        run("skyline", "--corpus", str(ws / "corpus"), "--out", str(tmp_path / "sky.jsonl"))
        run("profile", "--corpus", str(ws / "corpus"), "--out", str(tmp_path / "prof.jsonl"),
            "--seed", "3")
        sky = json.loads((tmp_path / "sky.jsonl.manifest.json").read_text())
        prof = json.loads((tmp_path / "prof.jsonl.manifest.json").read_text())
        assert sky["command"] == "skyline" and sky["args"]["out"] == str(tmp_path / "sky.jsonl")
        assert prof["command"] == "profile" and prof["seed"] == 3
        assert not (tmp_path / "manifest.json").exists()

    def test_runs_differing_in_one_option_differ(self, ws, trained, tmp_path):
        def manifest_after(path, *argv):
            run(*argv)
            return json.loads(path.read_text())

        seqs = ("build-seqs", "--mode", "conditioned", "--vocab", str(ws / "enc" / "vocab.txt"),
                "--tokens", str(ws / "sky.jsonl"), "--profiles", str(ws / "prof.jsonl"),
                "--out", str(tmp_path / "seqs.npz"))
        where = tmp_path / "seqs.npz.manifest.json"
        skyline = manifest_after(where, *seqs)
        score = manifest_after(where, *seqs, "--tokens", str(ws / "enc" / "tokens.jsonl"))
        assert skyline != score
        assert (skyline["args"]["tokens"], score["args"]["tokens"]) == \
            (str(ws / "sky.jsonl"), str(ws / "enc" / "tokens.jsonl"))

        train = ("train", "--seqs", str(trained / "cond.npz"),
                 "--vocab", str(ws / "enc" / "vocab.txt"), "--out-dir", str(tmp_path / "ck"),
                 "--steps", "1", "--d-model", "16", "--n-layers", "1", "--n-heads", "2",
                 "--d-ff", "32")
        where = tmp_path / "ck" / "manifest.json"
        short = manifest_after(where, *train, "--context", "600")
        long = manifest_after(where, *train, "--context", "700")
        assert short != long
        assert (short["args"]["context"], long["args"]["context"]) == (600, 700)


class TestEvaluate:
    def test_end_to_end_report(self, ws, synthetic_variations, tmp_path):
        runs = []
        for strategy, gap in (("filtered", 1), ("random", 1)):
            out = tmp_path / f"{strategy}{gap}"
            run("mine-pairs",
                "--variations", str(synthetic_variations / "variations.jsonl"),
                "--posteriors", str(synthetic_variations / "varpost.jsonl"),
                "--embeddings", str(synthetic_variations / "varemb.jsonl"),
                "--strategy", strategy, "--min-gap", str(gap),
                "--out-dir", str(out))
            runs.append(str(out))
        ev = tmp_path / "eval"
        run("evaluate", "--runs", *runs,
            "--original-posteriors", str(ws / "post.jsonl"),
            "--variation-posteriors",
            str(synthetic_variations / "varpost.jsonl"),
            "--original-embeddings", str(ws / "emb.jsonl"),
            "--variation-embeddings",
            str(synthetic_variations / "varemb.jsonl"),
            "--corpus", str(ws / "corpus"),
            "--out-dir", str(ev))
        csv_lines = (ev / "report.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "strategy,gap,↓,∼,↑,distance"
        assert len(csv_lines) == 3
        for line in csv_lines[1:]:
            cells = line.split(",")
            total = sum(float(c) for c in cells[2:5])
            assert abs(total - 100.0) <= 0.1
        records = read_jsonl(ev / "records.jsonl")
        assert all(r["genre"] for r in records)
        assert (ev / "report.md").exists()


class TestErrorContract:
    def test_missing_corpus(self, capsys):
        rc = main(["skyline", "--corpus", "/nonexistent/place",
                   "--out", "/tmp/x.jsonl"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"]
        assert payload["message"]

    def test_bad_score_fails_with_json_error(self, tmp_path, capsys):
        (tmp_path / "junk.musicxml").write_text("<not-music/>")
        rc = main(["skyline", "--corpus", str(tmp_path), "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "UnsupportedStructureError" and payload["message"]

    def test_unreadable_corpus_entry_is_named(self, tmp_path, capsys):
        (tmp_path / "a.musicxml").mkdir()
        payload = failure(capsys, "features", "--corpus", str(tmp_path),
                          "--out", str(tmp_path / "f.jsonl"))
        assert payload["error"] == "MusicXmlParseError"
        assert payload["message"].startswith(f"{tmp_path / 'a.musicxml'}: cannot read (")

    @pytest.mark.parametrize("error, argv", [
        ("VocabularyError", ("train", "--seqs", "SEQS", "--vocab", "MISSING", "--out-dir", "OUT")),
        ("MiningError", ("build-seqs", "--mode", "adaptation", "--vocab", "VOCAB",
                         "--pairs", "MISSING", "--variations", "VARS", "--out", "OUT/o.npz")),
        ("CliError", ("fit-gnb", "--features", "MISSING", "--out-dir", "OUT")),
        ("ModelError", ("classify", "--model", "MISSING", "--features", "FEAT",
                        "--out", "OUT/o.jsonl")),
        ("CliError", ("evaluate", "--runs", "OUT", "--original-posteriors", "POST",
                      "--variation-posteriors", "MISSING", "--original-embeddings", "EMB",
                      "--variation-embeddings", "EMB", "--out-dir", "OUT")),
    ], ids=["train", "build-seqs", "fit-gnb", "classify", "evaluate"])
    def test_missing_input_file_is_named(self, ws, synthetic_variations, trained, tmp_path,
                                         capsys, error, argv):
        missing = tmp_path / "nope"
        names = {"MISSING": missing, "OUT": tmp_path / "out", "SEQS": trained / "cond.npz",
                 "VOCAB": ws / "enc" / "vocab.txt", "FEAT": ws / "feat.jsonl",
                 "VARS": synthetic_variations / "variations.jsonl", "POST": ws / "post.jsonl",
                 "EMB": ws / "emb.jsonl"}
        # a placeholder may also open a path, as OUT does in OUT/o.npz
        parts = (a.partition("/") for a in argv)
        payload = failure(capsys, *(str(names.get(h, h)) + sep + rest for h, sep, rest in parts))
        assert payload == {"error": error, "message": (
            f"{missing}: cannot read (FileNotFoundError: No such file or directory)")}

    @pytest.mark.parametrize("argv", [
        ("parse", "x.musicxml"),
        ("build-seqs", "--mode", "conditioned", "--vocab", "v", "--out", "o",
         "--no-level-tokens"),
        ("build-seqs", "--mode", "conditioned", "--vocab", "v", "--out", "o", "--max-len", "9"),
        ("fit-gnb", "--features", "f", "--out-dir", "o", "--holdout-fraction", "0.5"),
        ("sample", "--checkpoint", "c", "--vocab", "v", "--skylines", "s", "--profiles", "p",
         "--out-dir", "o", "--top-k", "3"),
        ("evaluate", "--runs", "r", "--original-posteriors", "p", "--variation-posteriors", "p",
         "--original-embeddings", "e", "--variation-embeddings", "e", "--out-dir", "o",
         "--group-by", "genre"),
    ], ids=["parse", "no-level-tokens", "max-len", "holdout-fraction", "top-k", "group-by"])
    def test_removed_options_are_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_removed_options_are_gone_from_help(self, capsys):
        for argv in ([], ["build-seqs"], ["fit-gnb"], ["sample"], ["evaluate"]):
            with pytest.raises(SystemExit):
                main([*argv, "--help"])
        helps = capsys.readouterr().out
        for removed in ("parse", "--no-level-tokens", "--max-len", "--holdout-fraction",
                        "--top-k", "--group-by"):
            assert removed not in helps

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


# stage -> (argv run inside the ws fixture, the file whose last row loses a
# field and is passed as BAD, that field)
LOCATED_ROW_ERRORS = {
    "fit-gnb": (("fit-gnb", "--features", "BAD", "--out-dir", "OUT"),
                "feat.jsonl", "features"),
    "classify": (("classify", "--model", "gnb/model.json", "--features", "BAD",
                  "--out", "OUT"), "feat.jsonl", "features"),
    "mine-pairs": (("mine-pairs", "--variations", "vars/variations.jsonl",
                    "--posteriors", "BAD", "--embeddings", "vars/varemb.jsonl",
                    "--out-dir", "OUT"), "vars/varpost.jsonl", "confidence"),
    "build-seqs conditioned": (("build-seqs", "--mode", "conditioned", "--vocab",
                                "enc/vocab.txt", "--tokens", "sky.jsonl", "--profiles", "BAD",
                                "--out", "OUT"), "prof.jsonl", "profile"),
    "build-seqs adaptation": (("build-seqs", "--mode", "adaptation", "--vocab",
                               "enc/vocab.txt", "--pairs", "EMPTY", "--variations", "BAD",
                               "--out", "OUT"), "vars/variations.jsonl", "tokens"),
    "sample": (("sample", "--checkpoint", "CK", "--vocab", "enc/vocab.txt",
                "--skylines", "sky.jsonl", "--profiles", "BAD", "--out-dir", "OUT"),
               "prof.jsonl", "profile"),
    "evaluate": (("evaluate", "--runs", "OUT", "--original-posteriors", "post.jsonl",
                  "--variation-posteriors", "BAD", "--original-embeddings", "emb.jsonl",
                  "--variation-embeddings", "emb.jsonl", "--out-dir", "OUT"),
                 "post.jsonl", "level"),
    "lmx decode": (("lmx", "decode", "--tokens", "BAD", "--out-dir", "OUT"),
                   "enc/tokens.jsonl", "tokens"),
}


MINE_VARIATIONS = ("mine-pairs", "--variations", "BAD", "--posteriors", "vars/varpost.jsonl",
                   "--embeddings", "vars/varemb.jsonl", "--out-dir", "OUT")


# stage -> (argv as above, the file whose last row gets a wrong value in one
# field, that field, the value, what the field must be); one case per kind of
# field at least
MISTYPED_ROW_ERRORS = {
    "fit-gnb": (LOCATED_ROW_ERRORS["fit-gnb"][0], "feat.jsonl", "features", "x",
                "a list of finite numbers"),
    "classify": (LOCATED_ROW_ERRORS["classify"][0], "feat.jsonl", "features",
                 [1.0, "2"], "a list of finite numbers"),
    "classify non-finite": (LOCATED_ROW_ERRORS["classify"][0], "feat.jsonl", "features",
                            [1.0, float("nan")], "a list of finite numbers"),
    "classify beyond float": (LOCATED_ROW_ERRORS["classify"][0], "feat.jsonl", "features",
                              [10 ** 400], "a list of finite numbers"),
    "build-seqs conditioned": (("build-seqs", "--mode", "conditioned", "--vocab",
                                "enc/vocab.txt", "--tokens", "BAD", "--profiles",
                                "prof.jsonl", "--out", "OUT"),
                               "sky.jsonl", "tokens", ["C4", 1], "a list of strings"),
    "build-seqs adaptation": (LOCATED_ROW_ERRORS["build-seqs adaptation"][0],
                              "vars/variations.jsonl", "tokens", "C4", "a list of strings"),
    "build-seqs perturbed": (LOCATED_ROW_ERRORS["build-seqs conditioned"][0], "prof.jsonl",
                             "perturbed", [True], "a list of finite numbers"),
    "sample skylines": (("sample", "--checkpoint", "CK", "--vocab", "enc/vocab.txt",
                         "--skylines", "BAD", "--profiles", "prof.jsonl", "--out-dir", "OUT"),
                        "sky.jsonl", "tokens", {"C4": 1}, "a list of strings"),
    "sample profiles": (LOCATED_ROW_ERRORS["sample"][0], "prof.jsonl", "profile", None,
                        "a list of finite numbers"),
    "lmx decode": (LOCATED_ROW_ERRORS["lmx decode"][0], "enc/tokens.jsonl", "tokens", 3,
                   "a list of strings"),
    "mine-pairs level": (LOCATED_ROW_ERRORS["mine-pairs"][0], "vars/varpost.jsonl", "level",
                         "x", "an integer"),
    "mine-pairs confidence": (LOCATED_ROW_ERRORS["mine-pairs"][0], "vars/varpost.jsonl",
                              "confidence", "0.5", "a finite number"),
    "mine-pairs valid": (MINE_VARIATIONS, "vars/variations.jsonl", "valid", "no",
                         "true or false"),
    "mine-pairs var": (MINE_VARIATIONS, "vars/variations.jsonl", "var", ["p.v0"], "a string"),
    "mine-pairs same_as": (MINE_VARIATIONS, "vars/variations.jsonl", "same_as", 0, "a string"),
    "fit-gnb piece": (LOCATED_ROW_ERRORS["fit-gnb"][0], "feat.jsonl", "piece", 3, "a string"),
}


def _fail_on_last_row(ws, trained, tmp_path, monkeypatch, capsys, argv, source, change):
    """Run ``argv`` in ``ws`` with ``change`` made to the last row of ``source``.

    Returns the stage's error payload and the path of the changed file and
    its row count.
    """
    rows = read_jsonl(ws / source)
    change(rows[-1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    (tmp_path / "empty.jsonl").write_text("")
    names = {"BAD": bad, "EMPTY": tmp_path / "empty.jsonl", "OUT": tmp_path / "out",
             "CK": trained / "ck" / "checkpoint.npz"}
    monkeypatch.chdir(ws)
    assert main([str(names.get(a, a)) for a in argv]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "CliError"
    return payload["message"], f"{bad}:{len(rows)}"


@pytest.mark.parametrize("case", LOCATED_ROW_ERRORS.values(), ids=LOCATED_ROW_ERRORS.keys())
def test_row_missing_a_field_is_a_located_cli_error(ws, synthetic_variations, trained,
                                                    tmp_path, monkeypatch, capsys, case):
    argv, source, field = case
    message, where = _fail_on_last_row(ws, trained, tmp_path, monkeypatch, capsys, argv,
                                       source, lambda row: row.pop(field))
    assert message == f"{where}: missing field {field!r}"


@pytest.mark.parametrize("case", MISTYPED_ROW_ERRORS.values(), ids=MISTYPED_ROW_ERRORS.keys())
def test_row_with_a_mistyped_field_is_a_located_cli_error(ws, synthetic_variations, trained,
                                                          tmp_path, monkeypatch, capsys, case):
    argv, source, field, value, kind = case
    message, where = _fail_on_last_row(ws, trained, tmp_path, monkeypatch, capsys, argv,
                                       source, lambda row: row.update({field: value}))
    assert message == f"{where}: field {field!r} must be {kind}"


@pytest.mark.parametrize("name", ["itself", "another piece's", "a later"])
def test_same_as_naming_no_earlier_variation_of_its_piece_is_refused(
        ws, synthetic_variations, trained, tmp_path, monkeypatch, capsys, name):
    rows = read_jsonl(synthetic_variations / "variations.jsonl")
    last = rows[-1]
    target = {"itself": last["var"], "another piece's": rows[0]["var"],
              "a later": last["piece"] + ".v999"}[name]
    message, where = _fail_on_last_row(ws, trained, tmp_path, monkeypatch, capsys,
                                       MINE_VARIATIONS, "vars/variations.jsonl",
                                       lambda row: row.update(same_as=target))
    assert message == (f"{where}: same_as {target!r} names no earlier variation of "
                       f"piece {last['piece']!r}")


# stage -> (argv as above, the keyed file whose last row takes the first row's
# key, that key)
REPEATED_KEY_ERRORS = {
    "fit-gnb labels": (("fit-gnb", "--features", "feat.jsonl", "--labels", "BAD",
                        "--out-dir", "OUT"), "gnb/labels.jsonl", "piece"),
    "mine-pairs posteriors": (LOCATED_ROW_ERRORS["mine-pairs"][0], "vars/varpost.jsonl",
                              "piece"),
    "build-seqs profiles": (LOCATED_ROW_ERRORS["build-seqs conditioned"][0], "prof.jsonl",
                            "piece"),
    "build-seqs variations": (LOCATED_ROW_ERRORS["build-seqs adaptation"][0],
                              "vars/variations.jsonl", "var"),
    "sample profiles": (LOCATED_ROW_ERRORS["sample"][0] + ("--n", "1", "--max-new", "4"),
                        "prof.jsonl", "piece"),
    "evaluate original": (("evaluate", "--runs", "OUT", "--original-posteriors", "BAD",
                           "--variation-posteriors", "post.jsonl", "--original-embeddings",
                           "emb.jsonl", "--variation-embeddings", "emb.jsonl", "--out-dir",
                           "OUT"), "post.jsonl", "piece"),
    "evaluate variation": (LOCATED_ROW_ERRORS["evaluate"][0], "post.jsonl", "piece"),
}


@pytest.mark.parametrize("case", REPEATED_KEY_ERRORS.values(), ids=REPEATED_KEY_ERRORS.keys())
def test_repeated_key_is_a_located_cli_error(ws, synthetic_variations, trained, tmp_path,
                                             monkeypatch, capsys, case):
    argv, source, key = case
    first = read_jsonl(ws / source)[0][key]
    message, where = _fail_on_last_row(ws, trained, tmp_path, monkeypatch, capsys, argv,
                                       source, lambda row: row.update({key: first}))
    assert message == f"{where}: duplicate {key} {first!r}"


def test_zero_embedding_of_a_dropped_variation_is_located(ws, synthetic_variations, tmp_path,
                                                          capsys):
    # the least confident variation falls to the confidence cut, so mining
    # never scores it; the reader refuses its zero vector all the same
    least = min(read_jsonl(synthetic_variations / "varpost.jsonl"),
                key=lambda r: r["confidence"])["piece"]
    rows = read_jsonl(synthetic_variations / "varemb.jsonl")
    line = next(n for n, r in enumerate(rows, start=1) if r["id"] == least)
    rows[line - 1]["v"] = [0.0] * rows[line - 1]["dim"]
    embeddings = tmp_path / "emb.jsonl"
    embeddings.write_text("".join(json.dumps(r) + "\n" for r in rows))
    payload = failure(capsys, "mine-pairs",
                      "--variations", str(synthetic_variations / "variations.jsonl"),
                      "--posteriors", str(synthetic_variations / "varpost.jsonl"),
                      "--embeddings", str(embeddings), "--strategy", "filtered",
                      "--out-dir", str(tmp_path / "out"))
    assert payload == {"error": "StyleError",
                       "message": f"{embeddings}:{line}: 'v' of {least!r} has zero norm"}


def test_features_no_level_can_score_are_a_located_cli_error(ws, trained, tmp_path,
                                                             monkeypatch, capsys):
    # finite, but far enough out that every level's log-likelihood overflows
    argv, source, _ = LOCATED_ROW_ERRORS["classify"]
    message, where = _fail_on_last_row(ws, trained, tmp_path, monkeypatch, capsys, argv,
                                       source, lambda row: row["features"].__setitem__(3, 1e155))
    line = int(where.rsplit(":", 1)[1])
    assert message == (f"{where}: feature row {line - 1} has a finite log-likelihood "
                       "under no level")


@pytest.mark.parametrize("table", ["original", "variation"])
def test_pair_without_an_embedding_is_a_cli_error(ws, synthetic_variations, tmp_path,
                                                  capsys, table):
    run("mine-pairs", "--variations", str(synthetic_variations / "variations.jsonl"),
        "--posteriors", str(synthetic_variations / "varpost.jsonl"),
        "--embeddings", str(synthetic_variations / "varemb.jsonl"),
        "--strategy", "random", "--min-gap", "1", "--out-dir", str(tmp_path / "mined"))
    first = read_jsonl(tmp_path / "mined" / "pairs.jsonl")[0]
    missing = first["piece"] if table == "original" else first["easy"]
    source = ws / "emb.jsonl" if table == "original" else synthetic_variations / "varemb.jsonl"
    embeddings = tmp_path / "emb.jsonl"
    embeddings.write_text("".join(json.dumps(r) + "\n" for r in read_jsonl(source)
                                  if r["id"] != missing))
    tables = {"original": str(ws / "emb.jsonl"),
              "variation": str(synthetic_variations / "varemb.jsonl")}
    tables[table] = str(embeddings)
    rc = main(["evaluate", "--runs", str(tmp_path / "mined"),
               "--original-posteriors", str(ws / "post.jsonl"),
               "--variation-posteriors", str(synthetic_variations / "varpost.jsonl"),
               "--original-embeddings", tables["original"],
               "--variation-embeddings", tables["variation"],
               "--out-dir", str(tmp_path / "eval")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "CliError",
                       "message": f"no {table} embedding for {missing}"}


def test_row_that_is_not_an_object_is_a_cli_error(ws, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text((ws / "feat.jsonl").read_text() + "[1, 2]\n")
    assert main(["fit-gnb", "--features", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "CliError"
    assert payload["message"].startswith(f"{bad}:7: ")


def test_manifest_inputs_are_the_paths_passed(ws, synthetic_variations, trained, tmp_path):
    """Every manifest-writing stage digests exactly the input paths it was given."""
    corpus, vocab = str(ws / "corpus"), str(ws / "enc" / "vocab.txt")
    variations = str(synthetic_variations / "variations.jsonl")
    varpost, varemb = (str(synthetic_variations / n) for n in ("varpost.jsonl", "varemb.jsonl"))
    mined = str(tmp_path / "mined")
    evaluate = ("evaluate", "--runs", mined, "--original-posteriors", str(ws / "post.jsonl"),
                "--variation-posteriors", varpost, "--original-embeddings",
                str(ws / "emb.jsonl"), "--variation-embeddings", varemb)
    # (argv with OUT for its output, the manifest under OUT, the argv values that are inputs)
    cases = [
        (("gen-fixtures", "--out", "OUT", "--pieces", "2"), "manifest.json", []),
        (("lmx", "encode", "--corpus", corpus, "--out-dir", "OUT"), "manifest.json", [corpus]),
        (("lmx", "decode", "--tokens", str(ws / "enc" / "tokens.jsonl"), "--out-dir", "OUT"),
         "manifest.json", [str(ws / "enc" / "tokens.jsonl")]),
        (("skyline", "--corpus", corpus, "--out", "OUT/o.jsonl"), "o.jsonl.manifest.json",
         [corpus]),
        (("profile", "--corpus", corpus, "--out", "OUT/o.jsonl"), "o.jsonl.manifest.json",
         [corpus]),
        (("features", "--corpus", corpus, "--out", "OUT/o.jsonl"), "o.jsonl.manifest.json",
         [corpus]),
        (("fit-gnb", "--features", str(ws / "feat.jsonl"), "--out-dir", "OUT"),
         "manifest.json", [str(ws / "feat.jsonl")]),
        (("fit-gnb", "--features", str(ws / "feat.jsonl"),
          "--labels", str(ws / "gnb" / "labels.jsonl"), "--out-dir", "OUT"),
         "manifest.json", [str(ws / "feat.jsonl"), str(ws / "gnb" / "labels.jsonl")]),
        (("classify", "--model", str(ws / "gnb" / "model.json"),
          "--features", str(ws / "feat.jsonl"), "--out", "OUT/o.jsonl"),
         "o.jsonl.manifest.json", [str(ws / "gnb" / "model.json"), str(ws / "feat.jsonl")]),
        (("embed", "--corpus", corpus, "--out", "OUT/o.jsonl"), "o.jsonl.manifest.json",
         [corpus]),
        (("mine-pairs", "--variations", variations, "--posteriors", varpost,
          "--embeddings", varemb, "--out-dir", mined), None, [variations, varpost, varemb]),
        (("build-seqs", "--mode", "conditioned", "--vocab", vocab,
          "--tokens", str(ws / "sky.jsonl"), "--profiles", str(ws / "prof.jsonl"),
          "--out", "OUT/o.npz"), "o.npz.manifest.json",
         [vocab, str(ws / "sky.jsonl"), str(ws / "prof.jsonl")]),
        (("build-seqs", "--mode", "adaptation", "--vocab", vocab,
          "--pairs", f"{mined}/pairs.jsonl", "--variations", variations,
          "--out", "OUT/o.npz"), "o.npz.manifest.json",
         [vocab, f"{mined}/pairs.jsonl", variations]),
        (("train", "--seqs", str(trained / "cond.npz"), "--vocab", vocab, "--out-dir", "OUT",
          "--steps", "1", "--d-model", "16", "--n-layers", "1", "--n-heads", "2",
          "--d-ff", "32"), "manifest.json", [str(trained / "cond.npz"), vocab]),
        (("sample", "--checkpoint", str(trained / "ck" / "checkpoint.npz"), "--vocab", vocab,
          "--skylines", str(ws / "sky.jsonl"), "--profiles", str(ws / "prof.jsonl"),
          "--out-dir", "OUT", "--n", "1", "--max-new", "8"), "manifest.json",
         [str(trained / "ck" / "checkpoint.npz"), vocab, str(ws / "sky.jsonl"),
          str(ws / "prof.jsonl")]),
        (evaluate + ("--out-dir", "OUT"), "manifest.json", [mined, *evaluate[4::2]]),
        (evaluate + ("--corpus", corpus, "--out-dir", "OUT"), "manifest.json",
         [mined, *evaluate[4::2], corpus]),
    ]
    commands = set()
    for k, (argv, manifest, inputs) in enumerate(cases):
        out = tmp_path / f"out{k}"
        run(*(a.replace("OUT", str(out)) for a in argv))
        where = Path(mined) / "manifest.json" if manifest is None else out / manifest
        recorded = json.loads(where.read_text())
        commands.add(recorded["command"])
        assert sorted(recorded["inputs"]) == sorted(inputs), argv
        for path, digest in recorded["inputs"].items():
            prefix = "dir:" if Path(path).is_dir() else ""
            assert digest.startswith(prefix) and len(digest) == len(prefix) + 64, path
    assert len(commands) == 14
    assert recorded["inputs"][mined].startswith("dir:")

    (tmp_path / "empty.jsonl").write_text("")
    failed = tmp_path / "failed" / "o.npz"
    assert main(["build-seqs", "--mode", "adaptation", "--vocab", vocab,
                 "--pairs", str(tmp_path / "empty.jsonl"), "--variations", variations,
                 "--out", str(failed)]) == 1
    assert not failed.with_name("o.npz.manifest.json").exists()


def test_directory_digest_is_the_same_in_two_workspaces(tmp_path):
    # the corpus manifest records each workspace's own --out path
    digests = []
    for name in ("one", "two"):
        corpus, sky = tmp_path / name / "corpus", tmp_path / name / "sky.jsonl"
        run("gen-fixtures", "--out", str(corpus), "--pieces", "2")
        run("skyline", "--corpus", str(corpus), "--out", str(sky))
        manifest = json.loads(sky.with_name("sky.jsonl.manifest.json").read_text())
        digests.append(manifest["inputs"][str(corpus)])
    assert digests[0].startswith("dir:") and digests[0] == digests[1]


ONE_NOTE_SCORE = """<score-partwise><part-list/><part id="P1"><measure number="1">
  <attributes><divisions>1</divisions><staves>2</staves>
    <time><beats>{beats}</beats><beat-type>{beat_type}</beat-type></time></attributes>
  <note><pitch><step>C</step>{alter}<octave>4</octave></pitch>
    <duration>{duration}</duration><voice>1</voice><staff>1</staff></note>
</measure></part></score-partwise>"""


@pytest.mark.parametrize("values, kind", [
    ({"duration": "1e400"}, "OverflowError"),
    ({"alter": "<alter>1e400</alter>"}, "OverflowError"),
    ({"beat_type": "0"}, "ValueError"),
    ({"beats": "-3"}, "ValueError"),
], ids=["duration-1e400", "alter-1e400", "beat-type-zero", "beats-negative"])
def test_unreadable_number_in_a_score_is_a_parse_error(tmp_path, capsys, values, kind):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    fields = {"beats": "4", "beat_type": "4", "alter": "", "duration": "4", **values}
    (corpus / "bad.musicxml").write_text(ONE_NOTE_SCORE.format(**fields))
    payload = failure(capsys, "features", "--corpus", str(corpus),
                      "--out", str(tmp_path / "feat.jsonl"))
    assert payload["error"] == "MusicXmlParseError"
    assert payload["message"].startswith(
        f"{corpus / 'bad.musicxml'}: measure 1: malformed value ({kind}: ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_parse_error_names_its_corpus_file(tmp_path, capsys, jobs):
    corpus = tmp_path / "corpus"
    run("gen-fixtures", "--out", str(corpus), "--pieces", "2")
    bad = corpus / "off-grid.musicxml"
    bad.write_text(ONE_NOTE_SCORE.replace("<divisions>1<", "<divisions>7<").format(
        beats="4", beat_type="4", alter="", duration="1"))
    payload = failure(capsys, "features", "--corpus", str(corpus), "--jobs", jobs,
                      "--out", str(tmp_path / "feat.jsonl"))
    assert payload == {"error": "MusicXmlParseError", "message": (
        f"{bad}: measure 1: 1 of 7 divisions is off the 1/960-quarter grid")}


@pytest.mark.parametrize("time", ["time:4/0", "time:4/" + "9" * 5000],
                         ids=["beat-type-zero", "5000-digit-beat-type"])
def test_unreadable_time_token_is_a_located_cli_error(tmp_path, capsys, time):
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text(json.dumps({"piece": "p", "tokens": ["measure", time]}) + "\n")
    payload = failure(capsys, "lmx", "decode", "--tokens", str(tokens),
                      "--out-dir", str(tmp_path / "out"))
    assert payload["error"] == "CliError"
    assert payload["message"].startswith(f"{tokens}:1: token 1: bad time signature ")

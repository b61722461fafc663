"""Command-line pipeline tests: artifact shapes, manifests, error contract."""

import json
from pathlib import Path

import numpy as np
import pytest

from gradus import style
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


class TestParse:
    def test_summarizes_scores(self, ws, tmp_path, capsys):
        files = sorted(str(p) for p in (ws / "corpus").glob("*.musicxml"))
        out = tmp_path / "summary.jsonl"
        run("parse", *files, "--out", str(out))
        rows = read_jsonl(out)
        assert len(rows) == 6
        for row in rows:
            assert row["measures"] >= 1
            assert row["notes"] > 0
            assert row["genre"]
            assert "/" not in row["piece"]

    def test_bad_file_fails_with_json_error(self, tmp_path, capsys):
        bad = tmp_path / "junk.musicxml"
        bad.write_text("<not-music/>")
        rc = main(["parse", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err.splitlines()[-1])
        assert "error" in payload and "message" in payload


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

    def test_holdout_levels_absent_from_training(self, tmp_path, capsys):
        out = self.fit(tmp_path, capsys, self.levels_with_twos_at([0, 1]))
        assert out == ("fitted on 9 pieces, temperature 1.000 "
                       "(not calibrated: holdout has levels absent from training)")


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


class TestTrainSample:
    def test_train_artifacts(self, trained):
        assert (trained / "ck" / "checkpoint.npz").exists()
        log = (trained / "ck" / "train_log.csv").read_text().splitlines()
        assert log[0] == "step,loss"
        assert len(log) >= 2
        step, loss = log[-1].split(",")
        assert int(step) == 3
        assert float(loss) > 0

    def test_sample_artifacts(self, ws, trained):
        out = trained / "samples"
        run("sample", "--checkpoint", str(trained / "ck" / "checkpoint.npz"),
            "--vocab", str(ws / "enc" / "vocab.txt"),
            "--skylines", str(ws / "sky.jsonl"),
            "--profiles", str(ws / "prof.jsonl"),
            "--out-dir", str(out), "--n", "2", "--max-new", "30",
            "--seed", "9")
        rows = read_jsonl(out / "variations.jsonl")
        assert len(rows) == 12    # 6 pieces x 2 draws
        for row in rows:
            assert row["var"].startswith(row["piece"] + ".v")
            if row["valid"]:
                assert (out / "scores" / f"{row['var']}.musicxml").exists()


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
        plain = manifest_after(where, *seqs)
        flagged = manifest_after(where, *seqs, "--no-level-tokens")
        assert plain != flagged
        assert (plain["args"]["no_level_tokens"], flagged["args"]["no_level_tokens"]) == \
            (False, True)

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


# stage -> (argv as above, the file whose last row gets a wrong value in one
# field, that field, the value, what the field must be)
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

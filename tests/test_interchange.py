"""Golden bytes of the files the pipeline stages hand each other.

Each artifact is written from tiny fixed inputs and compared byte for
byte, so any change to the interchange format fails here, not only in
the benchmark's artifact hash.
"""

import hashlib
import re

import numpy as np
import pytest

from gradus import __version__, gnb, interchange, lmx, mining, model, report, style
from gradus.cli import main


@pytest.fixture
def cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_manifest(cwd):
    (cwd / "t.jsonl").write_text("")
    assert main(["lmx", "decode", "--tokens", "t.jsonl", "--out-dir", "dec"]) == 0
    assert (cwd / "dec" / "manifest.json").read_bytes() == (
        b'{\n "args": {\n  "out_dir": "dec",\n  "tokens": "t.jsonl"\n },\n'
        b' "command": "lmx decode",\n "inputs": {\n'
        b'  "t.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"\n'
        b' },\n "seed": null,\n "version": "' + __version__.encode() + b'"\n}\n')


def test_gnb_model(cwd):
    log_prior = np.full(9, -np.inf)
    log_prior[[0, 3]] = [-0.5, -1.5]
    fitted = gnb.GaussianNB(log_prior=log_prior, mean=np.arange(108.0).reshape(9, 12) / 4,
                            var=np.full((9, 12), 0.5), temperature=2.5)
    gnb.save_model(fitted, "model.json")
    data = (cwd / "model.json").read_bytes()
    # 2218 bytes: one line per entry of the 9x12 mean and variance tables
    assert data.startswith(b'{\n "format": "gnb-v1",\n "levels": [\n  1,\n  2,\n')
    assert b' "log_prior": [\n  -0.5,\n  null,\n  null,\n  -1.5,\n  null,\n' in data
    assert data.endswith(b'  ]\n ]\n}\n')
    assert hashlib.sha256(data).hexdigest() == \
        "ed5f22830b7c2bc211b87c17c62fa65ca76f19076a87991a0b54960a29fe8163"


def test_mining_report(cwd):
    rep = mining.MiningReport(
        strategy="filtered", min_gap=2,
        counts={"raw": 3, "after_confidence": 2, "after_similarity": 1},
        mean_distance=0.25, mean_distance_by_gap={3: 0.125, 2: 0.375})
    mining.save_report("report.json", rep)
    assert (cwd / "report.json").read_bytes() == (
        b'{\n "counts": {\n  "after_confidence": 2,\n  "after_similarity": 1,\n  "raw": 3\n },\n'
        b' "mean_distance": 0.25,\n "mean_distance_by_gap": {\n  "2": 0.375,\n  "3": 0.125\n },\n'
        b' "min_gap": 2,\n "strategy": "filtered"\n}\n')


def test_pairs(cwd):
    mining.save_pairs("pairs.jsonl", [mining.Pair("q", "q.v1", "q.v0", 4, 2, 2, 0.5),
                                      mining.Pair("p", "p.v2", "p.v0", 7, 3, 4, -0.125)])
    assert (cwd / "pairs.jsonl").read_bytes() == (
        b'{"piece": "p", "hard": "p.v2", "easy": "p.v0", "hard_level": 7, "easy_level": 3,'
        b' "gap": 4, "sim": -0.125}\n'
        b'{"piece": "q", "hard": "q.v1", "easy": "q.v0", "hard_level": 4, "easy_level": 2,'
        b' "gap": 2, "sim": 0.5}\n')


def test_embeddings(cwd):
    style.save_embeddings("emb.jsonl", {"b": np.array([1.0, 0.0]), "a": np.array([0.6, 0.8])})
    assert (cwd / "emb.jsonl").read_bytes() == (
        b'{"id": "b", "dim": 2, "v": [1.0, 0.0]}\n{"id": "a", "dim": 2, "v": [0.6, 0.8]}\n')


def test_records(cwd):
    report.save_records("records.jsonl", [
        report.OutcomeRecord("p", "p.v0", 5, 3, 0.25, genre="waltz", strategy="random", gap=1),
        report.OutcomeRecord("q", "q.v1", 2, 2, 0.0)])
    assert (cwd / "records.jsonl").read_bytes() == (
        b'{"distance": 0.25, "gap": 1, "genre": "waltz", "original_level": 5,'
        b' "outcome": "easier", "piece": "p", "predicted_level": 3, "strategy": "random",'
        b' "variation": "p.v0"}\n'
        b'{"distance": 0.0, "gap": 0, "genre": "", "original_level": 2,'
        b' "outcome": "similar", "piece": "q", "predicted_level": 2, "strategy": "",'
        b' "variation": "q.v1"}\n')


def test_train_log(cwd, monkeypatch, capsys):
    lmx.Vocabulary([]).save("vocab.txt")
    np.savez("seqs.npz", ids=np.zeros((1, 3), np.int64), mask=np.zeros((1, 3), np.int64),
             harmony=np.zeros((1, 12)), lengths=np.array([3]))
    monkeypatch.setattr(model, "train", lambda *args, **kwargs: [2.5, 1.25, 0.1234567])
    assert main(["train", "--seqs", "seqs.npz", "--vocab", "vocab.txt", "--out-dir", "ck",
                 "--steps", "3", "--d-model", "8", "--n-layers", "1", "--n-heads", "2",
                 "--d-ff", "8"]) == 0
    assert (cwd / "ck" / "train_log.csv").read_bytes() == \
        b'step,loss\n1,2.500000\n2,1.250000\n3,0.123457\n'
    assert capsys.readouterr().out == "trained 3 steps, final loss 0.1235\n"


class Boom(Exception):
    pass


@pytest.mark.parametrize("line", [b"[1, 2]", b'"x"', b"3", b"{", b'{"a": 1', b'{"a": "\xff"}'])
def test_jsonl_line_not_an_object_raises_the_callers_error(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n\n' + line + b"\n")
    with pytest.raises(Boom, match=r"rows\.jsonl:3: "):
        list(interchange.read_jsonl(path, Boom))


@pytest.mark.parametrize("read", [lambda path: list(interchange.read_jsonl(path, Boom)),
                                  lambda path: interchange.read_json(path, Boom)],
                         ids=["jsonl", "json"])
def test_file_that_cannot_be_opened_raises_the_callers_error(tmp_path, read):
    missing = tmp_path / "nope.json"
    with pytest.raises(Boom, match=f"^{re.escape(str(missing))}: cannot read "
                                   r"\(FileNotFoundError: No such file or directory\)$"):
        read(missing)
    with pytest.raises(Boom, match=f"^{re.escape(str(tmp_path))}: cannot read "
                                   r"\(IsADirectoryError: Is a directory\)$"):
        read(tmp_path)


def test_jsonl_rows_round_trip_skipping_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    interchange.write_jsonl(path, [{"a": 1}, {"b": [1.5, None]}])
    path.write_text(path.read_text() + "\n  \n")
    assert list(interchange.read_jsonl(path, Boom)) == [
        (f"{path}:1", {"a": 1}), (f"{path}:2", {"b": [1.5, None]})]


def test_npz_is_written_at_exactly_its_path_in_member_order(tmp_path):
    path = tmp_path / "arrays.bin"
    interchange.write_npz(path, {"b": np.arange(3), "meta": {"z": 1, "a": [2]},
                                 "a": np.zeros((2, 2))})
    assert [p.name for p in tmp_path.iterdir()] == ["arrays.bin"]
    with np.load(path, allow_pickle=False) as data:
        assert data.files == ["b", "meta", "a"]
        assert data["meta"].dtype == np.uint8
        assert data["meta"].tobytes() == b'{"a": [2], "z": 1}'


def test_npz_bytes_are_those_of_savez(tmp_path):
    members = {"ids": np.arange(6).reshape(2, 3), "pieces": ["p", "q"]}
    interchange.write_npz(tmp_path / "seqs.npz", members)
    np.savez(tmp_path / "ref.npz", ids=members["ids"],
             pieces=np.frombuffer(b'["p", "q"]', dtype=np.uint8))
    assert (tmp_path / "seqs.npz").read_bytes() == (tmp_path / "ref.npz").read_bytes()


def test_npz_round_trip_decodes_declared_json(tmp_path):
    path = tmp_path / "f.npz"
    interchange.write_npz(path, {"meta": {"k": [1, "x"]}, "x": np.ones(3, np.float32)})
    members = interchange.read_npz(path, Boom, "thing", {"meta": dict, "x": ("f", 1)})
    assert members["meta"] == {"k": [1, "x"]}
    assert members["x"].dtype == np.float32 and members["x"].tolist() == [1.0, 1.0, 1.0]


DECLARED = {"ids": ("iu", 2), "meta": dict}


def _npz_error(path):
    with pytest.raises(Boom) as exc:
        interchange.read_npz(path, Boom, "thing", DECLARED)
    return str(exc.value)


@pytest.mark.parametrize("members, message", [
    ({"meta": {}}, "{path}: thing has no 'ids' array"),
    ({"ids": np.zeros((2, 2), np.int64)}, "{path}: thing has no 'meta' array"),
    ({"ids": np.zeros((2, 2)), "meta": {}},
     "{path}: thing array 'ids' must be 2-d of dtype kind 'iu', got 2-d float64"),
    ({"ids": np.zeros(4, np.int64), "meta": {}},
     "{path}: thing array 'ids' must be 2-d of dtype kind 'iu', got 1-d int64"),
    ({"ids": np.zeros((1, 1), np.int8), "meta": np.zeros(2)},
     "{path}: thing array 'meta' must be 1-d of dtype kind 'u', got 1-d float64"),
    ({"ids": np.zeros((1, 1), np.int8), "meta": [1]},
     "{path} meta: expected a JSON object, got list"),
    ({"ids": np.zeros((1, 1), np.int8), "meta": np.frombuffer(b"\xff{}", np.uint8)},
     "{path} meta: bad JSON: 'utf-8' codec can't decode byte 0xff"),
])
def test_npz_member_faults_raise_the_callers_error(tmp_path, members, message):
    path = tmp_path / "f.npz"
    interchange.write_npz(path, members)
    assert _npz_error(path).startswith(message.format(path=path))


def test_npz_that_is_not_an_archive_raises_the_callers_error(tmp_path):
    npy, text, cut, pickled = (tmp_path / name for name in ("a.npy", "a.txt", "cut.npz", "p.npz"))
    np.save(npy, np.zeros((2, 2), np.int64))
    text.write_text('{"a": 1}\n')
    interchange.write_npz(cut, {"ids": np.zeros((4, 4), np.int64), "meta": {}})
    cut.write_bytes(cut.read_bytes()[:100])
    np.savez(pickled, ids=np.array([[{"x": 1}]], dtype=object), meta=np.zeros(0, np.uint8))
    assert _npz_error(npy) == (
        f"{npy}: not a thing (ValueError: a single .npy array, not an npz archive)")
    assert _npz_error(text).startswith(f"{text}: not a thing (ValueError: ")
    assert _npz_error(cut).startswith(f"{cut}: not a thing (BadZipFile: ")
    assert _npz_error(pickled).startswith(f"{pickled}: not a thing (ValueError: ")
    assert _npz_error(tmp_path / "none.npz").startswith(
        f"{tmp_path / 'none.npz'}: not a thing (FileNotFoundError: ")

"""Fuzz the binary and vocabulary inputs of ``train`` and ``sample``.

Each example mutates one input of a small trained pipeline: a member of
the sequence file or the checkpoint is dropped, retyped, reshaped,
shifted or pickled; the file is truncated or replaced by an ``.npy``; a
checkpoint meta field is removed or given another JSON value, or the
meta is not UTF-8; a vocabulary line is dropped or duplicated, or bytes
that are not UTF-8 are put in.  The stage must then exit 0, or exit 1
with one of gradus' own error classes: never a bare ``KeyError``,
``TypeError``, ``ValueError``, ``AttributeError`` or ``BadZipFile``.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradus
from gradus.cli import main

GRADUS_ERRORS = {
    name
    for info in pkgutil.iter_modules(gradus.__path__)
    for name, obj in vars(importlib.import_module(f"gradus.{info.name}")).items()
    if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__.startswith("gradus.")
}

TRAIN = ("--steps", "1", "--d-model", "8", "--n-layers", "1", "--n-heads", "2",
         "--d-ff", "8", "--context", "64", "--seed", "1")


def run(*argv):
    """``(exit code, error class or None)`` of one gradus command, its output swallowed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    lines = err.getvalue().strip().splitlines()
    return rc, json.loads(lines[-1])["error"] if rc and lines else None


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("npzfuzz")
    corpus, enc, sky, prof, seqs = (str(root / name) for name in (
        "corpus", "enc", "sky.jsonl", "prof.jsonl", "seqs.npz"))
    vocab = str(root / "enc" / "vocab.txt")
    for argv in [
            ("gen-fixtures", "--out", corpus, "--pieces", "2", "--seed", "5"),
            ("lmx", "encode", "--corpus", corpus, "--out-dir", enc),
            ("skyline", "--corpus", corpus, "--out", sky),
            ("profile", "--corpus", corpus, "--out", prof),
            ("build-seqs", "--mode", "conditioned", "--vocab", vocab, "--tokens", sky,
             "--profiles", prof, "--out", seqs),
            ("train", "--seqs", seqs, "--vocab", vocab, "--out-dir", str(root / "ck"), *TRAIN)]:
        assert run(*argv) == (0, None), argv
    return root


def npz_members(path):
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


JSON_VALUES = st.sampled_from([None, True, "x", "2", -1, 0, 1, 3, 2.5, 1e300, 10 ** 30,
                               [], [0.9], [0.9, 0.95], {}, {"a": 1}])
DTYPES = st.sampled_from([np.float64, np.float32, np.int8, np.int64, np.uint8, np.bool_,
                          np.complex128, "U3"])


@st.composite
def array_mutation(draw, arrays):
    """A copy of ``arrays`` with one member dropped, retyped, reshaped,
    shifted or pickled."""
    arrays = dict(arrays)
    name = draw(st.sampled_from(sorted(arrays)))
    arr = arrays[name]
    op = draw(st.sampled_from(["drop", "retype", "reshape", "shift", "pickle"]))
    if op == "drop":
        del arrays[name]
    elif op == "retype":
        arrays[name] = arr.astype(draw(DTYPES))
    elif op == "reshape":
        k = draw(st.integers(0, 3))
        arrays[name] = draw(st.sampled_from([
            arr.ravel(), arr[None], arr.T, arr[:k], arr[..., :k], np.zeros((0,) * arr.ndim)]))
    elif op == "shift":
        arrays[name] = arr + np.int64(draw(st.sampled_from([-1000, -1, 1, 1000])))
    else:
        arrays[name] = np.array([None, {"x": 1}], dtype=object)
    return arrays


@st.composite
def meta_mutation(draw, meta):
    """A mutated copy of a checkpoint's meta: a field removed or set to any JSON value."""
    meta = json.loads(json.dumps(meta))
    keys = [(k,) for k in meta] + [("config", k) for k in meta["config"]]
    *parents, key = draw(st.sampled_from(keys))
    holder = meta
    for parent in parents:
        holder = holder[parent]
    if draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(JSON_VALUES)
    return meta


OPTIMIZER = st.fixed_dictionaries({}, optional={
    "lr": JSON_VALUES | st.just(1e-3), "step_count": JSON_VALUES})


@st.composite
def npz_file(draw, source, is_checkpoint):
    """The bytes of a mutated copy of the npz at ``source``."""
    out = io.BytesIO()
    data = source.read_bytes()
    op = draw(st.sampled_from(["members", "truncate", "npy"]
                              + (["meta", "optimizer", "meta bytes"] if is_checkpoint else [])))
    arrays = npz_members(source)
    if op == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if op == "npy":
        np.save(out, arrays[draw(st.sampled_from(sorted(arrays)))])
        return out.getvalue()
    if op == "members":
        arrays = draw(array_mutation(arrays))
    elif op == "meta bytes":
        arrays["meta"] = np.frombuffer(b"\xff" + arrays["meta"].tobytes(), dtype=np.uint8)
    else:
        meta = json.loads(arrays["meta"].tobytes())
        if op == "meta":
            meta = draw(meta_mutation(meta))
        else:   # an optimizer, with moments the shape of the parameters
            meta["optimizer"] = draw(OPTIMIZER)
            for name in [n for n in arrays if n.startswith("p/")]:
                arrays["m/" + name[2:]] = arrays["v/" + name[2:]] = arrays[name]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(out, **arrays)
    return out.getvalue()


@st.composite
def vocab_file(draw, source):
    lines = source.read_bytes().splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["drop", "duplicate", "not utf-8"]))
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    else:
        bad = draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3("]))
        lines[i] = lines[i][:1] + bad + lines[i][1:]
    return b"".join(lines)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_train_and_sample_exit_0_or_1_with_a_gradus_error(ws, data):
    stage = data.draw(st.sampled_from(["train", "sample"]), label="stage")
    source = ws / "seqs.npz" if stage == "train" else ws / "ck" / "checkpoint.npz"
    seqs_or_ck, vocab = ws / "fuzz" / "input.npz", ws / "fuzz" / "vocab.txt"
    vocab.parent.mkdir(exist_ok=True)
    if data.draw(st.booleans(), label="mutate the vocabulary"):
        seqs_or_ck.write_bytes(source.read_bytes())
        vocab.write_bytes(data.draw(vocab_file(ws / "enc" / "vocab.txt")))
    else:
        seqs_or_ck.write_bytes(data.draw(npz_file(source, stage == "sample")))
        vocab.write_bytes((ws / "enc" / "vocab.txt").read_bytes())
    if stage == "train":
        argv = ("train", "--seqs", str(seqs_or_ck), "--vocab", str(vocab),
                "--out-dir", str(ws / "fuzz" / "out"), *TRAIN)
    else:
        argv = ("sample", "--checkpoint", str(seqs_or_ck), "--vocab", str(vocab),
                "--skylines", str(ws / "sky.jsonl"), "--profiles", str(ws / "prof.jsonl"),
                "--out-dir", str(ws / "fuzz" / "out"), "--n", "1", "--max-new", "4")
    rc, error = run(*argv)
    assert rc == 0 or (rc == 1 and error in GRADUS_ERRORS), (rc, error)

"""The three workloads: inputs, one timed pass, and the output checks.

A pass runs the workload's stages once, from a clean ``out/`` directory
inside the workload's fixed workspace.  Stages go through
``gradus.cli.main(argv)`` in this process, with relative paths and the
workspace as the working directory, so manifests come out the same in any
checkout.  The adaptation workload also calls ``model.sample`` directly,
because the CLI has no stage that continues an adaptation prefix.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import speed
from layers import LayerRecord
from spans import Tracer


@dataclass
class Checks:
    """Output checks; every check is one attempted operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


@dataclass
class Pass:
    """Timings and work counts of one pass.

    ``slowdowns`` samples the machine's speed before and after every timed
    call (see speed.py).
    """

    times: dict[str, float] = field(default_factory=dict)
    slowdowns: list[float] = field(default_factory=list)
    train_tokens: int = 0
    sample_tokens: int = 0
    graded: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""
    base_measures = inputs.BASE_MEASURES
    smoke: dict = {}    # attribute overrides that shrink the workload for --smoke

    def __init__(self, g, seed: int, root: Path, tracer: Tracer, rec: LayerRecord,
                 checks: Checks, smoke: bool = False) -> None:
        if smoke:
            vars(self).update(self.smoke)
        self.g, self.seed = g, seed
        self.ws = root / self.name
        self.tracer, self.rec, self.checks = tracer, rec, checks
        self.digests: list[str] = []

    # -- driving -----------------------------------------------------------

    def setup(self) -> None:
        """Build this workload's inputs under ``in/`` (timed as set-up)."""
        shutil.rmtree(self.ws / "in", ignore_errors=True)
        (self.ws / "in").mkdir(parents=True)
        self.build_inputs()

    def build_inputs(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        out = self.ws / "out"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir()
        p = Pass(slowdowns=[speed.slowdown()])
        cwd = os.getcwd()
        os.chdir(self.ws)
        try:
            self.stages(p)
        finally:
            os.chdir(cwd)
        enabled, self.tracer.enabled = self.tracer.enabled, False
        try:
            self.check_pass(p)
            digest = _digest(out)
            if self.digests:
                self.checks.check(digest == self.digests[0],
                                  f"{self.name}: artifacts differ between passes")
            self.digests.append(digest)
        finally:
            self.tracer.enabled = enabled
        return p

    def timed(self, p: Pass, name: str, fn, *args, **kwargs):
        """Call ``fn`` and add its time to ``p.times[name]``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        p.times[name] = p.times.get(name, 0.0) + time.perf_counter() - start
        p.slowdowns.append(speed.slowdown())
        return result

    def stage(self, p: Pass, name: str, *argv: str) -> None:
        """One CLI stage, timed as ``name``."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.timed(p, name, self.tracer.call, f"cli.{name}", self.g.cli.main,
                            list(argv))
        self.checks.check(rc == 0, f"{self.name}: stage {' '.join(argv[:2])} exited {rc}")

    def stages(self, p: Pass) -> None:
        raise NotImplementedError

    def check_pass(self, p: Pass) -> None:
        raise NotImplementedError

    # -- shared checks -----------------------------------------------------

    def check_features(self, path: Path) -> int:
        rows = _read_jsonl(path)
        for r in rows:
            values = r["features"]
            self.checks.check(len(values) == 12 and all(math.isfinite(v) for v in values),
                              f"{self.name}: bad features for {r['piece']}")
        return len(rows)

    def check_embeddings(self, path: Path) -> None:
        for name, v in self.g.style.load_embeddings(str(path)).items():
            ok = bool(np.isfinite(v).all()) and abs(float(np.linalg.norm(v)) - 1.0) <= 1e-9
            self.checks.check(ok, f"{self.name}: embedding of {name} not finite unit norm")

    def check_generated(self, lengths: list[int]) -> None:
        self.checks.check(self.rec.generated == sum(lengths),
                          f"{self.name}: generated {self.rec.generated} tokens, "
                          f"outputs hold {sum(lengths)}")


# ---------------------------------------------------------------------------

class Demo(Workload):
    """``demos/06_cli_pipeline.sh`` with its arguments, in one process."""

    name = "demo"

    steps, n, max_new = "220", "128", "160"
    smoke = {"steps": "60", "n": "8", "max_new": "96"}

    def build_inputs(self) -> None:
        self.seeds = inputs.demo_seeds(self.seed)

    def stages(self, p: Pass) -> None:
        s = self.stage
        s(p, "gen-fixtures", "gen-fixtures", "--out", "out/corpus", "--pieces", "6",
          "--seed", str(inputs.DEMO_FIXTURE_SEED))
        s(p, "lmx-encode", "lmx", "encode", "--corpus", "out/corpus",
          "--out-dir", "out/enc", "--jobs", "1")
        s(p, "skyline", "skyline", "--corpus", "out/corpus", "--out", "out/sky.jsonl")
        s(p, "profile", "profile", "--corpus", "out/corpus", "--out", "out/prof.jsonl",
          "--noise-scale", "0.15", "--seed", self.seeds["profile"])
        s(p, "build-seqs", "build-seqs", "--mode", "conditioned",
          "--vocab", "out/enc/vocab.txt", "--tokens", "out/sky.jsonl",
          "--profiles", "out/prof.jsonl", "--out", "out/seqs.npz")
        s(p, "train", "train", "--seqs", "out/seqs.npz", "--vocab", "out/enc/vocab.txt",
          "--out-dir", "out/ck", "--steps", self.steps, "--d-model", "48", "--n-layers", "1",
          "--n-heads", "4", "--d-ff", "128", "--lr", "3e-3", "--context", "512",
          "--seed", self.seeds["train"])
        p.train_tokens = self.rec.train_real
        s(p, "sample", "sample", "--checkpoint", "out/ck/checkpoint.npz",
          "--vocab", "out/enc/vocab.txt", "--skylines", "out/sky.jsonl",
          "--profiles", "out/prof.jsonl", "--out-dir", "out/samples", "--n", self.n,
          "--max-new", self.max_new, "--temperature", "1.2", "--seed", self.seeds["sample"])
        s(p, "features", "features", "--corpus", "out/samples/scores",
          "--out", "out/varfeat.jsonl", "--jobs", "1")
        s(p, "fit-gnb", "fit-gnb", "--features", "out/varfeat.jsonl",
          "--out-dir", "out/gnb", "--seed", self.seeds["gnb"])
        s(p, "classify", "classify", "--model", "out/gnb/model.json",
          "--features", "out/varfeat.jsonl", "--out", "out/varpost.jsonl")
        s(p, "embed", "embed", "--corpus", "out/samples/scores",
          "--out", "out/varemb.jsonl", "--jobs", "1")
        s(p, "lmx-decode", "lmx", "decode", "--tokens", "out/sky.jsonl",
          "--out-dir", "out/skyscores")
        s(p, "features", "features", "--corpus", "out/skyscores",
          "--out", "out/origfeat.jsonl", "--jobs", "1")
        s(p, "classify", "classify", "--model", "out/gnb/model.json",
          "--features", "out/origfeat.jsonl", "--out", "out/origpost.jsonl")
        s(p, "embed", "embed", "--corpus", "out/skyscores",
          "--out", "out/origemb.jsonl", "--jobs", "1")
        runs = []
        for strategy in ("filtered", "random"):
            for gap in ("1", "2"):
                run = f"out/mine_{strategy}_{gap}"
                runs.append(run)
                s(p, "mine-pairs", "mine-pairs", "--variations", "out/samples/variations.jsonl",
                  "--posteriors", "out/varpost.jsonl", "--embeddings", "out/varemb.jsonl",
                  "--strategy", strategy, "--min-gap", gap, "--out-dir", run)
        s(p, "evaluate", "evaluate", "--runs", *runs,
          "--original-posteriors", "out/origpost.jsonl",
          "--variation-posteriors", "out/varpost.jsonl",
          "--original-embeddings", "out/origemb.jsonl",
          "--variation-embeddings", "out/varemb.jsonl",
          "--corpus", "out/corpus", "--out-dir", "out/eval")

    def check_pass(self, p: Pass) -> None:
        out = self.ws / "out"
        variations = _read_jsonl(out / "samples/variations.jsonl")
        lengths = [len(r["tokens"]) for r in variations]
        p.sample_tokens = sum(lengths)
        self.check_generated(lengths)
        p.graded = (self.check_features(out / "varfeat.jsonl")
                    + self.check_features(out / "origfeat.jsonl"))
        self.check_embeddings(out / "varemb.jsonl")
        self.check_embeddings(out / "origemb.jsonl")
        for run in sorted(out.glob("mine_*_*")):
            min_gap = int(run.name.rsplit("_", 1)[1])
            for pair in _read_jsonl(run / "pairs.jsonl"):
                self.checks.check(
                    pair["hard_level"] > pair["easy_level"]
                    and pair["hard_level"] - pair["easy_level"] >= min_gap,
                    f"demo: {run.name} pair {pair['hard']}->{pair['easy']} not harder to easier")
        with open(out / "eval/report.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        self.checks.check(bool(rows), "demo: empty outcome table")
        for row in rows:
            total = sum(float(v) for v in row[-4:-1])
            self.checks.check(round(total, 6) == 100.0,
                              f"demo: outcome row {row} sums to {total}")


class LongScores(Workload):
    """Codec and analysis on pieces of 8 to 64 measures; no model."""

    name = "long-scores"
    bases = inputs.LONG_BASES
    smoke = {"bases": bases[:1]}

    def build_inputs(self) -> None:
        corpus = inputs.long_scores_corpus(self.g, self.seed, self.bases)
        self.g.fixtures.write_corpus(str(self.ws / "in/corpus"), corpus)

    def stages(self, p: Pass) -> None:
        s = self.stage
        s(p, "lmx-encode", "lmx", "encode", "--corpus", "in/corpus",
          "--out-dir", "out/enc", "--jobs", "1")
        s(p, "skyline", "skyline", "--corpus", "in/corpus", "--out", "out/sky.jsonl")
        s(p, "profile", "profile", "--corpus", "in/corpus", "--out", "out/prof.jsonl",
          "--noise-scale", "0.15", "--seed", "8")
        s(p, "features", "features", "--corpus", "in/corpus", "--out", "out/feat.jsonl",
          "--jobs", "1")
        s(p, "embed", "embed", "--corpus", "in/corpus", "--out", "out/emb.jsonl",
          "--jobs", "1")
        s(p, "lmx-decode", "lmx", "decode", "--tokens", "out/enc/tokens.jsonl",
          "--out-dir", "out/dec")

    def check_pass(self, p: Pass) -> None:
        out = self.ws / "out"
        g = self.g
        for row in _read_jsonl(out / "enc/tokens.jsonl"):
            decoded = g.score.read_musicxml(str(out / "dec" / f"{row['piece']}.musicxml"))
            self.checks.check(g.lmx.encode(decoded) == row["tokens"],
                              f"long-scores: decode of {row['piece']} does not "
                              "reproduce its tokens")
        p.graded = self.check_features(out / "feat.jsonl")
        self.check_embeddings(out / "emb.jsonl")


class AdaptLong(Workload):
    """Adaptation sequences of 600 to 1200 tokens: train, then sample."""

    name = "adapt-long"
    layout = inputs.ADAPT_LAYOUT
    train_steps = 4
    sample_rows = 8
    sample_new = 48
    smoke = {"layout": layout[1:3], "train_steps": 2, "sample_rows": 2, "sample_new": 8}

    def build_inputs(self) -> None:
        self.data = inputs.adaptation_inputs(self.g, self.seed, self.layout, self.ws / "in")
        pair = self.data["pairs"][0]
        self.prefix = inputs.adaptation_prefix(self.g, self.data["vocab"], pair,
                                               self.data["tokens"])
        self.sample_seed = int(np.random.default_rng(self.seed).integers(2 ** 31))

    def stages(self, p: Pass) -> None:
        g = self.g
        self.stage(p, "build-seqs", "build-seqs", "--mode", "adaptation",
                   "--vocab", "in/vocab.txt", "--pairs", "in/pairs.jsonl",
                   "--variations", "in/variations.jsonl", "--out", "out/seqs.npz")
        self.stage(p, "train", "train", "--seqs", "out/seqs.npz", "--vocab", "in/vocab.txt",
                   "--out-dir", "out/ck", "--steps", str(self.train_steps),
                   "--batch-size", "2", "--d-model", "48", "--n-layers", "1",
                   "--n-heads", "4", "--d-ff", "128", "--lr", "3e-3",
                   "--context", "2048", "--seed", "4")
        p.train_tokens = self.rec.train_real
        lm, _, _ = g.model.load_checkpoint("out/ck/checkpoint.npz")
        # no id is -1, so every row decodes exactly sample_new tokens whatever it draws
        result = self.timed(p, "sample", g.model.sample, lm, self.prefix,
                            n_sequences=self.sample_rows, max_new_tokens=self.sample_new,
                            end_id=-1, temperature=1.0, seed=self.sample_seed)
        self.sequences = result.sequences
        with open("out/generated.json", "w", encoding="utf-8") as fh:
            json.dump(result.sequences, fh)

    def check_pass(self, p: Pass) -> None:
        lengths = [len(seq) for seq in self.sequences]
        p.sample_tokens = sum(lengths)
        self.check_generated(lengths)
        self.checks.check(lengths == [self.sample_new] * self.sample_rows,
                          f"adapt-long: variation lengths {lengths}, expected "
                          f"{self.sample_rows} of {self.sample_new}")
        pairs = self.data["pairs"]
        tokens = self.data["tokens"]
        expected = [len(tokens[q.hard]) + len(tokens[q.easy]) + 4 for q in pairs]
        with np.load(self.ws / "out/seqs.npz") as seqs:
            built = seqs["lengths"].tolist()
        self.checks.check(built == expected,
                          f"adapt-long: built sequence lengths {built}, expected {expected}")
        with open(self.ws / "out/ck/train_log.csv", encoding="utf-8") as fh:
            losses = [float(line.split(",")[1]) for line in list(fh)[1:]]
        self.checks.check(len(losses) == self.train_steps
                          and all(math.isfinite(v) for v in losses),
                          "adapt-long: training loss missing or not finite")


WORKLOADS = {w.name: w for w in (Demo, LongScores, AdaptLong)}

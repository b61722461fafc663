"""gradus benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0

Set-up (importing gradus and building the workload's inputs) is repeated
SETUP_REPEATS times and timed on its own.  Then whole passes of the
workload run until the measuring time is used up (at least MIN_PASSES).
Each timed call counts at its fastest pass, and times are reported in
seconds of an idle machine (speed.py).  With ``--trace 1`` passes
alternate between untraced and traced, and the result holds the per-layer
metrics of the traced ones (medians) plus the tracing overhead.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it holds the details: every end-to-end
metric that applies to the workload, the output digests and the
environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKSPACE = ROOT / ".perfbench_ws"
SETUP_REPEATS = 5
MIN_PASSES = 2      # untraced runs; a traced run makes at least one untraced and one traced pass


def _one_blas_thread() -> int:
    """Run BLAS on one thread (within the cap of ``nproc``); return ``nproc``.

    With one thread, all of the benchmark's work runs where speed.py's
    reference unit runs, so other tenants' load reaches both through the
    same CPU.  A second
    BLAS thread makes the adaptation workload only about 13% faster on a
    2-vCPU guest.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


NPROC = _one_blas_thread()

import ctypes  # noqa: E402  (BLAS reads its thread count when numpy loads)
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
from layers import LayerRecord, install_probes, install_trace, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, Pass  # noqa: E402

GRADUS_MODULES = ("cli", "score", "lmx", "analysis", "style", "gnb", "mining",
                  "seqbuild", "model", "report", "fixtures")


def import_gradus() -> SimpleNamespace:
    """A fresh import of every gradus module, so set-up pays the import."""
    for name in [m for m in sys.modules if m == "gradus" or m.startswith("gradus.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"gradus.{m}")
                              for m in GRADUS_MODULES})


def blas_record() -> dict:
    """The BLAS numpy was built with, and the thread count it reports."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted(site.glob("numpy*libs/*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def fastest(passes: list[Pass]) -> dict[str, float]:
    """Each timed call's fastest time over the passes."""
    return {k: min(p.times[k] for p in passes) for k in passes[0].times}


def end_to_end(passes: list[Pass], setup_raw: list[float], slowdown: float,
               checks: Checks) -> dict:
    """Every end-to-end metric, as ``{name: (value, unit)}``.

    Times are idle-machine seconds: raw seconds over the run's ``slowdown``
    (speed.py).  ``wall_s`` sums each timed call's fastest time; each rate
    divides a pass's work by those times.
    """
    best = {k: v / slowdown for k, v in fastest(passes).items()}
    work = passes[0]
    return {
        "setup_s": (statistics.median(setup_raw) / slowdown, "s"),
        "wall_s": (sum(best.values()), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "train_tokens_per_s": (rate(work.train_tokens, best.get("train", 0.0)), "1/s"),
        "sample_tokens_per_s": (rate(work.sample_tokens, best.get("sample", 0.0)), "1/s"),
        "grade_scores_per_s": (rate(work.graded, best.get("features", 0.0)
                                    + best.get("embed", 0.0)), "1/s"),
        "failed_frac": (rate(checks.failed, checks.attempted), "1"),
    }


# the end-to-end metrics every workload has; BENCHMARK.json lists these
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mib")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a few seconds (for the smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "gradus" / "cli.py").is_file():
        print(f"error: no gradus sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]

    checks = Checks()
    tracer, rec = Tracer(), LayerRecord()
    # a previous run's outputs are not this run's set-up
    shutil.rmtree(WORKSPACE / args.workload, ignore_errors=True)
    speed.reference_unit()   # warm-up: first calls pay numpy's lazy set-up
    samples = [speed.slowdown()]
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        g = import_gradus()
        workload = workload_cls(g, args.seed, WORKSPACE, tracer, rec, checks, args.smoke)
        workload.setup()
        setup_raw.append(time.perf_counter() - start)
        samples.append(speed.slowdown())
    install_probes(tracer, g, rec)
    if args.trace:
        # an untimed first pass: a process's first pass runs slower (demo's
        # train stage by about 20%), and that must fall on neither side of
        # the overhead comparison
        workload.run_pass()

    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict] = []
    began = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        tracer.reset()
        rec.clear()
        mark = tracer.mark()
        if trace_this:
            install_trace(tracer, g, rec)
        try:
            p = workload.run_pass()
        finally:
            tracer.uninstall(mark)
        if trace_this:
            traced.append(p)
            layers.append(layer_metrics(tracer, rec, workload.base_measures))
        else:
            plain.append(p)
        elapsed = time.perf_counter() - began
        enough = bool(traced) if args.trace else len(plain) >= MIN_PASSES
        # stop once the next pass would end mostly past the measuring time
        if enough and elapsed + p.wall_s / 2 >= args.seconds:
            break
    tracer.uninstall()

    samples += [x for p in plain + traced for x in p.slowdowns]
    slowdown = speed.steady(samples)
    e2e = end_to_end(plain, setup_raw, slowdown, checks)
    detail = {
        "workload": args.workload,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "passes": len(plain), "traced_passes": len(traced),
        "work": {"train_tokens": plain[0].train_tokens, "sample_tokens": plain[0].sample_tokens,
                 "graded_scores": plain[0].graded},
        "raw_pass_s": [p.times for p in plain],
        "raw_stage_s": fastest(plain),
        "raw_wall_s": sum(fastest(plain).values()),
        "raw_setup_s": setup_raw,
        "slowdown": slowdown,
        "slowdown_samples": len(samples),
        "artifacts_sha256": sorted(set(workload.digests)),
        "problems": checks.problems,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": blas_record(), "nproc": NPROC, "seed": args.seed,
                "seconds": args.seconds, "jobs": 1},
    }
    if args.trace:
        per_layer = {k: statistics.median(m[k][0] for m in layers) for k in layers[0]}
        units = {k: u for k, (_, u) in layers[0].items()}
        traced_wall = sum(fastest(traced).values()) / slowdown
        plain_wall = e2e["wall_s"][0]
        per_layer["trace.wall_s"], units["trace.wall_s"] = traced_wall, "s"
        per_layer["trace.untraced_wall_s"], units["trace.untraced_wall_s"] = plain_wall, "s"
        per_layer["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        units["trace.overhead_pct"] = "%"
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in RESULT_METRICS}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

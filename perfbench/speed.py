"""How fast the machine runs right now, measured on fixed reference work.

The benchmark shares its CPUs with other tenants.  Their load slows all
work, Python more than BLAS, by up to about 2x: in bursts of seconds, and
in spells that last minutes.  Taking each call's fastest pass removes the
bursts but not a spell that covers a whole run.  So between timed
calls the benchmark times a fixed reference unit, and divides its times by
the run's slowdown: a low quantile of those samples (the unit's "fastest
pass"), relative to REFERENCE_S, the unit's time on an idle machine.  The
unit calls no gradus code, so a change to gradus cannot move it.  It is
Python and small numpy calls, so it corrects Python-heavy work best and
can over-correct BLAS-heavy work in a spell that slows Python more.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.0042   # one reference unit on an idle 2-vCPU Xeon (KVM) guest
REPEATS = 3            # fastest of this many units, so a burst does not count
STEADY_QUANTILE = 0.1  # the run's slowdown is this quantile of its samples

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 48))     # small enough that BLAS stays on one thread,
_W = _rng.standard_normal((48, 48)) / 7.0   # so the unit never waits for thread wake-up


def reference_unit() -> None:
    """Fixed work shaped like gradus: fractions, sets and sorting, then numpy calls."""
    onset = Fraction(0)
    bounds = set()
    for i in range(250):
        onset += Fraction(1 + i % 3, 2 + i % 4)
        bounds.add(onset)
    cuts = sorted(bounds)
    widths: dict[Fraction, int] = {}
    for a, b in zip(cuts, cuts[1:]):
        widths[b - a] = widths.get(b - a, 0) + 1
    h = _X
    for _ in range(400):
        h = np.tanh(h @ _W)


def steady(samples: list[float]) -> float:
    """The run's slowdown: a low quantile of its samples, like the fastest pass."""
    ordered = sorted(samples)
    return ordered[int(STEADY_QUANTILE * (len(ordered) - 1))]


def slowdown() -> float:
    """Current time of the reference unit over REFERENCE_S (1.0 = idle machine)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference_unit()
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_S

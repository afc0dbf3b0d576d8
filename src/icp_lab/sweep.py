"""The best two-bit qubit code as the second observable tilts.

``qubit_rotation_sweep`` traces, Bloch angle by Bloch angle, the best balanced
encoding of two register bits into a qubit read along two axes: closed-form
readout probabilities, with the register correlation found by bisection. It
needs only ``info``, so ``scan sweep`` loads neither the engine nor the
state spaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import info


@dataclass(frozen=True)
class SweepPoint:
    """The best balanced two-bit encoding at one Bloch angle theta of
    ``qubit_rotation_sweep``."""

    theta: float
    gains_sum: float
    redundancy: float
    extractable: float


def _optimal_register_correlation(c: float, s: float) -> float:
    """argmax over q in [1/2, 1] of 2(1 - H(qc + (1-q)s)) - (1 - H(q)).

    The stationarity condition -2(c - s) log2((1-m)/m) + log2((1-q)/q) = 0
    is solved by bisection after bracketing via a coarse scan, which keeps
    the maximizer smooth in (c, s). Boundary optima are handled exactly.
    """
    if c - s <= 1e-15:
        return 0.5

    def fprime(q: float) -> float:
        m = q * c + (1.0 - q) * s
        return -2.0 * (c - s) * math.log2((1.0 - m) / m) + math.log2((1.0 - q) / q)

    top = 1.0 - 1e-12
    if fprime(top) >= 0.0:
        return 1.0

    qs = np.linspace(0.5, top, 513)
    ms = qs * c + (1.0 - qs) * s
    vals = 2.0 * (1.0 - info._binary_entropy_bits(ms)) - (1.0 - info._binary_entropy_bits(qs))
    i = int(np.argmax(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, len(qs) - 1)]
    if fprime(lo) <= 0.0:
        return 0.5 if i == 0 else float(qs[i])
    if fprime(hi) >= 0.0:
        return float(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fprime(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def qubit_rotation_sweep(theta_grid: Sequence[float]) -> list[SweepPoint]:
    """Best balanced two-bit encodings as the second observable tilts toward X.

    ``theta`` is the Bloch angle between the two measurement axes: pi/2 is
    the complementary X, Z pair, 0 makes both observables identical. States
    sit on the bisector directions of the two axes, so both readouts succeed
    with probability c = (1 + cos(theta/2))/2 on matched register pairs and
    s = (1 + sin(theta/2))/2 on mismatched ones; q is the register
    correlation weight, optimized per point.
    """
    points = []
    for theta in theta_grid:
        t = float(theta)
        if not 0.0 <= t <= math.pi / 2.0 + 1e-12:
            raise ValueError(f"theta {t!r} outside [0, pi/2]")
        c = (1.0 + math.cos(t / 2.0)) / 2.0
        s = (1.0 + math.sin(t / 2.0)) / 2.0
        q = _optimal_register_correlation(c, s)
        m = q * c + (1.0 - q) * s
        gains = 2.0 * (1.0 - info.binary_entropy(m))
        red = 1.0 - info.binary_entropy(q)
        points.append(SweepPoint(t, gains, red, gains - red))
    return points

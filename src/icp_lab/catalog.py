"""Catalog of the concrete theories the constructions run on.

Polygon models: n extreme states on a circle of radius r_n = 1/sqrt(cos(pi/n))
at height 1,

    w_i = (r_n cos(2 i pi / n), r_n sin(2 i pi / n), 1),       i = 1..n,

with extreme effects

    e_i = (r_n cos((2i-1) pi / n), r_n sin((2i-1) pi / n), 1) / 2     (n even)
    e_i = (r_n cos(2 i pi / n),  r_n sin(2 i pi / n),  1) / (1+r_n^2) (n odd)

and unit effect u = (0, 0, 1). Indices are 1-based and wrap modulo n. Each
named measurement ``Ei`` is the two-outcome pair {e_i, u - e_i}; for even n
the complement u - e_i coincides with e_{i + n/2}.

The square model (sbit) is polygon(4) with X = E2 and Z = E3, so the four
vertices are the deterministic corners (s_x, s_z) = (+-1, +-1). The hbit is a
four-state classical simplex that only exposes the two coarse parity readouts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gpt import (
    Effect,
    Measurement,
    NormConstraint,
    Polytope,
    Quantum,
    RestrictedClassical,
    State,
    Theory,
    bloch_coords,
    validate_measurement,
    validate_state,
)


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """A catalog theory; its id and measurements are the theory's."""

    theory: Theory


def _checked(entry: CatalogEntry) -> CatalogEntry:
    for m in entry.theory.measurements.values():
        ok = validate_measurement(entry.theory, m)
        if not ok:
            raise AssertionError(f"{entry.theory.theory_id}/{m.label}: {ok.detail}")
    return entry


def polygon_vertex(n: int, i: int) -> State:
    """Vertex w_i of the n-gon model, 1-based with wraparound."""
    r = 1.0 / math.sqrt(math.cos(math.pi / n))
    angle = 2.0 * math.pi * (i % n) / n
    return State(np.array([r * math.cos(angle), r * math.sin(angle), 1.0]))


def polygon_effect(n: int, i: int) -> Effect:
    """Extreme effect e_i of the n-gon model, 1-based with wraparound."""
    r = 1.0 / math.sqrt(math.cos(math.pi / n))
    if n % 2 == 0:
        angle = (2.0 * (((i - 1) % n) + 1) - 1.0) * math.pi / n
        coords = 0.5 * np.array([r * math.cos(angle), r * math.sin(angle), 1.0])
    else:
        angle = 2.0 * math.pi * (i % n) / n
        coords = np.array([r * math.cos(angle), r * math.sin(angle), 1.0]) / (1.0 + r * r)
    return Effect(coords, f"e{((i - 1) % n) + 1}")


# most extreme states a polygon model may have: polygon(n) and its observed
# dimension took 0.26 s / 49 MB peak at n = 1 000, 0.99 s / 102 MB at 2 000
# and 1.70 s / 190 MB at 3 000 (2-vCPU Xeon), growing as n^2
MAX_POLYGON = 2_000


def polygon(n: int) -> CatalogEntry:
    """Polygon model with n extreme states, 3 <= n <= ``MAX_POLYGON``; n = 3
    is the classical trit."""
    if not 3 <= n <= MAX_POLYGON:
        raise ValueError(f"polygon needs 3 <= n <= {MAX_POLYGON}, got {n}")
    unit = Effect(np.array([0.0, 0.0, 1.0]), "u")
    vertices = tuple(polygon_vertex(n, i) for i in range(1, n + 1))
    extremes = tuple(polygon_effect(n, i) for i in range(1, n + 1))
    measurements = {}
    for i, e in enumerate(extremes, start=1):
        comp = Effect(unit.coords - e.coords, f"u-e{i}")
        measurements[f"E{i}"] = Measurement(f"E{i}", (e, comp))
    theory = Theory(f"polygon:{n}", Polytope(vertices, extremes, unit), measurements)
    return _checked(CatalogEntry(theory))


def classical_trit() -> CatalogEntry:
    """Three-outcome classical system: the triangle model under its own id."""
    triangle = polygon(3).theory
    return CatalogEntry(Theory("classical-trit", triangle.variant, triangle.measurements))


def classical_bit() -> CatalogEntry:
    """Single classical bit exposing the same readout under two names."""
    v0 = State(np.array([1.0, 0.0]))
    v1 = State(np.array([0.0, 1.0]))
    p0 = Effect(np.array([1.0, 0.0]), "p0")
    p1 = Effect(np.array([0.0, 1.0]), "p1")
    unit = Effect(np.array([1.0, 1.0]), "u")
    # X and Z are the same underlying readout: copies of one bit
    measurements = {
        "X": Measurement("X", (Effect(p0.coords, "X0"), Effect(p1.coords, "X1"))),
        "Z": Measurement("Z", (Effect(p0.coords, "Z0"), Effect(p1.coords, "Z1"))),
    }
    theory = Theory("classical-bit", Polytope((v0, v1), (p0, p1), unit), measurements)
    return _checked(CatalogEntry(theory))


def sbit() -> CatalogEntry:
    """Square model: X and Z are simultaneously deterministic on the corners."""
    theory = polygon(4).theory
    e2 = theory.measurement("E2")
    e3 = theory.measurement("E3")
    measurements = dict(theory.measurements)
    measurements["X"] = Measurement("X", e2.effects)
    measurements["Z"] = Measurement("Z", e3.effects)
    theory = Theory("sbit", theory.variant, measurements)
    return _checked(CatalogEntry(theory))


def sbit_state(sx: float, sz: float) -> State:
    """Square-model state with mean values (s_x, s_z); corners at (+-1, +-1)."""
    # written so that NaN fails: every comparison with NaN is false
    if not (-1.0 - 1e-12 <= sx <= 1.0 + 1e-12 and -1.0 - 1e-12 <= sz <= 1.0 + 1e-12):
        raise ValueError("square-model mean values must lie in [-1, 1]")
    r = 1.0 / math.sqrt(math.cos(math.pi / 4.0))
    return State(np.array([-r * (sx + sz) / 2.0, r * (sx - sz) / 2.0, 1.0]))


def hbit() -> CatalogEntry:
    """Four-state classical simplex restricted to two binary parity readouts."""
    x = Measurement(
        "X",
        (
            Effect(np.array([1.0, 1.0, 0.0, 0.0]), "X0"),
            Effect(np.array([0.0, 0.0, 1.0, 1.0]), "X1"),
        ),
    )
    z = Measurement(
        "Z",
        (
            Effect(np.array([1.0, 0.0, 1.0, 0.0]), "Z0"),
            Effect(np.array([0.0, 1.0, 0.0, 1.0]), "Z1"),
        ),
    )
    theory = Theory("hbit", RestrictedClassical(4), {"X": x, "Z": z})
    return _checked(CatalogEntry(theory))


def hbit_state(a: int, b: int) -> State:
    """Internal state with definite readouts X = a, Z = b."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("readout values must be 0 or 1")
    coords = np.zeros(4)
    coords[2 * a + b] = 1.0
    return State(coords)


def _qubit_axis_measurement(axis: np.ndarray, label: str) -> Measurement:
    # (I + a.sigma)/2 and (I - a.sigma)/2
    effects = (Effect(bloch_coords(b), f"{label}{i}") for i, b in enumerate((axis, -axis)))
    return Measurement(label, tuple(effects))


def qubit() -> CatalogEntry:
    """One qubit with projective X and Z readouts."""
    measurements = {
        "X": _qubit_axis_measurement(np.array([1.0, 0.0, 0.0]), "X"),
        "Z": _qubit_axis_measurement(np.array([0.0, 0.0, 1.0]), "Z"),
    }
    theory = Theory("qubit", Quantum(2), measurements)
    return _checked(CatalogEntry(theory))


def qubit_z_rotated(theta: float) -> Measurement:
    """Projective readout along cos(theta) z + sin(theta) x; theta = 0 is Z."""
    axis = np.array([math.sin(theta), 0.0, math.cos(theta)])
    return _qubit_axis_measurement(axis, f"Z({theta:.6g})")


def qubit_state_from_bloch(bx: float, by: float, bz: float) -> State:
    b = np.array([bx, by, bz], dtype=float)
    # written so that NaN fails: every comparison with NaN is false
    if not np.linalg.norm(b) <= 1.0 + 1e-12:
        raise ValueError("Bloch vector lies outside the unit ball")
    return State(bloch_coords(b))


_PGNST_AXES = ("X", "Y", "Z")


def pgnst_id(p: float, k: int) -> str:
    """``pgnst:<p>:<k>``, with p written short (``:g``) where that text reads
    back as p and in full (``repr``) otherwise, so ``resolve`` rebuilds p exactly."""
    p_str = f"{p:g}"
    if float(p_str) != p:
        p_str = repr(float(p))
    return f"pgnst:{p_str}:{k}"


def pgnst(p: float, k: int = 2) -> CatalogEntry:
    """Norm-constraint theory: k fiducial observables with sum |s_i|^p <= 1.

    p = 2, k = 3 is the Bloch ball; p > 2 admits states sharper than any
    quantum uncertainty tradeoff allows; p = inf, k = 2 is the square model
    in fiducial coordinates (a gbit for k = 3).
    """
    # the variant refuses an unsupported k before any effect is sized from it
    variant = NormConstraint(float(p), k)
    k = variant.k
    names = ("X", "Z") if k == 2 else _PGNST_AXES[:k]
    measurements = {}
    for axis, name in enumerate(names):
        plus = np.zeros(k + 1)
        plus[axis] = 0.5
        plus[-1] = 0.5
        minus = np.zeros(k + 1)
        minus[axis] = -0.5
        minus[-1] = 0.5
        measurements[name] = Measurement(
            name,
            (Effect(plus, f"{name}0"), Effect(minus, f"{name}1")),
        )
    theory = Theory(pgnst_id(p, k), variant, measurements)
    return _checked(CatalogEntry(theory))


def norm_state(entry: CatalogEntry, means) -> State:
    """State of a norm-constraint theory from its fiducial mean values."""
    variant = entry.theory.variant
    if not isinstance(variant, NormConstraint):
        raise TypeError(f"{entry.theory.theory_id!r} is not a norm-constraint theory")
    means = np.asarray(means, dtype=float)
    if means.size != variant.k:
        raise ValueError(f"expected {variant.k} mean values")
    state = State(np.append(means, 1.0))
    ok = validate_state(entry.theory, state)
    if not ok:
        raise ValueError(ok.detail)
    return state


def list_catalog() -> list[CatalogEntry]:
    return [classical_bit(), classical_trit(), hbit(), sbit(), qubit()]


def resolve(theory_id: str) -> CatalogEntry:
    """Build a catalog entry from its identifier, e.g. polygon:7 or pgnst:3:2."""
    fixed = {
        "classical-bit": classical_bit,
        "classical-trit": classical_trit,
        "hbit": hbit,
        "sbit": sbit,
        "qubit": qubit,
    }
    if theory_id in fixed:
        return fixed[theory_id]()
    if theory_id.startswith("polygon:"):
        return polygon(int(theory_id.split(":", 1)[1]))
    if theory_id.startswith("pgnst:"):
        parts = theory_id.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected pgnst:<p>:<k>, got {theory_id!r}")
        p = math.inf if parts[1] == "inf" else float(parts[1])
        return pgnst(p, int(parts[2]))
    raise KeyError(f"unknown theory id {theory_id!r}")

"""Equivalent encodings give equal numbers: a polygon and its affine images.

An invertible map A of the (x, y) block of every state, with the
normalisation coordinate kept, and the inverse transpose A^-T on every effect,
the unit included, leaves every effect value e . s = (A^-T e) . (A s)
unchanged. So the observed dimension, its ``exhaustive`` flag and every
report of a mapped ensemble must stay what they were, up to rounding.
"""
import numpy as np
import pytest

from icp_lab import (
    CorrelatedEnsemble,
    Effect,
    Measurement,
    ObservableAssignment,
    Polytope,
    State,
    Theory,
    evaluate_icp,
    observed_dimension,
    polygon_violation,
)

SCALES = (1.0, 1e3, 1e-3)


def _random_block_map(rng: np.random.Generator, scale: float) -> np.ndarray:
    """diag(M, 1) for a random 2 x 2 M of condition number below 10, times ``scale``."""
    while True:
        m = rng.normal(size=(2, 2))
        if np.linalg.cond(m) < 10.0:
            break
    a = np.eye(3)
    a[:2, :2] = scale * m
    return a


def _affine_image(theory: Theory, a: np.ndarray) -> Theory:
    """``theory`` with every state coordinate vector s mapped to a s and every
    effect e, the unit included, to a^-T e, under the same id and names."""
    space, dual = theory.variant, np.linalg.inv(a).T

    def effect(e: Effect) -> Effect:
        return Effect(dual @ e.coords, e.label)

    image = Polytope(
        tuple(State(a @ s.coords) for s in space.vertices),
        tuple(map(effect, space.extreme_effects)),
        effect(space.unit),
    )
    measurements = {name: Measurement(m.label, tuple(map(effect, m.effects))) for name, m in theory.measurements.items()}
    return Theory(theory.theory_id, image, measurements)


@pytest.mark.parametrize("n", range(3, 31))
def test_an_affine_image_of_a_polygon_keeps_its_dimension_and_certificate(n):
    certificate = polygon_violation(n)
    theory, ens = certificate.ensemble.theory, certificate.ensemble
    dimension, report = observed_dimension(theory), certificate.report
    rng = np.random.default_rng(n)
    for scale in SCALES:
        a = _random_block_map(rng, scale)
        image = _affine_image(theory, a)
        mapped = observed_dimension(image)
        assert (mapped.d, mapped.exhaustive) == (dimension.d, dimension.exhaustive), scale
        moved = CorrelatedEnsemble(image, ens.probs, ens.coords @ a.T, ens.registers, ens.register_alphabets)
        pairs = tuple((image.measurement(m.label), r) for m, r in certificate.assignment.pairs)
        got = evaluate_icp(moved, ObservableAssignment(pairs))
        assert got.violated == report.violated and got.observed_dim == report.observed_dim, scale
        assert np.allclose(got.gains, report.gains, rtol=0.0, atol=1e-12), scale
        for field in ("redundancy", "extractable", "margin"):
            assert abs(getattr(got, field) - getattr(report, field)) <= 1e-12, (scale, field)

"""Catalog geometry: polygon identities, fixed theories, id round-trips."""
import dataclasses
import json
import math

import numpy as np
import pytest

from icp_lab import (
    ObservableAssignment,
    apply_effect,
    catalog,
    certificate_to_json,
    ensemble_from_json,
    evaluate_icp,
    measure,
    pgnst_violation,
    validate_measurement,
    validate_state,
)
from icp_lab.serialize import assignment_from_json


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 12, 50])
def test_polygon_states_and_measurements_valid(n):
    entry = catalog.polygon(n)
    th = entry.theory
    for i in range(1, n + 1):
        assert validate_state(th, catalog.polygon_vertex(n, i))
    for m in th.measurements.values():
        assert validate_measurement(th, m)


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_polygon_even_effect_vertex_statistics(n):
    # e_i(w_j) = (1 + cos((2j - 2i + 1) pi / n) / cos(pi / n)) / 2 for even n
    for i in (1, 2, n // 2, n):
        e = catalog.polygon_effect(n, i)
        for j in (1, 2, n // 2 + 1, n):
            w = catalog.polygon_vertex(n, j)
            expected = 0.5 * (1 + math.cos((2 * j - 2 * i + 1) * math.pi / n) / math.cos(math.pi / n))
            assert float(np.dot(e.coords, w.coords)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_polygon_odd_effect_vertex_statistics(n):
    # e_i(w_j) = (1 + r^2 cos(2 (j - i) pi / n)) / (1 + r^2) for odd n
    r2 = 1.0 / math.cos(math.pi / n)
    for i in (1, 2, n):
        e = catalog.polygon_effect(n, i)
        for j in (1, (n + 1) // 2, n):
            w = catalog.polygon_vertex(n, j)
            expected = (1 + r2 * math.cos(2 * (j - i) * math.pi / n)) / (1 + r2)
            assert float(np.dot(e.coords, w.coords)) == pytest.approx(expected, abs=1e-12)


def test_polygon_even_measurement_pairs_antipodal_effects():
    n = 8
    th = catalog.polygon(n).theory
    for m in th.measurements.values():
        a, b = m.effects
        assert np.allclose(a.coords + b.coords, th.variant.unit.coords, atol=1e-12)


def test_polygon_wraparound_indexing():
    n = 5
    a = catalog.polygon_vertex(n, 1)
    b = catalog.polygon_vertex(n, n + 1)
    assert np.allclose(a.coords, b.coords)


def test_sbit_corner_readout(sbit_entry):
    th = sbit_entry.theory
    x, z = th.measurement("X"), th.measurement("Z")
    for sx in (-1.0, 1.0):
        for sz in (-1.0, 1.0):
            s = catalog.sbit_state(sx, sz)
            assert apply_effect(x.effects[0], s) == pytest.approx((1 + sx) / 2, abs=1e-12)
            assert apply_effect(z.effects[0], s) == pytest.approx((1 + sz) / 2, abs=1e-12)


def test_sbit_rejects_out_of_square(sbit_entry):
    with pytest.raises(ValueError):
        catalog.sbit_state(1.0 + 1e-6, 0.0)
    # raw coordinates outside the square fail membership directly
    outside = catalog.sbit_state(1.0, 1.0)
    shifted = type(outside)(outside.coords * 1.5)
    assert not validate_state(sbit_entry.theory, shifted)


def test_hbit_states_and_readout(hbit_entry):
    th = hbit_entry.theory
    x, z = th.measurement("X"), th.measurement("Z")
    for a in (0, 1):
        for b in (0, 1):
            s = catalog.hbit_state(a, b)
            assert validate_state(th, s)
            px = measure(th, x, s)
            pz = measure(th, z, s)
            assert px[0] == pytest.approx(1.0 - a, abs=1e-12)
            assert pz[0] == pytest.approx(1.0 - b, abs=1e-12)


def test_qubit_bloch_statistics(qubit_entry):
    th = qubit_entry.theory
    s = catalog.qubit_state_from_bloch(0.6, 0.0, -0.8)
    assert measure(th, th.measurement("X"), s)[0] == pytest.approx(0.8, abs=1e-12)
    assert measure(th, th.measurement("Z"), s)[0] == pytest.approx(0.1, abs=1e-12)


def test_qubit_rotated_measurement(qubit_entry):
    th = qubit_entry.theory
    theta = 0.3
    m = catalog.qubit_z_rotated(theta)
    assert validate_measurement(th, m)
    # rotating Z by theta=0 recovers Z statistics
    m0 = catalog.qubit_z_rotated(0.0)
    s = catalog.qubit_state_from_bloch(0.0, 0.0, 1.0)
    assert measure(th, m0, s)[0] == pytest.approx(1.0, abs=1e-12)
    # theta = pi/2 turns Z into X
    mq = catalog.qubit_z_rotated(math.pi / 2)
    sx = catalog.qubit_state_from_bloch(1.0, 0.0, 0.0)
    assert measure(th, mq, sx)[0] == pytest.approx(1.0, abs=1e-12)


def test_pgnst_membership_grows_with_p():
    # a point on the p=2.5 sphere lies strictly inside the p=4 body
    s25 = catalog.pgnst(2.5, 2)
    s4 = catalog.pgnst(4.0, 2)
    sx = 0.7
    sz25 = (1.0 - sx**2.5) ** (1.0 / 2.5)
    assert validate_state(s25.theory, catalog.norm_state(s25, (sx, sz25)))
    assert validate_state(s4.theory, catalog.norm_state(s4, (sx, sz25)))
    # the reverse direction fails: the p=2.5 body is smaller
    sz4 = (1.0 - sx**4.0) ** (1.0 / 4.0)
    with pytest.raises(ValueError):
        catalog.norm_state(s25, (sx, sz4))


def test_pgnst_two_matches_qubit_great_circle(qubit_entry):
    """p=2 with two fiducials reproduces qubit X/Z statistics on the circle."""
    entry = catalog.pgnst(2.0, 2)
    th = entry.theory
    qth = qubit_entry.theory
    for theta in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
        sx, sz = math.cos(theta), math.sin(theta)
        norm = catalog.norm_state(entry, (sx, sz))
        bloch = catalog.qubit_state_from_bloch(sx, 0.0, sz)
        for label in ("X", "Z"):
            pn = measure(th, th.measurement(label), norm)
            pq = measure(qth, qth.measurement(label), bloch)
            assert np.allclose(pn, pq, atol=1e-12)


def test_pgnst_infinite_p_is_square():
    entry = catalog.pgnst(float("inf"), 2)
    assert validate_state(entry.theory, catalog.norm_state(entry, (1.0, -1.0)))


def test_pgnst_three_fiducials():
    entry = catalog.pgnst(3.0, 3)
    assert len(entry.theory.measurements) == 3
    assert validate_state(entry.theory, catalog.norm_state(entry, (0.5, 0.5, 0.5)))


# each listed theory's id, then each measurement name (sorted) with its effect
# labels; every unit is labelled "u"
_POLYGON_PAIRS = {f"E{i}": (f"e{i}", f"u-e{i}") for i in range(1, 5)}
_READOUTS = {"X": ("X0", "X1"), "Z": ("Z0", "Z1")}
CATALOG_IDENTITY = {
    "classical-bit": _READOUTS,
    "classical-trit": {name: _POLYGON_PAIRS[name] for name in ("E1", "E2", "E3")},
    "hbit": _READOUTS,
    "sbit": {**_POLYGON_PAIRS, "X": ("e2", "u-e2"), "Z": ("e3", "u-e3")},
    "qubit": _READOUTS,
}


def test_list_catalog_and_resolve_round_trip():
    entries = catalog.list_catalog()
    ids = [e.theory.theory_id for e in entries]
    assert ids == list(CATALOG_IDENTITY)
    for entry in entries:
        th = entry.theory
        labels = {name: tuple(e.label for e in th.measurements[name].effects) for name in sorted(th.measurements)}
        assert list(labels.items()) == list(CATALOG_IDENTITY[th.theory_id].items())
        assert th.variant.unit.label == "u"
    for eid in ids:
        assert catalog.resolve(eid).theory.theory_id == eid
    assert catalog.resolve("polygon:7").theory.theory_id == catalog.polygon(7).theory.theory_id
    assert catalog.resolve("pgnst:3:2").theory.theory_id == catalog.pgnst(3.0, 2).theory.theory_id
    assert catalog.resolve("pgnst:inf:2").theory.theory_id == catalog.pgnst(float("inf"), 2).theory.theory_id
    with pytest.raises(KeyError):
        catalog.resolve("no-such-theory")


def test_a_catalog_entry_holds_only_its_theory():
    # its id and measurements are the theory's, read from it directly
    assert [f.name for f in dataclasses.fields(catalog.CatalogEntry)] == ["theory"]


# p and its text in the id: ``:g`` where that reads back as p, else every digit
PGNST_P_TEXT = {
    2.5000001: "2.5000001",
    3.0000004: "3.0000004",
    2 + 2**-40: "2.0000000000009095",
    2.25: "2.25",
    3: "3",
    math.inf: "inf",
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", list(PGNST_P_TEXT))
def test_pgnst_id_round_trips_p_exactly(p, k):
    """An id that ``:g`` would cut to 6 digits keeps every digit of p, so the
    theory and a certificate rebuilt from the id are the ones it names."""
    theory_id = catalog.pgnst_id(p, k)
    assert theory_id == f"pgnst:{PGNST_P_TEXT[p]}:{k}"
    theory = catalog.resolve(theory_id).theory
    assert (theory.variant.p, theory.theory_id) == (p, theory_id)
    if k == 2:
        cert = pgnst_violation(p)
        doc = json.loads(json.dumps(certificate_to_json(cert)))
        assert doc["theory"] == theory_id
        entry, ensemble = ensemble_from_json(doc["ensemble"])
        assert entry.theory.theory_id == theory_id
        labels, registers = assignment_from_json(doc["assignment"])
        assignment = ObservableAssignment(tuple((entry.theory.measurement(l), r) for l, r in zip(labels, registers)))
        report = evaluate_icp(ensemble, assignment).to_json()
        assert json.dumps(report) == json.dumps(cert.report.to_json())


def test_polygon_rejects_small_n():
    with pytest.raises(ValueError):
        catalog.polygon(2)


def test_polygon_size_is_capped_before_anything_is_built():
    catalog.polygon(catalog.MAX_POLYGON)
    for make in (lambda: catalog.polygon(catalog.MAX_POLYGON + 1), lambda: catalog.resolve("polygon:100000")):
        with pytest.raises(ValueError, match=f"polygon needs 3 <= n <= {catalog.MAX_POLYGON}"):
            make()


def test_pgnst_rejects_bad_parameters():
    with pytest.raises(ValueError):
        catalog.pgnst(1.5, 2)
    with pytest.raises(ValueError):
        catalog.pgnst(3.0, 1)
    # the state space refuses k before any k + 1-coordinate effect is sized from it
    with pytest.raises(ValueError, match=f"^unsupported fiducial count {10**20}$"):
        catalog.pgnst(3.0, 10**20)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        catalog.pgnst(3.0, 2.0)

"""Built-in catalog: golden classifications and serialization round trips."""

import numpy as np
import pytest

from torichk import (catalog, classification_report, dump_arrangement, entry,
                     entry_names, eval_Phi, lattice, parse_arrangement)

REQUIRED = ["flat-cylinder", "flat-H", "taub-nut", "eguchi-hanson",
            "multi-EH-3", "n2-unimodular", "n2-nonsmooth"]


def test_required_entries_present():
    names = entry_names()
    for name in REQUIRED:
        assert name in names
    assert len(names) == len(set(names))
    with pytest.raises(KeyError, match="flat-cylinder"):
        entry("no-such-entry")


def test_provenance_tags():
    allowed = {"exact", "lattice", "growth-law", "fd-oracle"}
    for e in catalog():
        assert e.expected, e.name
        for key, exp in e.expected.items():
            assert exp.source in allowed, (e.name, key)
        assert e.description


def test_classification_goldens():
    keys = ["smooth", "simply_connected", "flat_factor_l", "taub_nut_order",
            "volume_growth_exponent", "ale_label", "cone_over_3sasakian"]
    for e in catalog():
        rep = classification_report(e.arrangement, e.deformation).as_dict()
        want = e.expected_values()
        for key in keys:
            if key in want:
                assert rep[key] == want[key], (e.name, key)


def test_growth_law_consistency():
    # declared exponents obey 4n - m without exception
    for e in catalog():
        want = e.expected_values()
        if "volume_growth_exponent" in want and want["smooth"]:
            n = e.arrangement.dimension
            m = e.deformation.order
            assert want["volume_growth_exponent"] == 4 * n - m, e.name


def test_ale_chain_length():
    # k + 1 collinear unit-mass centers give the A_k label
    assert entry("flat-H").expected_values()["ale_label"] == 0
    assert entry("eguchi-hanson").expected_values()["ale_label"] == 1
    assert entry("multi-EH-3").expected_values()["ale_label"] == 2
    assert entry("taub-nut").expected_values()["ale_label"] is None


def test_phi_goldens():
    e = entry("flat-cylinder")
    want = e.expected_values()["phi_constant"]
    rng = np.random.default_rng(300)
    for _ in range(5):
        p = np.random.default_rng(rng.integers(2**32))
        x = p.uniform(-3, 3, 1)
        z = p.uniform(-3, 3, 1) + 1j * p.uniform(-3, 3, 1)
        from torichk import Point3n
        got = eval_Phi(e.arrangement, e.deformation, Point3n(x, z))[0, 0]
        assert got == want

    e = entry("flat-H")
    coeff = e.expected_values()["phi_radial_coefficient"]
    from torichk import Point3n
    for x0, z0 in [(1.0, 0.0j), (0.0, 2.0 + 0.0j), (0.6, -0.8j)]:
        pt = Point3n(np.array([x0]), np.array([z0]))
        r = np.sqrt(x0 ** 2 + abs(z0) ** 2)
        assert eval_Phi(e.arrangement, e.deformation, pt)[0, 0] * r == \
            pytest.approx(coeff, rel=1e-14)


def test_nonsmooth_goldens():
    e = entry("n2-nonsmooth")
    want = e.expected_values()
    assert want["smooth"] is False
    assert tuple(want["failing_stratum_active"]) == (0, 1)
    rows = [e.arrangement.flats[k].normal
            for k in want["failing_stratum_active"]]
    assert lattice.invariant_factors(rows) == list(want["invariant_factors"])


def test_dump_parse_roundtrip():
    for e in catalog():
        doc = dump_arrangement(e.arrangement, e.deformation)
        arr, B = parse_arrangement(doc)
        assert arr.dimension == e.arrangement.dimension
        assert len(arr.flats) == len(e.arrangement.flats)
        for got, orig in zip(arr.flats, e.arrangement.flats):
            assert got.normal == orig.normal
            assert got.offsets == orig.offsets
            assert got.mass == orig.mass
        assert np.array_equal(B.entries, e.deformation.entries)
        # a second dump is bit-identical (canonical form)
        assert dump_arrangement(arr, B) == doc


def test_dump_omits_zero_deformation():
    e = entry("flat-H")
    doc = dump_arrangement(e.arrangement, e.deformation)
    assert "B" not in doc
    arr, B = parse_arrangement(doc)
    assert B.order == 0


def test_entry_deformation_orders():
    assert entry("flat-H").deformation.order == 0
    assert entry("taub-nut").deformation.order == 1
    assert entry("n2-unimodular-tn1").deformation.order == 1
    assert entry("n2-unimodular-tn1").expected_values()[
        "volume_growth_exponent"] == 7

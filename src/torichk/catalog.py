"""Built-in example arrangements with golden expectations.

Each expected value carries a short provenance tag:

  exact       closed-form fact checked symbolically or by hand
  lattice     integer linear algebra (Smith form)
  growth-law  the 4n - m volume-growth rule
  fd-oracle   value certified by the finite-difference checks in verify
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .arrangement import DeformationMatrix, Flat, FlatArrangement

__all__ = ["Expected", "CatalogEntry", "catalog", "entry", "entry_names"]


@dataclass(frozen=True)
class Expected:
    value: object
    source: str


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    arrangement: FlatArrangement
    deformation: DeformationMatrix
    expected: dict
    description: str

    def expected_values(self) -> dict:
        return {k: v.value for k, v in self.expected.items()}


def _flat1(x0, mass=1.0, y0=0.0, w0=0.0):
    return Flat((1,), (float(x0), float(y0), float(w0)), mass)


@cache
def _build():
    entries = []

    arr = FlatArrangement(1, ())
    entries.append(CatalogEntry(
        name="flat-cylinder",
        arrangement=arr,
        deformation=DeformationMatrix([[1.0]]),
        expected={
            "smooth": Expected(True, "lattice"),
            "simply_connected": Expected(False, "exact"),
            "flat_factor_l": Expected(1, "exact"),
            "taub_nut_order": Expected(1, "exact"),
            "volume_growth_exponent": Expected(3, "growth-law"),
            "ale_label": Expected(None, "exact"),
            "cone_over_3sasakian": Expected(False, "exact"),
            "phi_constant": Expected(1.0, "exact"),
        },
        description="No flats, pure order-1 deformation: S^1 x R^3 with the "
                    "product metric; the conformal factor is the constant b.",
    ))

    arr = FlatArrangement(1, (_flat1(0.0),))
    entries.append(CatalogEntry(
        name="flat-H",
        arrangement=arr,
        deformation=DeformationMatrix.zero(1),
        expected={
            "smooth": Expected(True, "lattice"),
            "simply_connected": Expected(True, "lattice"),
            "flat_factor_l": Expected(0, "lattice"),
            "taub_nut_order": Expected(0, "exact"),
            "volume_growth_exponent": Expected(4, "growth-law"),
            "ale_label": Expected(0, "exact"),
            "cone_over_3sasakian": Expected(True, "exact"),
            "phi_radial_coefficient": Expected(0.25, "exact"),
        },
        description="Single flat through the origin, no deformation: flat "
                    "quaternionic space in disguised coordinates, Phi = 1/(4r).",
    ))

    entries.append(CatalogEntry(
        name="taub-nut",
        arrangement=arr,
        deformation=DeformationMatrix([[1.0]]),
        expected={
            "smooth": Expected(True, "lattice"),
            "simply_connected": Expected(True, "lattice"),
            "flat_factor_l": Expected(0, "lattice"),
            "taub_nut_order": Expected(1, "exact"),
            "volume_growth_exponent": Expected(3, "growth-law"),
            "ale_label": Expected(None, "exact"),
            "cone_over_3sasakian": Expected(False, "exact"),
        },
        description="Single flat plus an order-1 deformation: the Taub-NUT "
                    "metric with cubic volume growth.",
    ))

    arr = FlatArrangement(1, (_flat1(-1.0), _flat1(1.0)))
    entries.append(CatalogEntry(
        name="eguchi-hanson",
        arrangement=arr,
        deformation=DeformationMatrix.zero(1),
        expected={
            "smooth": Expected(True, "lattice"),
            "simply_connected": Expected(True, "lattice"),
            "flat_factor_l": Expected(0, "lattice"),
            "taub_nut_order": Expected(0, "exact"),
            "volume_growth_exponent": Expected(4, "growth-law"),
            "ale_label": Expected(1, "exact"),
            "cone_over_3sasakian": Expected(False, "exact"),
        },
        description="Two distinct centers on a line: the Eguchi-Hanson "
                    "gravitational instanton, first nontrivial ALE space.",
    ))

    arr = FlatArrangement(1, (_flat1(-1.0), _flat1(0.0), _flat1(1.0)))
    entries.append(CatalogEntry(
        name="multi-EH-3",
        arrangement=arr,
        deformation=DeformationMatrix.zero(1),
        expected={
            "smooth": Expected(True, "lattice"),
            "simply_connected": Expected(True, "lattice"),
            "flat_factor_l": Expected(0, "lattice"),
            "taub_nut_order": Expected(0, "exact"),
            "volume_growth_exponent": Expected(4, "growth-law"),
            "ale_label": Expected(2, "exact"),
            "cone_over_3sasakian": Expected(False, "exact"),
        },
        description="Three collinear centers: the next ALE space in the "
                    "series, second homology rank two.",
    ))

    n2flats = (
        Flat((1, 0), (0.0, 0.0, 0.0), 1.0),
        Flat((0, 1), (float(Fraction(1, 2)), 0.0, 0.0), 1.0),
        Flat((1, 1), (float(Fraction(1, 4)), float(Fraction(1, 3)), 0.0), 1.0),
    )
    arr = FlatArrangement(2, n2flats)
    entries.append(CatalogEntry(
        name="n2-unimodular",
        arrangement=arr,
        deformation=DeformationMatrix.zero(2),
        expected={
            "smooth": Expected(True, "lattice"),
            "simply_connected": Expected(True, "lattice"),
            "flat_factor_l": Expected(0, "lattice"),
            "taub_nut_order": Expected(0, "exact"),
            "volume_growth_exponent": Expected(8, "growth-law"),
            "ale_label": Expected(None, "exact"),
            "cone_over_3sasakian": Expected(False, "exact"),
            "stratum_count": Expected(6, "lattice"),
        },
        description="Three flats in rank two with pairwise unimodular normals "
                    "and generic rational offsets; every pair meets, no triple "
                    "intersection.",
    ))

    entries.append(CatalogEntry(
        name="n2-unimodular-tn1",
        arrangement=arr,
        deformation=DeformationMatrix([[1.0, 0.0], [0.0, 0.0]]),
        expected={
            "smooth": Expected(True, "lattice"),
            "simply_connected": Expected(True, "lattice"),
            "flat_factor_l": Expected(0, "lattice"),
            "taub_nut_order": Expected(1, "exact"),
            "volume_growth_exponent": Expected(7, "growth-law"),
            "ale_label": Expected(None, "exact"),
            "cone_over_3sasakian": Expected(False, "exact"),
        },
        description="The same rank-two arrangement with an order-1 "
                    "deformation, lowering the growth exponent by one.",
    ))

    bad = FlatArrangement(2, (
        Flat((1, 1), (0.0, 0.0, 0.0), 1.0),
        Flat((1, -1), (0.0, 0.0, 0.0), 1.0),
    ))
    entries.append(CatalogEntry(
        name="n2-nonsmooth",
        arrangement=bad,
        deformation=DeformationMatrix.zero(2),
        expected={
            "smooth": Expected(False, "lattice"),
            "failing_stratum_active": Expected((0, 1), "lattice"),
            "invariant_factors": Expected((1, 2), "lattice"),
        },
        description="Two flats whose normals span an index-2 sublattice; the "
                    "pair intersection fails the Z-basis test with Smith form "
                    "diag(1, 2).",
    ))

    return entries


def catalog() -> list:
    """All built-in entries, constructed once and cached."""
    return list(_build())


def entry(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}; "
                   f"known: {', '.join(entry_names())}")


def entry_names() -> list:
    return [e.name for e in catalog()]

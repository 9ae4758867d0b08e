"""The package's record classes (``record.Record`` subclasses, which
replaced frozen dataclasses): one fixed instance of each prints what the
dataclass printed; records with equal fields are equal and hash alike,
records of different classes never are, assignment raises
AttributeError, and the caches a record keeps (the division kernel, the
norm levels, the root kernel) stay out of equality, hash and repr."""

from fractions import Fraction

import pytest

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import lattice as lam
from latnaf import nadscheck as ncm
from latnaf import numberfield as nfm
from latnaf import optimality as om
from latnaf import quadform as qf


def fixtures():
    nf = nfm.build([-3, 1])
    geo = dsm.geometry(nf)
    ds = dsm.build_minimal_norm(geo, 2)
    cyc = em.CycleReport((1,), ((1,), (2,)))
    return {
        "LatticeInstance": lam.LatticeInstance.from_matrix([[3, 1], [-1, 3]]),
        "NumberFieldInstance": nf,
        "Geometry": geo,
        "DigitSet": ds,
        "NormContext": geo.norm_context,
        "Expansion": em.expand(ds, (23,)),
        "CycleReport": cyc,
        "NadsVerdict": ncm.NadsVerdict(
            "counterexample", witness=cyc, search_radius=Fraction(7, 2)
        ),
        "OptimalityCertificate": om.check_hypotheses(ds),
        "VerifyReport": om.VerifyReport(5),
        "LDL": qf.ldl([[2, 1], [1, 2]]),
    }


FIXTURES = fixtures()

# the fields of each class, in order: its keyword arguments
FIELDS = {
    "LatticeInstance": ("n", "phi", "det"),
    "NumberFieldInstance": (
        "min_poly", "s", "t", "lattice", "gram_kind", "gram", "equal_modulus_sq",
    ),
    "Geometry": ("inst", "nf", "gram", "precision_cap_bits"),
    "DigitSet": ("geo", "w", "digits", "family"),
    "NormContext": ("r_sq", "R_sq"),
    "Expansion": ("point", "word", "w"),
    "CycleReport": ("point", "cycle"),
    "NadsVerdict": ("status", "bound_used", "witness", "search_radius"),
    "OptimalityCertificate": (
        "cell_symmetric", "cell_within_base_image", "contraction_below_cell_ratio",
        "window_inequality", "w", "r_sq", "R_sq", "u_enclosure",
    ),
    "VerifyReport": ("points_checked", "violations", "sampled"),
    "LDL": ("den", "pivots", "upper", "weights", "scale"),
}

# printed by the frozen dataclasses these classes replaced
_LAT3 = "LatticeInstance(n=1, phi=((3,),), det=3)"
_NF3 = (
    f"NumberFieldInstance(min_poly=(-3, 1), s=1, t=0, lattice={_LAT3}, "
    "gram_kind='power-sums', gram=((Fraction(1, 1),),), equal_modulus_sq=None)"
)
_GEO3 = (
    f"Geometry(inst={_LAT3}, nf={_NF3}, gram=((Fraction(1, 1),),), "
    "precision_cap_bits=4096)"
)
_CYC = "CycleReport(point=(1,), cycle=((1,), (2,)))"
REPRS = {
    "LatticeInstance": "LatticeInstance(n=2, phi=((3, 1), (-1, 3)), det=10)",
    "NumberFieldInstance": _NF3,
    "Geometry": _GEO3,
    "DigitSet": (
        f"DigitSet(geo={_GEO3}, w=2, digits=((-4,), (-2,), (-1,), (0,), (1,), "
        "(2,), (4,)), family='minimal-norm')"
    ),
    "NormContext": "NormContext(r_sq=Fraction(1, 4), R_sq=Fraction(1, 4))",
    "Expansion": "Expansion(point=(23,), word=((-4,), (0,), (0,), (1,)), w=2)",
    "CycleReport": _CYC,
    "NadsVerdict": (
        f"NadsVerdict(status='counterexample', bound_used=None, witness={_CYC}, "
        "search_radius=Fraction(7, 2))"
    ),
    "OptimalityCertificate": (
        "OptimalityCertificate(cell_symmetric=True, cell_within_base_image=True, "
        "contraction_below_cell_ratio=True, window_inequality=True, w=2, "
        "r_sq=Fraction(1, 4), R_sq=Fraction(1, 4), u_enclosure=Interval(1/3, 1/3))"
    ),
    "VerifyReport": "VerifyReport(points_checked=5, violations=(), sampled=False)",
    "LDL": "LDL(den=1, pivots=(2, 3), upper=((1,), ()), weights=(3, 1), scale=6)",
}

NAMES = sorted(FIXTURES)


def rebuilt(name):
    x = FIXTURES[name]
    return type(x)(**{k: getattr(x, k) for k in FIELDS[name]})


def test_every_record_class_is_covered():
    assert set(FIXTURES) == set(FIELDS) == set(REPRS)
    assert all(type(x).__name__ == name for name, x in FIXTURES.items())


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_text(name):
    assert repr(FIXTURES[name]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records(name):
    x, y = FIXTURES[name], rebuilt(name)
    assert y is not x
    assert y == x and not y != x
    assert hash(y) == hash(x)
    assert repr(y) == repr(x)


@pytest.mark.parametrize("name", NAMES)
def test_records_of_other_classes_are_never_equal(name):
    x = FIXTURES[name]
    twin = type("Twin", (type(x),), {})(**{k: getattr(x, k) for k in FIELDS[name]})
    assert twin != x and x != twin
    assert x != tuple(getattr(x, k) for k in FIELDS[name])
    assert all(x != y for other, y in FIXTURES.items() if other != name)


@pytest.mark.parametrize("name", NAMES)
def test_assignment_raises(name):
    x = FIXTURES[name]
    for k in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, k, None)
    for k in FIELDS[name]:
        with pytest.raises(AttributeError):
            delattr(x, k)
    assert repr(x) == REPRS[name]


def test_caches_stay_out_of_eq_hash_and_repr():
    """A record whose cache is filled equals, hashes and prints like its
    twin with an empty one."""
    ds, twin = FIXTURES["DigitSet"], rebuilt("DigitSet")
    assert ds.divide((23,)) == ((-4,), (9,))
    geo, geo_twin = FIXTURES["Geometry"], rebuilt("Geometry")
    geo.enclosure()
    assert geo.norm_sq_interval((5,)) == (25, 25, 1)
    nf, nf_twin = FIXTURES["NumberFieldInstance"], rebuilt("NumberFieldInstance")
    assert nf.roots is nf.roots
    for x, y in ((ds, twin), (geo, geo_twin), (nf, nf_twin)):
        assert vars(x) != vars(y)
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)

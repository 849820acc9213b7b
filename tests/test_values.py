"""Value semantics of the exact objects, and an import that needs no dataclasses
and no fractions.

Rings, scalars, polynomials, quotient classes, fields, spaces and
hypersurfaces are plain classes on one base, `rinehart.rings.Value`:
equality field by field within one class, a hash consistent with it, a
repr of the fields and no assignment to a field.  The classes built once per
sum keep their fields in slots, and an instance `__dict__` only for their
lazy fields.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from rinehart import (OneForm, PrimeField, QuadExt, QuotientElem, Rationals,
                      RinehartSpace, VectorField, make_sphere, normal_form, parse_poly)
from rinehart.poly import quotient_sum
from rinehart.randgen import scalar_pool
from rinehart.rings import lazy
from rinehart.suites import Workspace

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by_importing_the_cli(names) -> str:
    """The modules among `names` that a fresh interpreter holds after `import rinehart.cli`."""
    # -S keeps site hooks, which may import such modules themselves, out of the count
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import rinehart.cli; "
            f"print(sorted({set(names)!r} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.strip()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert loaded_by_importing_the_cli(["dataclasses", "inspect"]) == "[]"


def test_importing_the_cli_loads_no_fractions():
    # a scalar is a numerator over a denominator, so the engine needs no Fraction
    assert loaded_by_importing_the_cli(["fractions", "decimal", "numbers"]) == "[]"


def test_equal_values_have_equal_hashes():
    assert PrimeField(7) is not PrimeField(7)
    assert PrimeField(7) == PrimeField(7) and hash(PrimeField(7)) == hash(PrimeField(7))
    assert PrimeField(7) != PrimeField(5)
    assert Rationals() == Rationals() and hash(Rationals()) == hash(Rationals())
    assert Rationals() != PrimeField(7) and PrimeField(7) != Rationals()
    qi = QuadExt(Rationals(), -1)
    assert qi == QuadExt(Rationals(), -1) and hash(qi) == hash(QuadExt(Rationals(), -1))
    assert qi != QuadExt(Rationals(), 1) and qi != QuadExt(PrimeField(7), -1)
    # separately built rings share one functools.cache entry
    assert scalar_pool(PrimeField(7)) is scalar_pool(PrimeField(7))
    a = parse_poly("x^2 + 2*y", Rationals(), ("x", "y"))
    b = parse_poly("2*y + x*x", Rationals(), ("x", "y"))
    assert a is not b and a == b and hash(a) == hash(b)


def test_a_vector_field_never_equals_a_one_form():
    space = RinehartSpace.euclidean(Rationals(), ("x", "y"))
    coeffs = (space.fn("x"), space.fn("1"))
    field = VectorField(space, coeffs)
    assert field == VectorField(space, coeffs) and hash(field) == hash(VectorField(space, coeffs))
    assert field != OneForm(space, coeffs) and not field == OneForm(space, coeffs)


def test_fields_cannot_be_assigned():
    hyper = make_sphere(Rationals(), 3, Rationals().one())
    f = hyper.quotient.fn("x1*x2")
    form = OneForm(hyper.quotient, hyper.normal.coeffs)
    for obj in (f.rep, f, Rationals().one(), hyper.normal, form, hyper):
        assert obj._fields
        for name in obj._fields:
            value = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is value
    assert hyper.normal_covector is hyper.normal_covector  # cached on the instance


def test_hot_values_keep_their_fields_in_slots():
    hyper = make_sphere(Rationals(), 3, Rationals().one())
    f = hyper.quotient.fn("x1*x2")
    assert not hasattr(f, "__dict__")  # a class holds its rep and ideal and nothing more
    assert f.rep.partials and hyper.normal.reps  # builds both lazy fields
    # the instance dicts hold the lazy fields alone
    assert set(vars(f.rep)) == {"partials"} and set(vars(hyper.normal)) == {"reps"}


def test_lazy_fields_are_built_once_and_cannot_be_assigned():
    q = Rationals()
    hyper = make_sphere(q, 3, q.one())
    objects = [hyper.generator, hyper.ideal, QuadExt(q, -1), hyper.ambient.metric, hyper,
               Workspace(hyper.ambient, hyper, q.one()), hyper.normal]
    seen = set()
    for obj in objects:
        for cls in type(obj).__mro__:  # a lazy field may live on a base class
            for name, attr in vars(cls).items():
                if isinstance(attr, lazy):
                    seen.add(f"{cls.__name__}.{name}")
                    first = getattr(obj, name)
                    assert getattr(obj, name) is first, name
                    with pytest.raises(AttributeError):
                        setattr(obj, name, first)
    assert seen == {
        "Poly.partials", "Poly.division", "_Coefficients.reps",
        "Metric._minors", "Metric._adjugate",
        "Metric.det_status", "Metric.inverse",
        "HypersurfaceSpace.normal_covector", "HypersurfaceSpace.scaled_normal",
        "HypersurfaceSpace.hessian",
        "HypersurfaceSpace.spanning", "HypersurfaceSpace._induced_memo",
        "HypersurfaceSpace._tangent_keys", "Workspace.plain_connection", "Workspace.connection"}


def test_repr_names_the_fields():
    assert repr(PrimeField(7)) == "PrimeField(p=7)"
    assert repr(Rationals()) == "Rationals()"
    assert repr(QuadExt(PrimeField(3), 1)) == "QuadExt(base=PrimeField(p=3), s=1)"


def test_a_class_built_from_an_unreduced_representative_is_reduced():
    hyper = make_sphere(Rationals(), 3, Rationals().one())
    names, ideal = hyper.quotient.var_names, hyper.ideal
    raw = parse_poly("x1^3 + x1*x2^2", Rationals(), names)
    elem = QuotientElem(raw, ideal)
    assert elem.rep != raw and elem.rep == normal_form(raw, ideal)
    assert elem == hyper.quotient.fn("x1 - x1*x3^2")  # x1 (x1^2 + x2^2) = x1 (1 - x3^2)
    x1 = parse_poly("x1", Rationals(), names)
    # the reduced sum of products is the same class, built without the scan
    assert quotient_sum(Rationals(), 3, [(x1, raw)], ideal) == QuotientElem(x1 * raw, ideal)

"""Refusals and short paths that no other test reaches, one pin each, and the
package's public names."""

import pytest

import rinehart
from rinehart import (ArityMismatch, IdealMismatch, NotAUnit, ParseError, Poly, PrimeField,
                      PrincipalIdeal, QuadExt, QuotientElem, Rationals, Report, RingMismatch,
                      UnitStatus, divmod_poly, make_sphere, normal_form, parse_poly,
                      ring_from_json, unit_status)

Q = Rationals()
QJ = QuadExt(Q, 1)  # 1 + al is a zero divisor: (1 + al)(1 - al) = 0


def over(ring, text):
    return parse_poly(text, ring, ("x",))


def test_the_parser_names_an_unexpected_character_and_its_position():
    with pytest.raises(ParseError, match=r"^unexpected character '\$' \(at position 2\)$"):
        parse_poly("x $ y", Q, ("x", "y"))


def test_polynomial_constructors_refuse_out_of_range_input():
    with pytest.raises(ArityMismatch, match="exponent tuples must have 2 entries"):
        Poly.from_dict(Q, 2, {(1,): Q.one()})
    with pytest.raises(IndexError, match="variable index 2 out of range for 2 variables"):
        Poly.variable(Q, 2, 2)


def test_inspection_refuses_a_question_with_no_answer():
    with pytest.raises(ValueError, match="polynomial is not constant"):
        over(Q, "x").constant_value()
    with pytest.raises(ValueError, match="zero polynomial has no leading term"):
        Poly.zero(Q, 1).leading_term()


def test_a_non_unit_leading_coefficient_is_refused():
    with pytest.raises(NotAUnit, match="ideal generator needs a unit leading coefficient"):
        PrincipalIdeal.of(over(QJ, "(1+al)*x + 1"))
    with pytest.raises(NotAUnit, match=r"norm a\^2 - s\*b\^2 is not a unit"):
        divmod_poly(over(QJ, "x^2"), over(QJ, "(1+al)*x"))


def test_classes_refuse_operands_of_another_ring():
    ideal = PrincipalIdeal.of(over(Q, "x^2 - 1"))
    with pytest.raises(IdealMismatch, match="polynomial and ideal live in different rings"):
        QuotientElem(over(PrimeField(7), "x"), ideal)
    with pytest.raises(RingMismatch, match=r"PrimeField\(p=7\) vs Rationals\(\)"):
        QuotientElem(over(Q, "x"), ideal) + PrimeField(7).one()


def test_unit_status_of_a_non_unit_constant_and_over_a_ring_with_zero_divisors():
    assert unit_status(QuotientElem(over(QJ, "1+al"), None)) == (UnitStatus.NON_UNIT, None)
    ideal = PrincipalIdeal.of(over(QJ, "x^2 - 1"))
    assert unit_status(QuotientElem(over(QJ, "x"), ideal)) == (UnitStatus.UNKNOWN, None)


@pytest.mark.parametrize("obj, message", [
    ({"kind": "Fp", "p": "7"}, "Fp descriptor needs an integer 'p'"),
    ({"kind": "quad", "s": 1}, "quad descriptor needs 'base' and 's'"),
    ({"kind": "Fp", "p": True}, "Fp descriptor needs an integer 'p'"),
])
def test_ring_from_json_refuses_a_malformed_descriptor(obj, message):
    with pytest.raises(ValueError, match=message):
        ring_from_json(obj)


def test_a_value_needs_one_value_per_field():
    with pytest.raises(TypeError, match="Report takes 2 values"):
        Report("torsion")


def test_short_paths_return_their_input():
    qi = QuadExt(Q, -1)
    assert qi.scalar(3) == qi.from_int(3)
    hyper = make_sphere(Q, 3, Q.one())
    field = hyper.ambient.basis_field(0)
    assert hyper.to_ambient(field) is field
    g = over(Q, "x^2 + 1")
    assert normal_form(g, None) is g


def test_every_public_name_resolves_and_the_removed_ones_are_gone():
    assert all(hasattr(rinehart, name) for name in rinehart.__all__)
    for name in ("LeviCivitaReport", "ConstantCurvatureReport", "SpaceFormReport",
                 "CharTwoUnsupported"):
        assert name not in rinehart.__all__ and not hasattr(rinehart, name)

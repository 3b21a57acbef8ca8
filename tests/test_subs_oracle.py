"""Substitution and exact division against references that do not share
the kernel's code path: sympy's ``cancel`` of the substituted expression,
and a term-by-term composition that normalizes every term and partial sum
(where ``Scalar.subs`` composes over one common denominator).

The random cases are seeded, so every run exercises the same inputs."""

import random
from fractions import Fraction

import pytest

from corpus import mk
from dtflat.errors import SubstitutionSingular
from dtflat.exprs import (
    Poly,
    Scalar,
    Substitution,
    parse_scalar,
    poly_divexact,
)
from dtflat.systems import build_adapted_chart

sympy = pytest.importorskip("sympy")

VARS = ["x1", "x2", "x3"]


def reference_subs(s: Scalar, bindings) -> Scalar:
    """Term-by-term composition: every term and partial sum is a canonical
    Scalar of its own."""
    bindings = {k: Scalar.of(v) for k, v in bindings.items()}

    def poly_subs(p: Poly) -> Scalar:
        total = Scalar(0)
        for mono, c in p.terms.items():
            term = Scalar(c)
            for name, exp in mono:
                term = term * bindings.get(name, Scalar.var(name)) ** exp
            total = total + term
        return total

    den = poly_subs(s.den)
    if den.is_zero():
        raise SubstitutionSingular("denominator maps to zero")
    return poly_subs(s.num) / den


def to_sympy(s: Scalar):
    return sympy.sympify(str(s).replace("^", "**"))


def sympy_subs(s: Scalar, bindings):
    """sympy.cancel of the simultaneous substitution."""
    expr = to_sympy(s).subs({sympy.Symbol(k): to_sympy(v)
                             for k, v in bindings.items()}, simultaneous=True)
    return sympy.cancel(expr)


def random_poly(rng: random.Random, terms: int, degree: int) -> Scalar:
    total = Scalar(0)
    for _ in range(terms):
        term = Scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                               rng.randint(1, 2)))
        for _ in range(rng.randint(0, degree)):
            term = term * Scalar.var(rng.choice(VARS))
        total = total + term
    return total


def random_rational(rng: random.Random, degree: int = 2) -> Scalar:
    num = random_poly(rng, rng.randint(1, 3), degree)
    den = random_poly(rng, rng.randint(1, 3), degree)
    return num if den.is_zero() else num / den


def random_bindings(rng: random.Random) -> dict:
    """Rational bindings for a random subset of VARS, over the same
    variables, so the substitution must be simultaneous."""
    names = rng.sample(VARS, rng.randint(1, len(VARS)))
    return {v: random_rational(rng, 1) for v in names}


def same_as_sympy(got: Scalar, expected) -> bool:
    p, q = sympy.fraction(expected)
    return sympy.expand(p * to_sympy(Scalar(got.den))
                        - q * to_sympy(Scalar(got.num))) == 0


def test_subs_matches_sympy_and_reference():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(60):
        s = random_rational(rng)
        bindings = random_bindings(rng)
        try:
            got = s.subs(bindings)
        except SubstitutionSingular:
            with pytest.raises(SubstitutionSingular):
                reference_subs(s, bindings)
            continue
        assert got == reference_subs(s, bindings)
        assert same_as_sympy(got, sympy_subs(s, bindings))
        checked += 1
    assert checked >= 50


def test_simultaneous_swap():
    s = parse_scalar("(x1 + 2*x2^2)/(x1*x2 - 3)")
    swap = {"x1": Scalar.var("x2"), "x2": Scalar.var("x1")}
    assert s.subs(swap) == parse_scalar("(x2 + 2*x1^2)/(x1*x2 - 3)")


def test_reused_substitution_matches_fresh_calls():
    rng = random.Random(7)
    bindings = random_bindings(rng)
    sub = Substitution(bindings)
    for _ in range(30):
        s = random_rational(rng, 3)
        try:
            fresh = s.subs(bindings)
        except SubstitutionSingular:
            with pytest.raises(SubstitutionSingular):
                s.subs(sub)
            continue
        assert s.subs(sub) == fresh


def test_reused_substitution_with_nested_names():
    # x1 is composed first and x2 under it: x2 occurs at degree 2 under
    # x1^0, x1^1 and x1^2, so one Substitution builds the same powers of
    # x2 for each exponent of x1, and again for the next expression
    bindings = {"x1": parse_scalar("(x2 + 1)/(x3 - 2)"),
                "x2": parse_scalar("x1*x3/(x1^2 + 3)"),
                "x3": parse_scalar("x1 - x2")}
    sub = Substitution(bindings)
    for text in ["x1^2*x2^2 + x1*x2^2 + x2^2 - 2*x1*x2 + x3",
                 "(x1*x2^2 - x2^2 + x3)/(x1^2*x2 + x2^2 + 1)",
                 "x2^2*x3^2 + x1*x2^2*x3 - x1^2*x2^2"]:
        s = parse_scalar(text)
        got = s.subs(sub)
        assert got == reference_subs(s, bindings) == s.subs(bindings)
        assert same_as_sympy(got, sympy_subs(s, bindings))


def test_rat4_inverse_round_trip():
    n = 4
    states = [f"x{i}" for i in range(1, n + 1)]
    f = [f"x{i + 1}/(1 + x{i}^2)" for i in range(1, n)] + ["u1*(1 + x1)"]
    chart = build_adapted_chart(mk(states, ["u1"], f, name="rat4"))
    for v, expr in sorted(chart.inverse.items()):
        assert expr.subs(chart.forward) == Scalar.var(v)
        assert reference_subs(expr, chart.forward) == Scalar.var(v)
        assert sympy_subs(expr, chart.forward) == sympy.Symbol(v)


def test_denominator_mapped_to_zero_is_singular():
    s = parse_scalar("x3/(x1 - x2^2)")
    bindings = {"x1": parse_scalar("x2^2")}
    with pytest.raises(SubstitutionSingular):
        s.subs(bindings)
    with pytest.raises(SubstitutionSingular):
        s.subs(Substitution(bindings))
    # a rational binding whose numerator cancels the denominator
    s = parse_scalar("1/(x1*x2 - 1)")
    with pytest.raises(SubstitutionSingular):
        s.subs({"x1": parse_scalar("1/x2")})


def test_divexact_recovers_factor():
    rng = random.Random(11)
    for _ in range(40):
        a = random_poly(rng, rng.randint(1, 4), 3).num
        b = random_poly(rng, rng.randint(1, 4), 3).num
        if b.is_zero():
            continue
        assert poly_divexact(a * b, b) == a


def test_divexact_rejects_inexact_division():
    x1, x2 = Poly.variable("x1"), Poly.variable("x2")
    one = Poly.const(1)
    for a, b in [(x1 * x1 + one, x1 + one),
                 (x1 * x2 + one, x1),
                 (x1 + x2, x1 - x2)]:
        with pytest.raises(ArithmeticError):
            poly_divexact(a, b)

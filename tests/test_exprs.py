"""Unit tests for the exact rational function kernel."""

from fractions import Fraction
from operator import mul, truediv

import pytest

from dtflat.errors import (
    CoefficientVanishes,
    DivisionByZeroScalar,
    EvalSingular,
    NonRationalExpression,
    NotLinearInVariable,
    ParseError,
    SubstitutionSingular,
)
import dtflat.exprs as exprs
from dtflat.exprs import (
    ONE,
    Poly,
    Scalar,
    _primitive,
    parse_scalar,
    poly_divexact,
    poly_gcd,
    solve_linear_in,
    solves_linear,
)

x1, x2, x3, x4 = (Scalar.var(f"x{i}") for i in range(1, 5))
u1, u2 = Scalar.var("u1"), Scalar.var("u2")
F1 = (x2 + x3 + 3 * x4) / (u1 + 2 * u2 + 1)


class TestArithmetic:
    def test_additive_identity(self):
        assert (x1 / u1) + Scalar(0) == x1 / u1

    def test_common_denominator_collapses(self):
        assert Scalar(1) / (u1 + 2 * u2 + 1) + (u1 + 2 * u2) / (u1 + 2 * u2 + 1) == ONE

    def test_additive_inverse(self):
        a = (x3 + 1) / x1
        assert (a + (-a)).is_zero()

    def test_mul_cancellation(self):
        assert x1 * ((x3 + 1) / x1) == x3 + Scalar(1)

    def test_div_forms_denominator(self):
        s = Scalar(1) / (u1 + 2 * u2 + 1)
        assert str(s) == "1/(u1 + 2*u2 + 1)"

    def test_multiplicative_inverse(self):
        a = x2 + x3 + 3 * x4
        assert a * (Scalar(1) / a) == ONE

    def test_division_by_zero_scalar(self):
        with pytest.raises(DivisionByZeroScalar):
            x1 / (x2 - x2)

    def test_den_is_primitive_with_positive_lead(self):
        s = x1 / (-2 * u1 - 4)
        # num and den have integer coefficients, no common integer factor,
        # and the den leads with a positive coefficient
        assert s.num.terms == {(("x1", 1),): -1}
        assert s.den.terms == {(("u1", 1),): 2, (): 4}
        assert s == (-x1 / 2) / (u1 + 2)
        assert str(s) == "-1/2*x1/(u1 + 2)"

    def test_pow(self):
        assert (x1 + 1) ** 0 == ONE
        assert (x1 + 1) ** 2 == x1 * x1 + 2 * x1 + 1
        assert (x1 + 1) ** -1 == Scalar(1) / (x1 + 1)

    def test_equality_is_canonical(self):
        a = (x1 * x1 - 1) / (x1 - 1)
        assert a == x1 + 1


class TestDifferentiate:
    def test_product_component(self):
        assert (x1 * (x3 + 1)).diff("x3") == x1

    def test_constant(self):
        assert Scalar(Fraction(7, 3)).diff("x1").is_zero()

    def test_quotient_rule(self):
        expected = Scalar(-2) * (x2 + x3 + 3 * x4) / ((u1 + 2 * u2 + 1) ** 2)
        assert F1.diff("u2") == expected

    def test_linearity(self):
        a, b = (x1 + u1) / (x2 + 1), x3 * u2
        got = (a + b).diff("x2")
        assert got == a.diff("x2") + b.diff("x2")

    def test_leibniz(self):
        a, b = (x1 + u1) / (x2 + 1), (x3 * u2 + x2)
        lhs = (a * b).diff("x2")
        rhs = a.diff("x2") * b + a * b.diff("x2")
        assert lhs == rhs


class TestSubstitute:
    def test_forward_composition(self):
        got = (x1 + u1).subs({"x1": F1})
        assert got == F1 + u1

    def test_identity(self):
        assert F1.subs({}) == F1

    def test_singular(self):
        with pytest.raises(SubstitutionSingular):
            (Scalar(1) / x1).subs({"x1": Scalar(0)})

    def test_composes(self):
        a = (x1 + x2) / (x3 + 1)
        g = {"x1": x2 * x2, "x2": x3 + 1}
        h = {"x2": u1, "x3": u2}
        composed = {"x1": g["x1"].subs(h), "x2": g["x2"].subs(h), "x3": h["x3"]}
        assert a.subs(g).subs(h) == a.subs(composed)


class TestSolveLinear:
    def test_two_input_combination(self):
        th3 = Scalar.var("th3")
        assert solve_linear_in(u1 + 2 * u2, th3, "u1") == th3 - 2 * u2

    def test_trivial(self):
        th1 = Scalar.var("th1")
        assert solve_linear_in(x1, th1, "x1") == th1

    def test_rational_equation(self):
        th1 = Scalar.var("th1")
        sol = solve_linear_in(F1, th1, "x2")
        assert sol == th1 * (u1 + 2 * u2 + 1) - x3 - 3 * x4
        assert F1.subs({"x2": sol}) == th1

    def test_not_linear(self):
        with pytest.raises(NotLinearInVariable):
            solve_linear_in(x1 * x1, x2, "x1")

    def test_coefficient_vanishes(self):
        with pytest.raises(CoefficientVanishes):
            solve_linear_in(x2 + x3, x2 + x3, "x1")

    def test_solves_linear(self):
        th1 = Scalar.var("th1")
        e = F1 - th1
        sol = solve_linear_in(F1, th1, "x2")
        assert solves_linear(e, "x2", sol)
        assert not solves_linear(e, "x2", sol + 1)
        assert not solves_linear(x2 * x2 - th1, "x2", th1)
        # the variable in the denominator: e is substituted
        e = Scalar(1) / x2 - th1
        assert solves_linear(e, "x2", Scalar(1) / th1)
        assert not solves_linear(e, "x2", th1)


class TestZeroAndEval:
    def test_is_zero_commutator(self):
        assert (x1 * x3 - x3 * x1).is_zero()

    def test_eval(self):
        assert ((x3 + 1) / x1).eval_at({"x3": Fraction(1), "x1": Fraction(2)}) == 1

    def test_eval_singular(self):
        with pytest.raises(EvalSingular):
            (Scalar(1) / x1).eval_at({"x1": Fraction(0)})

    def test_eval_unbound(self):
        with pytest.raises(ValueError):
            (x1 + x2).eval_at({"x1": Fraction(1)})

    def test_eval_fraction_matches_term_by_term(self):
        # one division at the end gives the value of the Fraction sum
        p = (x1 * x1 * x2 - 3 * x2 * x3 + 7 * x1 + 5).num
        for point in ({"x1": Fraction(2, 3), "x2": Fraction(-5, 7),
                       "x3": Fraction(4)},
                      {"x1": 2, "x2": -1, "x3": 3}):
            want = Fraction(0)
            for mono, c in p.terms.items():
                term = Fraction(c)
                for name, e in mono:
                    term *= Fraction(point[name]) ** e
                want += term
            assert p.eval_fraction(point) == want


class TestParsing:
    def test_rational_literal(self):
        assert parse_scalar("3/4") == Scalar(Fraction(3, 4))

    def test_precedence(self):
        assert parse_scalar("1 + 2*x1^2") == Scalar(1) + 2 * x1 * x1

    def test_negative_exponent(self):
        assert parse_scalar("x1^(-2)") == Scalar(1) / (x1 * x1)
        assert parse_scalar("x1^-2") == Scalar(1) / (x1 * x1)

    def test_unary_minus(self):
        assert parse_scalar("-x1 + - 2") == -x1 - 2

    def test_function_call_rejected(self):
        with pytest.raises(NonRationalExpression):
            parse_scalar("sin(x1)")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("2 x1")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_scalar("(x1 + 2")

    def test_garbage_character(self):
        with pytest.raises(ParseError):
            parse_scalar("x1 $ 2")

    def test_division_by_zero_literal(self):
        with pytest.raises(ParseError):
            parse_scalar("1/0")

    @pytest.mark.parametrize("text, message", [
        ("x1)", "col 3: unexpected token ')'"),
        ("*x1", "col 1: unexpected token '*'"),
        ("x1^y", "col 4: expected integer exponent"),
        ("x1^-y", "col 5: expected integer exponent"),
    ])
    def test_misplaced_token_is_named(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_scalar(text)
        assert str(err.value) == message

    def test_nesting_within_the_stack_parses(self):
        assert parse_scalar("(" * 50 + "x1" + ")" * 50) == x1
        assert parse_scalar("-" * 101 + "x1") == -x1

    def test_recursion_limit_is_a_parse_error(self, monkeypatch):
        # the recursion itself is run from the command line tests; here
        # the limit is only signalled, so that a statement trace (which
        # the real limit switches off) sees the handler run
        def too_deep(self):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(exprs._Parser, "parse", too_deep)
        with pytest.raises(ParseError) as err:
            parse_scalar("x1")
        assert str(err.value) == "expression nested too deeply"
        assert err.value.__suppress_context__

    @pytest.mark.parametrize("text, col", [("x1+", 4), ("", 1),
                                           ("(x1 + 2) * ", 12)])
    def test_end_of_input_is_named(self, text, col):
        with pytest.raises(ParseError) as err:
            parse_scalar(text)
        assert str(err.value) == f"col {col}: unexpected end of expression"
        assert err.value.col == col


class TestPrinting:
    def test_fixed_term_order(self):
        s = parse_scalar("x2 + x1 + x1*x2 + 1")
        assert str(s) == "x1*x2 + x1 + x2 + 1"

    def test_negative_leading(self):
        assert str(-x1 + x2) == "-x1 + x2"

    def test_den_parenthesization(self):
        assert str(x2 / x1) == "x2/x1"
        assert str(x2 / (x1 ** 2)) == "x2/x1^2"
        assert str(x2 / (2 * x1)) == str((x2 / 2) / x1)

    def test_roundtrip_examples(self):
        for text in ["(x2 + x3 + 3*x4)/(u1 + 2*u2 + 1)",
                     "x1*(x3 + 1)*(u1 + 2*u2 - 3) + x4 - 3*u2",
                     "-1/2 + x1^3/7", "x1/(x1 + 1) - 5"]:
            s = parse_scalar(text)
            assert parse_scalar(str(s)) == s


class TestPolyInternals:
    def test_gcd_reduction(self):
        a = Poly.variable("x1") + Poly.const(1)
        b = Poly.variable("x2") + Poly.const(-3)
        c = Poly.variable("x1") * Poly.variable("x2")
        s = Scalar(a * b * c, a * c)
        assert s == Scalar(b)

    def test_rename(self):
        s = F1.rename({"x2": "th2", "u1": "v"})
        assert s == (Scalar.var("th2") + x3 + 3 * x4) / (Scalar.var("v") + 2 * u2 + 1)

    def test_rename_onto_another_variable_rejected(self):
        with pytest.raises(ValueError, match="rename collides"):
            (x1 * x2).rename({"x1": "x2"})

    def test_zero_cases(self):
        zero = Poly({})
        assert zero.const_value() == 0
        assert Poly.variable("x1").scale(0) == zero
        assert poly_gcd(zero, zero) == zero
        assert exprs._mono_cmp((("x1", 2),), (("x1", 2),)) == 0
        with pytest.raises(ZeroDivisionError):
            poly_divexact(Poly.variable("x1"), zero)
        with pytest.raises(DivisionByZeroScalar, match="zero polynomial"):
            Scalar(1, 0)
        with pytest.raises(DivisionByZeroScalar, match="negative power"):
            Scalar(0) ** -1

    def test_repr(self):
        assert repr(Poly.variable("x1")) == "Poly(x1)"
        assert repr(x1 / x2) == "Scalar(x1/x2)"

    def test_gcd_past_the_heuristic(self):
        # a common factor of degree 2001 needs more base-xi digits than
        # the heuristic reconstructs, at every one of its evaluation
        # points, so the pseudo-remainder sequence finds it
        common = parse_scalar("x^2001 + 1").num
        a = common * parse_scalar("x + 2").num
        b = common * parse_scalar("x + 3").num
        assert exprs._heu_gcd(a.terms, b.terms) is None
        assert poly_gcd(a, b) == common

    def test_solution_singular_in_the_denominator(self):
        # x = 0 makes the denominator of (x + 1)/x vanish: no solution
        x = Scalar.var("x")
        assert not solves_linear((x + 1) / x, "x", Scalar(0))


X, Y, Z = (((name, 1),) for name in ("x", "y", "z"))


def assert_exact(p: Poly, want: dict):
    """p has the terms want, with an int for every coefficient: never a
    Fraction, a float or a bool."""
    assert p.terms == want
    for c in p.terms.values():
        assert type(c) is int, repr(c)


class TestDivisionShapes:
    """Exact division answers a single-term divisor, a == +-b and a
    single-term quotient in one pass, without the heap of the general
    loop; every answer, exact or not, is the one the loop gives."""

    x, y = Poly.variable("x"), Poly.variable("y")

    @pytest.fixture
    def heapified(self, monkeypatch):
        """One entry per heap the division builds while the test runs."""
        calls, real = [], exprs.heapq.heapify

        def spy(heap):
            calls.append(len(heap))
            return real(heap)

        monkeypatch.setattr(exprs.heapq, "heapify", spy)
        return calls

    def test_single_term_divisors(self, heapified):
        x, y = self.x, self.y
        p = x * x * y.scale(6) + x * y.scale(3)
        assert_exact(poly_divexact(p, x * y.scale(3)), {X: 2, (): 1})
        assert_exact(poly_divexact(p, x * y.scale(-3)), {X: -2, (): -1})
        assert_exact(poly_divexact(p, Poly.const(3)),
                     {(("x", 2), ("y", 1)): 2, (("x", 1), ("y", 1)): 1})
        assert poly_divexact(p, Poly.const(1)) == p
        assert poly_divexact(p, Poly.const(-1)) == -p
        assert heapified == []

    def test_single_term_divisor_that_does_not_divide(self, heapified):
        x, y = self.x, self.y
        # 4*x*y leaves a remainder by 3*x*y; x does not divide by x*y, and
        # x*y has a variable that x^2 lacks
        p = x * x * y.scale(6) + x * y.scale(4)
        assert exprs._divide(p.terms, (x * y.scale(3)).terms) is None
        with pytest.raises(ArithmeticError):
            poly_divexact(p, x * y.scale(3))
        with pytest.raises(ArithmeticError):
            poly_divexact(p, Poly.const(4))
        assert exprs._divide((x * x * y + x).terms, (x * y).terms) is None
        assert exprs._divide((x * x).terms, y.terms) is None
        assert heapified == []

    def test_equal_and_opposite_operands(self, heapified):
        p = self.x * self.x - self.y.scale(3) + Poly.const(2)
        assert_exact(poly_divexact(p, p), {(): 1})
        assert_exact(poly_divexact(-p, p), {(): -1})
        assert_exact(poly_divexact(p, -p), {(): -1})
        assert heapified == []

    def test_single_term_quotient(self, heapified):
        x, y = self.x, self.y
        b = x * y + Poly.const(2)
        assert_exact(poly_divexact((x * x).scale(3) * b, b), {(("x", 2),): 3})
        assert_exact(poly_divexact(b.scale(-2), b), {(): -2})
        assert heapified == []
        # same length and lead quotient 1, but x*y + 3 is not 1*b: the
        # loop decides, and finds the remainder
        assert exprs._divide((x * y + Poly.const(3)).terms, b.terms) is None
        assert len(heapified) == 1

    def test_equal_length_two_term_quotient_falls_through(self, heapified):
        # (x^2 - 1)/(x - 1) keeps the length with a quotient of two terms:
        # the single-term check fails and the loop gives x + 1
        one = Poly.const(1)
        assert_exact(poly_divexact(self.x * self.x - one, self.x - one),
                     {X: 1, (): 1})
        assert len(heapified) == 1


class TestExactCoefficients:
    """Each division of coefficients, at each site, on int operands stays
    in the integers: an int / int there would be a float, and a Fraction
    would leave Z[x]."""

    x = Poly.variable("x")

    def test_primitive(self):
        assert _primitive(self.x.scale(3) + Poly.const(1)) == (
            1, self.x.scale(3) + Poly.const(1))
        content, part = _primitive(self.x.scale(-6) + Poly.const(4))
        assert content == -2
        assert_exact(part, {X: 3, (): -2})

    def test_divexact_by_a_constant(self):
        assert_exact(poly_divexact(self.x.scale(6), Poly.const(3)), {X: 2})
        with pytest.raises(ArithmeticError):
            poly_divexact(self.x.scale(2), Poly.const(3))

    def test_divexact_quotient(self):
        # (2*x^2 + x) / x is exact in Z[x]; by 3*x the quotient's
        # coefficients would divide by 3
        p = self.x * self.x.scale(2) + self.x
        assert_exact(poly_divexact(p, self.x), {X: 2, (): 1})
        with pytest.raises(ArithmeticError):
            poly_divexact(p, self.x.scale(3))

    def test_remainder_sequence_gcd(self, monkeypatch):
        monkeypatch.setattr(exprs, "_heu_gcd", lambda a, b: None)
        y = Poly.variable("y")
        g = self.x.scale(-3) + Poly.const(1)
        got = poly_gcd(g * (y + Poly.const(1)), g * (y + Poly.const(2)))
        assert_exact(got, {X: 3, (): -1})

    def test_scalar_constructor(self):
        s = Scalar(1, 3)
        assert_exact(s.num, {(): 1})
        assert_exact(s.den, {(): 3})

    def test_product_over_a_nonmonic_denominator(self):
        s = Scalar.var("x") / (3 * Scalar.var("y"))
        assert_exact(s.num, {X: 1})
        assert_exact(s.den, {Y: 3})

    def test_rename(self):
        # x - 2*y leads with x; after x -> z it leads with -2*y, so both
        # signs flip
        s = (Scalar(1) / (Scalar.var("x") - 2 * Scalar.var("y"))).rename(
            {"x": "z"})
        assert_exact(s.num, {(): -1})
        assert_exact(s.den, {Y: 2, Z: -1})
        assert str(s) == "-1/2/(y - 1/2*z)"

    def test_eval_at_an_integer_point(self):
        p = Scalar.var("x") * Scalar.var("x") + 2
        got = p.eval_at({"x": 3})
        assert got == 11 and type(got) is Fraction
        got = (Scalar(1) / (Scalar.var("x") + 2)).eval_at({"x": 1})
        assert got == Fraction(1, 3) and type(got) is Fraction

    def test_solve_linear_in(self):
        s = solve_linear_in(3 * Scalar.var("x"), Scalar(1), "x")
        assert_exact(s.num, {(): 1})
        assert_exact(s.den, {(): 3})

    def test_parse(self):
        s = parse_scalar("-2/6")
        assert_exact(s.num, {(): -1})
        assert_exact(s.den, {(): 3})
        assert s.const_value() == Fraction(-1, 3)
        assert type(parse_scalar("6/3").const_value()) is int

    @pytest.mark.parametrize("value, want", [(True, 1), (Fraction(6, 3), 2),
                                             (Fraction(-4, 2), -2)])
    def test_constants_are_stored_exactly(self, value, want):
        assert_exact(Poly.const(value), {(): want})
        assert_exact(Poly.from_terms([(X, value)]), {X: want})
        assert_exact(self.x.scale(value), {X: want})

    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5])
    def test_non_integral_coefficients_are_refused(self, value):
        with pytest.raises(ValueError):
            Poly.const(value)
        with pytest.raises(ValueError):
            Poly.from_terms([(X, value)])
        with pytest.raises(ValueError):
            self.x.scale(value)

    @pytest.mark.parametrize("make", [
        lambda: Scalar(0.5),
        lambda: Scalar.of(0.5),
        lambda: Scalar.var("x") + 0.5,
        lambda: Poly.const(2.0),
    ], ids=["Scalar", "Scalar.of", "Scalar.__add__", "Poly.const"])
    def test_floats_are_refused_by_type(self, make):
        # 2.0 is integral, and 0.5 has a numerator nowhere: each is refused
        # for its type, not its value
        with pytest.raises(ValueError, match="is a float"):
            make()


class TestHash:
    """A constant Scalar compares equal to its number, so it hashes as it:
    Scalars are dict keys in the memo and in the callers' sets."""

    def test_int(self):
        assert hash(Scalar(2)) == hash(2)
        assert hash(Scalar(0)) == hash(0)

    def test_fraction(self):
        assert hash(Scalar(1, 3)) == hash(Fraction(1, 3))
        assert hash(Scalar(Fraction(6, 3))) == hash(2)

    def test_set_membership(self):
        s = {Scalar(0), Scalar(2), Scalar(-1, 2), x1 / (x2 + 1)}
        assert 0 in s and 2 in s and Fraction(2) in s
        assert Fraction(-1, 2) in s and x1 / (x2 + 1) in s
        assert 3 not in s and Fraction(1, 2) not in s
        assert Scalar(2) in {2} and Scalar(Fraction(1, 3)) in {Fraction(1, 3)}
        assert len({Scalar(2), 2, Fraction(2)}) == 1


def assert_same_terms(got: Scalar, want: Scalar):
    """got is want term for term, with exact coefficients (see
    assert_exact)."""
    assert_exact(got.num, want.num.terms)
    assert_exact(got.den, want.den.terms)


class TestConstantFactor:
    """A constant operand scales the numerator and runs no gcd; the result
    is the one the general product makes."""

    a = (x1 * x1 + 3 * x2) / (2 * u1 + 1)

    @staticmethod
    def without_gcd(monkeypatch, op, *args) -> Scalar:
        def refuse(a, b):
            raise AssertionError("a product with a constant ran a gcd")
        with monkeypatch.context() as m:
            m.setattr(exprs, "poly_gcd", refuse)
            return op(*args)

    @pytest.mark.parametrize("c", [Scalar(3), Scalar(-1), Scalar(1, 3),
                                   Scalar(Fraction(-4, 7)), ONE])
    def test_either_side(self, c, monkeypatch):
        want = exprs._product(self.a, c)
        assert_same_terms(self.without_gcd(monkeypatch, mul, self.a, c), want)
        assert_same_terms(self.without_gcd(monkeypatch, mul, c, self.a), want)

    def test_int_and_fraction_operands(self):
        assert (2 * self.a) * Fraction(1, 2) == self.a
        x1sq, x2, u1_ = (("x1", 2),), (("x2", 1),), (("u1", 1),)
        # a = (x1^2 + 3*x2)/(2*u1 + 1); 2 scales the num, 1/3 the den
        assert_exact((self.a * 2).num, {x1sq: 2, x2: 6})
        assert_exact((Fraction(1, 3) * self.a).num, {x1sq: 1, x2: 3})
        assert_exact((Fraction(1, 3) * self.a).den, {u1_: 6, (): 3})
        # 3/2 * (2*x1^2 + 6*x2)/(2*u1 + 1): the 2 under 3 cancels the
        # num's content, and nothing is left to cancel with the den
        b = 2 * self.a
        assert_exact((Fraction(3, 2) * b).num, {x1sq: 3, x2: 9})
        assert_exact((Fraction(3, 2) * b).den, {u1_: 2, (): 1})

    def test_zero(self, monkeypatch):
        for z in (Scalar(0), x1 - x1):
            for x, y in ((self.a, z), (z, self.a), (z, Scalar(5))):
                assert self.without_gcd(monkeypatch, mul, x, y).is_zero()

    @pytest.mark.parametrize("c", [Scalar(3), Scalar(-2, 5), Scalar(7, 1),
                                   Scalar(Fraction(3, 4))])
    def test_division_by_a_constant(self, c, monkeypatch):
        # a / c multiplies by the reciprocal c.den/c.num, whose den is a
        # constant other than 1 (and a positive one): read as num only, it
        # would multiply by 1
        got = self.without_gcd(monkeypatch, truediv, self.a, c)
        assert_same_terms(got, exprs._product(self.a, Scalar(1) / c))
        assert got * c == self.a

    def test_constant_over_a_polynomial(self, monkeypatch):
        # c / p multiplies c by the reciprocal 1/p, whose den p leads
        # negative here: the reciprocal flips both signs
        p = 1 - 2 * x1
        got = self.without_gcd(monkeypatch, truediv, Scalar(3), p)
        assert got.den.leading()[1] == 2
        assert_same_terms(got, Scalar(Poly.const(3), p.num))
        assert_exact(got.num, {(): -3})

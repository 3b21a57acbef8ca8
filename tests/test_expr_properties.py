"""Property tests for the kernel: canonical-form soundness, field axioms,
calculus identities, and the finite-difference cross-check of the
derivative.

The random expression generator is seeded, so every run exercises the same
cases; hypothesis drives the structural laws where shrinking helps."""

import math
import random
from fractions import Fraction

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dtflat.exprs as exprs
from dtflat.errors import EvalSingular
from dtflat.exprs import Poly, Scalar, parse_scalar, poly_gcd

VARS = ["x1", "x2", "u1"]


def random_scalar(rng: random.Random, depth: int = 3) -> Scalar:
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return Scalar.var(rng.choice(VARS))
    op = rng.randrange(4)
    a = random_scalar(rng, depth - 1)
    b = random_scalar(rng, depth - 1)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return a / b if not b.is_zero() else a


def random_point(rng: random.Random) -> dict:
    return {v: Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            for v in VARS}


def eval_avoiding_singularities(rng, exprs, samples=20):
    """Sample points where every expression is regular."""
    points = []
    attempts = 0
    while len(points) < samples and attempts < samples * 40:
        attempts += 1
        pt = random_point(rng)
        try:
            values = tuple(e.eval_at(pt) for e in exprs)
        except EvalSingular:
            continue
        points.append((pt, values))
    return points


def test_semantic_equality_matches_canonical_equality():
    rng = random.Random(1701)
    agree_cases = 0
    for _ in range(150):
        a = random_scalar(rng)
        b = random_scalar(rng)
        pts = eval_avoiding_singularities(rng, [a, b])
        if len(pts) < 20:
            continue
        equal_everywhere = all(va == vb for _, (va, vb) in pts)
        if equal_everywhere:
            agree_cases += 1
            assert a == b, f"{a} vs {b} agree at 20 points but differ canonically"
        else:
            assert a != b
    # rebuilding the same value through a different tree must collapse
    for _ in range(150):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        lhs = (a + b) * c
        rhs = c * b + a * c
        assert lhs == rhs
        agree_cases += 1
    assert agree_cases > 100


def test_field_axioms_seeded():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (random_scalar(rng, 2) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * (Scalar(1) / a) == Scalar(1)
        assert (a - a).is_zero()


def test_derivative_rules_seeded():
    rng = random.Random(7)
    for _ in range(120):
        a = random_scalar(rng, 2)
        b = random_scalar(rng, 2)
        v = rng.choice(VARS)
        leib = (a * b).diff(v) - (a.diff(v) * b + a * b.diff(v))
        assert leib.is_zero()
        lin = (a + b).diff(v) - (a.diff(v) + b.diff(v))
        assert lin.is_zero()


def test_substitution_composition_seeded():
    rng = random.Random(99)
    for _ in range(60):
        a = random_scalar(rng, 2)
        try:
            g = {v: random_scalar(rng, 1) for v in VARS}
            h = {v: random_scalar(rng, 1) for v in VARS}
            composed = {v: g[v].subs(h) for v in VARS}
            assert a.subs(g).subs(h) == a.subs(composed)
        except Exception as exc:
            from dtflat.errors import SubstitutionSingular
            assert isinstance(exc, SubstitutionSingular)


def test_derivative_against_finite_differences():
    # exact central differences at rational points, with a rational step
    rng = random.Random(2024)
    step = Fraction(1, 10 ** 4)
    checked = 0
    for _ in range(250):
        a = random_scalar(rng)
        v = rng.choice(VARS)
        da = a.diff(v)
        if da.is_zero():
            continue
        d3 = da.diff(v).diff(v)
        for _ in range(25):
            pt = {name: Fraction(rng.randint(30, 200), 100) for name in VARS}
            try:
                up = a.eval_at({**pt, v: pt[v] + step})
                dn = a.eval_at({**pt, v: pt[v] - step})
                exact = da.eval_at(pt)
                third = d3.eval_at(pt)
            except EvalSingular:
                continue
            if abs(exact) < Fraction(1, 10 ** 8):
                continue
            # regular point: the central-difference truncation term
            # (step^2 / 6) * f''' must be well below the tolerance
            if step ** 2 / 6 * abs(third) / abs(exact) > Fraction(1, 10 ** 7):
                continue
            fd = (up - dn) / (2 * step)
            assert abs(fd - exact) / abs(exact) < Fraction(1, 10 ** 6)
            checked += 1
            break
    assert checked >= 40


def random_poly(rng: random.Random, nterms: int = 3):
    from dtflat.exprs import Poly
    from fractions import Fraction as F
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        mono = []
        for v in VARS:
            e = rng.randint(0, 2)
            if e:
                mono.append((v, e))
        terms[tuple(sorted(mono))] = F(rng.randint(-4, 4) or 1)
    return Poly.from_terms(terms.items())


def test_gcd_maximality_via_cofactors():
    # gcd(a*g0, b*g0) must divide both products exactly and leave coprime
    # cofactors; an under-computed gcd would leave a shared factor behind
    from dtflat.exprs import poly_divexact, poly_gcd
    rng = random.Random(4242)
    checked = 0
    for _ in range(120):
        g0 = random_poly(rng)
        a = random_poly(rng)
        b = random_poly(rng)
        if g0.is_zero() or a.is_zero() or b.is_zero():
            continue
        A, B = a * g0, b * g0
        g = poly_gcd(A, B)
        ca = poly_divexact(A, g)
        cb = poly_divexact(B, g)
        gg = poly_gcd(ca, cb)
        assert gg.is_const() and gg.const_value() == 1
        checked += 1
    assert checked >= 100


def test_heuristic_gcd_matches_remainder_sequence():
    # dual-route check of the kernel primitive: the evaluation heuristic
    # and the pseudo-remainder sequence must agree up to a constant on the
    # same integer polynomials, contents included; the heuristic takes
    # their term maps
    from dtflat.exprs import _heu_gcd, _primitive, _prs_gcd
    rng = random.Random(31337)
    agreements = 0
    for _ in range(60):
        g0 = random_poly(rng, 2)
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        if g0.is_zero() or a.is_zero() or b.is_zero():
            continue
        pa, pb = (a * g0).scale(rng.choice([1, 2, -6])), b * g0
        if pa.is_const() or pb.is_const() or not (pa.vars() & pb.vars()):
            continue
        heu = _heu_gcd(pa.terms, pb.terms)
        if heu is None:
            continue
        assert math.gcd(*heu.values()) == 1
        prs = _prs_gcd(pa, pb)
        assert _primitive(Poly(heu))[1] == _primitive(prs)[1]
        agreements += 1
    assert agreements >= 40


def test_integer_trial_division_agrees_with_division_over_q():
    # Gauss's lemma: a primitive divisor b divides an integer polynomial
    # over Q exactly when the quotient is integral, so the division in
    # Z[x] may stop at the first coefficient remainder.  Division over Q
    # is read off the lowest terms of p/b, which come from the gcd
    from dtflat.exprs import _divide, _primitive, poly_divexact
    rng = random.Random(27182)
    exact = inexact = 0
    for _ in range(80):
        a, b = random_poly(rng), random_poly(rng, 4)
        if a.is_zero() or b.is_zero() or b.is_const():
            continue
        _, pb = _primitive(b)
        for p in (a * pb, a * pb + random_poly(rng, 2)):
            if p.is_zero():
                continue
            got = _divide(p.terms, pb.terms)
            over_q = Scalar(p, pb)
            if not over_q.den.is_const():
                assert got is None
                with pytest.raises(ArithmeticError):
                    poly_divexact(p, pb)
                inexact += 1
            else:
                assert over_q.den == Poly.const(1)
                assert got is not None and Poly(got) == over_q.num
                assert poly_divexact(p, pb) == over_q.num
                exact += 1
    # 3*x1 + 1 over 2*x1 + 1: the leading coefficients leave a remainder,
    # and so does 2*x1 + 4 over the non-primitive 2*x1 + 2
    x = (("x1", 1),)
    assert _divide({x: 3, (): 1}, {x: 2, (): 1}) is None
    assert _divide({x: 2, (): 4}, {x: 2, (): 2}) is None
    assert _divide({x: 4, (): 4}, {x: 2, (): 2}) == {(): 2}
    assert exact >= 40 and inexact >= 20


def int_poly(rng: random.Random, nterms: int) -> Poly:
    """A nonzero integer polynomial of at most nterms terms in VARS."""
    while True:
        p = Poly.from_terms(
            (tuple((v, e) for v in sorted(VARS) if (e := rng.randint(0, 2))),
             rng.choice([-6, -3, -2, -1, 1, 2, 3, 4, 6]))
            for _ in range(rng.randint(1, nterms)))
        if not p.is_zero():
            return p


# (q, b) of each shape exact division knows: a single-term divisor (a
# constant, a monomial, a term), a == +-b, a single-term quotient, and a
# quotient and divisor of several terms, which the heap loop divides
DIVISION_SHAPES = {
    "constant divisor": lambda rng: (int_poly(rng, 4), Poly.const(
        rng.choice([-4, -1, 1, 3]))),
    "single-term divisor": lambda rng: (int_poly(rng, 4), int_poly(rng, 1)),
    "equal operands": lambda rng: (Poly.const(rng.choice([-1, 1])),
                                   int_poly(rng, 4)),
    "single-term quotient": lambda rng: (int_poly(rng, 1), int_poly(rng, 4)),
    "general": lambda rng: (int_poly(rng, 3), int_poly(rng, 4)),
}


@pytest.mark.parametrize("shape", sorted(DIVISION_SHAPES))
def test_division_by_shape_agrees_with_lowest_terms(shape, monkeypatch):
    # q*b / b gives q back, and adding r leaves an exact division exactly
    # when the lowest terms of (q*b + r)/b have the denominator 1: the
    # canonical form divides integer contents out too, so that is
    # division in Z[x] even for a constant or non-primitive b.  The shapes
    # other than the general one never build the heap on exact input
    from dtflat.exprs import _divide, poly_divexact
    heaps = []
    real = exprs.heapq.heapify
    monkeypatch.setattr(exprs.heapq, "heapify",
                        lambda h: (heaps.append(1), real(h))[1])
    rng = random.Random(f"division {shape}")
    exact = inexact = 0
    for _ in range(100):
        q, b = DIVISION_SHAPES[shape](rng)
        assert _divide((q * b).terms, b.terms) == q.terms
        if shape != "general":
            assert heaps == []
        p = q * b + int_poly(rng, 2)
        if p.is_zero():
            continue
        got = _divide(p.terms, b.terms)
        lowest = Scalar(p, b)
        if lowest.den != Poly.const(1):
            assert got is None
            with pytest.raises(ArithmeticError):
                poly_divexact(p, b)
            inexact += 1
        else:
            assert got == lowest.num.terms
            exact += 1
        heaps.clear()
    assert exact >= 2 and inexact >= 30


@st.composite
def scalars(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_scalar(random.Random(seed))


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_hypothesis_add_commutes(a, b):
    assert a + b == b + a


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_hypothesis_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_hypothesis_print_parse_roundtrip(a):
    assert parse_scalar(str(a)) == a


def assert_canonical(r: Scalar):
    """r is term for term the Scalar its constructor makes of r.num/r.den:
    integer coefficients, num and den coprime in Z[x], integer contents
    included, and a positive leading coefficient of den."""
    ref = Scalar(r.num, r.den)
    assert r.num.terms == ref.num.terms and r.den.terms == ref.den.terms
    coeffs = [*r.num.terms.values(), *r.den.terms.values()]
    assert all(type(c) is int for c in coeffs), coeffs
    assert math.gcd(*coeffs) == 1
    assert r.den.leading()[1] > 0
    assert poly_gcd(r.num, r.den) == Poly.const(1)


@given(scalars(), scalars(), scalars(), st.sampled_from(VARS))
@settings(max_examples=80, deadline=None)
def test_hypothesis_results_are_canonical(a, b, c, v):
    # sums skip the gcds that cannot cancel (Henrici) and products the
    # gcd of their coprime halves; the result must still be canonical
    for r in (a + b, a - b, a * b, a.diff(v)):
        assert_canonical(r)
    if not b.is_zero():
        assert_canonical(a / b)
    if c.is_zero() or (c + 1).is_zero():
        return
    # x - y with x = a/c + y: the factors of y's denominator that a/c
    # lacks must cancel, so Henrici's gcd(t, g) is nontrivial
    y = b / (c + 1)
    x = a / c + y
    assert_canonical(x)
    assert_canonical(x - y)
    assert x - y == a / c


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=-12, max_value=12).filter(bool))
@settings(max_examples=80, deadline=None)
def test_hypothesis_canonical_form_is_unique(seed, k):
    # N/D and (k*c*N)/(k*c*D) are one rational function, so they have one
    # canonical form: the same terms, the same hash, and a printed form
    # that parses back to it
    rng = random.Random(seed)
    n, d, c = random_poly(rng), random_poly(rng), random_poly(rng, 2)
    assume(not (d.is_zero() or c.is_zero()))
    n = n.scale(rng.choice([1, 3, -4]))
    s = Scalar(n, d)
    t = Scalar((n * c).scale(k), (d * c).scale(k))
    assert s.num.terms == t.num.terms and s.den.terms == t.den.terms
    assert hash(s) == hash(t)
    assert_canonical(s)
    assert parse_scalar(str(s)) == s


def terms_with_types(s: Scalar) -> tuple:
    return tuple([(m, c, type(c)) for m, c in sorted(p.terms.items())]
                 for p in (s.num, s.den))


@given(scalars(), scalars(), st.sampled_from(VARS))
@settings(max_examples=80, deadline=None)
def test_hypothesis_memo_matches_the_computation(a, b, v):
    # a remembered product or derivative is term for term, coefficient
    # types included, what the uncached computation returns, on a miss and
    # again on a hit; a quotient is a remembered product by 1/b
    exprs.clear_memo()
    cases = []
    if not (a.is_const() or b.is_const()):
        cases.append((lambda: a * b, exprs._product(a, b)))
    if not a.is_const():
        cases.append((lambda: a.diff(v), exprs._derivative(a, v)))
    quotient = None if a.is_const() or b.is_const() else a / b
    for hit in (False, True):
        before = exprs._remembered.cache_info()
        for op, want in cases:
            assert terms_with_types(op()) == terms_with_types(want)
        after = exprs._remembered.cache_info()
        assert after.misses - before.misses == (0 if hit else len(cases))
        assert after.hits - before.hits == (len(cases) if hit else 0)
        if quotient is not None:
            got = a / b
            assert got.num.terms == quotient.num.terms
            assert got.den.terms == quotient.den.terms
            assert exprs._remembered.cache_info().hits > after.hits
            assert got * b == a


def test_sums_over_associate_denominators_run_one_gcd(monkeypatch):
    # 2*x1 + 2 and 3*x1 + 3 differ by an integer factor: the sum is taken
    # over 6*x1 + 6 with the one gcd of its lowest terms, as over equal
    # denominators, and no gcd of the two denominators
    x, y = Scalar.var("x1"), Scalar.var("x2")
    a, b = y / (2 * x + 2), (x - y) / (3 * x + 3)
    want = (2 * x + y) / (6 * x + 6)
    calls = []
    real = exprs.poly_gcd

    def spy(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(exprs, "poly_gcd", spy)
    sums = (a + b, b + a)
    assert len(calls) == 2
    for r in sums:
        assert_canonical(r)
        assert r.num.terms == want.num.terms and r.den.terms == want.den.terms
    assert str(sums[0]) == "(1/3*x1 + 1/6*x2)/(x1 + 1)"
    # the same monomials in other proportions are not associates
    r = y / (x + 2) + 1 / (2 * x + 2)
    assert_canonical(r)
    assert r == (2 * y * (x + 1) + (x + 2)) / (2 * (x + 1) * (x + 2))


def test_sums_over_denominators_with_a_common_factor():
    x = Scalar.var("x1")
    # g = gcd(b, d) = x1 and t = 2*x1: gcd(t, g) = x1 cancels as well
    r = 1 / (x * (x + 1)) + 1 / (x * (x - 1))
    assert_canonical(r)
    assert r == Scalar(Poly.const(2), (x * x - 1).num)
    assert str(r) == "2/(x1^2 - 1)"
    # g = x1 and t = 2*x1 + 3: nothing more cancels
    r = 1 / (x * (x + 1)) + 1 / (x * (x + 2))
    assert_canonical(r)
    assert str(r) == "(2*x1 + 3)/(x1^3 + 3*x1^2 + 2*x1)"
    # g = t = x1 + 1: all of g cancels
    r = 1 / (x * (x + 1)) + 1 / (x + 1)
    assert_canonical(r)
    assert str(r) == "1/x1"
    # g = x1 + 1 and t = 1/2*x1 - 1/3, with rational coefficients
    r = Scalar(1, 2) / (x + 1) - Scalar(1, 3) / (x * x + x)
    assert_canonical(r)
    assert str(r) == "(1/2*x1 - 1/3)/(x1^2 + x1)"
    # coprime denominators: no gcd cancels anything
    r = x / (x + 1) + 1 / (x - 1)
    assert_canonical(r)
    assert str(r) == "(x1^2 + 1)/(x1^2 - 1)"

"""The polynomial gcd, exact division and the generic rank against sympy,
which shares no code with the kernel: ``poly_gcd`` against ``sympy.gcd``
(equal up to a nonzero constant factor), ``poly_divexact`` against
``sympy.div`` and ``generic_rank`` against the rank of the
same ``Matrix`` as sympy's ``DomainMatrix`` over its fraction field
(exact; ``Matrix.rank`` with a ``cancel`` zero test is far slower on the
4x4 cases).

The gcd cases cover both of its routes, the integer heuristic and the
pseudo-remainder sequence it falls back to.  Both work on integer
polynomials, and what comes out holds ints only, never a Fraction, a
float or a bool.

The random cases are seeded, so every run exercises the same inputs."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import dtflat.exprs as exprs
from dtflat.cli import run
from dtflat.exprs import Poly, Scalar, poly_divexact, poly_gcd
from dtflat.geometry import generic_rank
from test_expr_properties import DIVISION_SHAPES, int_poly
from test_subs_oracle import VARS, random_poly, random_rational, to_sympy

sympy = pytest.importorskip("sympy")


def poly_to_sympy(p: Poly):
    return to_sympy(Scalar(p))


def same_up_to_unit(ours, theirs) -> bool:
    """Both zero, or their quotient is a nonzero rational number."""
    if ours == 0 or theirs == 0:
        return ours == theirs == 0
    ratio = sympy.cancel(ours / theirs)
    return ratio.is_Rational and ratio != 0


def test_gcd_matches_sympy():
    rng = random.Random(20240901)
    nontrivial = 0
    for _ in range(60):
        # a shared factor makes most gcds nontrivial
        g = random_poly(rng, rng.randint(1, 3), 2).num
        a = (random_poly(rng, rng.randint(1, 3), 2).num) * g
        b = (random_poly(rng, rng.randint(1, 3), 2).num) * g
        ours = poly_gcd(a, b)
        theirs = sympy.gcd(poly_to_sympy(a), poly_to_sympy(b))
        assert same_up_to_unit(poly_to_sympy(ours), theirs), (a, b)
        nontrivial += not ours.is_const()
    assert nontrivial >= 30


def test_gcd_with_zero_and_constants():
    x1 = Poly.variable("x1")
    p = x1 * x1 - Poly.const(1)
    assert poly_gcd(p, Poly.const(0)) == poly_gcd(Poly.const(0), p)
    assert same_up_to_unit(poly_to_sympy(poly_gcd(p, Poly.const(0))),
                           poly_to_sympy(p))
    assert poly_gcd(p, Poly.const(3)).is_const()


def chain_poly(rng: random.Random, n: int) -> Poly:
    """A few terms shaped like the polynomial chain's, x_(i+1) + x1*x_i,
    over x1..xn with small integer coefficients."""
    xs = [Poly.variable(f"x{i}") for i in range(1, n + 1)]
    total = Poly.const(rng.choice([-2, -1, 1, 2]))
    for _ in range(rng.randint(2, 4)):
        i = rng.randrange(n - 1)
        term = (xs[i + 1].scale(Fraction(rng.choice([-3, -1, 1, 2])))
                + xs[0] * xs[i].scale(Fraction(rng.choice([-2, 1, 3]))))
        total = total + term * rng.choice(xs + [Poly.const(1)])
    return total


def rational_poly(rng: random.Random, big: int) -> Poly:
    """The primitive integer associate of a random polynomial in x1..x3
    with non-integer rational coefficients of numerators and denominators
    up to big: over Q both have the same gcds up to a unit."""
    terms = {}
    for _ in range(rng.randint(2, 4)):
        mono = tuple(sorted((f"x{i}", rng.randint(1, 2))
                            for i in rng.sample(range(1, 4), rng.randint(0, 2))))
        terms[mono] = Fraction(rng.choice([-1, 1]) * rng.randint(1, big),
                               rng.randint(2, big))
    scale = math.lcm(*(c.denominator for c in terms.values()))
    ints = {m: int(c * scale) for m, c in terms.items()}
    content = math.gcd(*ints.values())
    return Poly.from_terms((m, c // content) for m, c in ints.items())


def with_negative_lead(p: Poly) -> Poly:
    _, lc = p.leading()
    return p if lc < 0 else -p


def nonzero_pairs(pairs) -> list:
    return [(a, b) for a, b in pairs if not (a.is_zero() or b.is_zero())]


def chain_cases(seed: int) -> list:
    """(a, b) pairs with a shared chain-shaped factor in 6 to 9
    variables."""
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        n = rng.randint(6, 9)
        g = chain_poly(rng, n)
        cases.append((chain_poly(rng, n) * g, chain_poly(rng, n) * g))
    return nonzero_pairs(cases)


def rational_cases(seed: int) -> list:
    """(a, b) pairs with a shared factor, the primitive associates of
    polynomials with non-integer rational coefficients, and in half the
    pairs negative leading coefficients."""
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        g = rational_poly(rng, 9)
        cases.append((rational_poly(rng, 9) * g, rational_poly(rng, 9) * g))
    for _ in range(12):
        g = rational_poly(rng, 3)
        cases.append((with_negative_lead(rational_poly(rng, 3) * g),
                      with_negative_lead(rational_poly(rng, 3) * g)))
    return nonzero_pairs(cases)


def assert_gcds_match_sympy(cases) -> int:
    """Every gcd equals sympy's up to a unit, holds only ints and is
    primitive with a positive lead; returns the number of nontrivial
    gcds."""
    nontrivial = 0
    for a, b in cases:
        ours = poly_gcd(a, b)
        theirs = sympy.gcd(poly_to_sympy(a), poly_to_sympy(b))
        assert same_up_to_unit(poly_to_sympy(ours), theirs), (a, b)
        assert all(type(c) is int for c in ours.terms.values())
        assert math.gcd(*ours.terms.values()) == 1
        assert ours.leading()[1] > 0
        nontrivial += not ours.is_const()
    return nontrivial


def test_gcd_matches_sympy_on_chain_inputs():
    assert assert_gcds_match_sympy(chain_cases(20241018)) >= 10


def test_gcd_matches_sympy_on_rational_inputs():
    assert assert_gcds_match_sympy(rational_cases(20241018)) >= 15


def test_gcd_matches_sympy_on_the_remainder_sequence(monkeypatch):
    # the heuristic gives up on every input, so each gcd, and each
    # content gcd inside the sequence, runs the pseudo-remainder route.
    # Without the heuristic for its contents the sequence does not finish
    # a chain-shaped pair in 6 variables within a minute, so only the
    # rational pairs run.
    monkeypatch.setattr(exprs, "_heu_gcd", lambda a, b: None)
    assert assert_gcds_match_sympy(rational_cases(20241019)) >= 15


@pytest.mark.parametrize("shape", sorted(DIVISION_SHAPES))
def test_divexact_matches_sympy_div_by_shape(shape):
    # poly_divexact against sympy's division over QQ on each shape exact
    # division knows: b divides p in Z[x] exactly when sympy leaves no
    # remainder and an integral quotient (b alone is a Groebner basis of
    # the ideal it generates, so the remainder decides divisibility)
    gens = sympy.symbols("u1 x1 x2")
    rng = random.Random(f"sympy division {shape}")
    exact = inexact = 0
    for _ in range(25):
        q, b = DIVISION_SHAPES[shape](rng)
        for p in (q * b, q * b + int_poly(rng, 2)):
            if p.is_zero():
                continue
            quo, rem = sympy.div(poly_to_sympy(p), poly_to_sympy(b), *gens,
                                 domain="QQ")
            if rem == 0 and all(c.is_integer
                                for c in sympy.Poly(quo, *gens).coeffs()):
                ours = poly_divexact(p, b)
                assert sympy.expand(poly_to_sympy(ours) - quo) == 0, (p, b)
                exact += 1
            else:
                with pytest.raises(ArithmeticError):
                    poly_divexact(p, b)
                inexact += 1
    assert exact >= 25 and inexact >= 5


def test_gcd_after_an_unlucky_evaluation_point(monkeypatch):
    # a = g*(y + 1) and b = g*(y + xi + 2) in x and y, where xi is the
    # first point the heuristic puts y at (the last shared variable; xi
    # comes from the smaller norm, a's, of the inputs as they are).  The cofactors' values xi + 1 and
    # 2*(xi + 1) share the factor xi + 1, so the first candidate is
    # g*(y + 1), which does not divide b, and the heuristic must retry at
    # a larger point.  g has large coefficients, which makes xi and the
    # coefficients of b large too.
    points = []
    real = exprs._eval_var_int

    def spy(t, name, xi):
        if name == "y":
            points.append(xi)
        return real(t, name, xi)

    monkeypatch.setattr(exprs, "_eval_var_int", spy)
    rng = random.Random(20241020)
    x, y = Poly.variable("x"), Poly.variable("y")
    for _ in range(8):
        g = ((y * y).scale(Fraction(rng.randint(1, 10**6)))
             + (x * y).scale(Fraction(rng.randint(-10**6, 10**6)))
             + Poly.const(rng.randint(1, 10**6)))
        a = g * (y + Poly.const(1))
        xi = 2 * max(abs(c) for c in a.terms.values()) + 29
        b = g * (y + Poly.const(xi + 2))
        points.clear()
        ours = poly_gcd(a, b)
        assert points[0] == xi and len(set(points)) >= 2, points
        theirs = sympy.gcd(poly_to_sympy(a), poly_to_sympy(b))
        assert same_up_to_unit(poly_to_sympy(ours), theirs)
        assert same_up_to_unit(poly_to_sympy(ours), poly_to_sympy(g))


DATA = Path(__file__).parent / "data"


def test_only_exact_coefficients_leave_the_kernel(monkeypatch, capsys,
                                                  tmp_path):
    # every Poly built during a run, hence every gcd and every canonical
    # Scalar, holds ints only: no Fraction, no float from an int / int
    # division, and no bool
    real_init = Poly.__init__
    bad = []
    built = 0

    def init(self, terms):
        nonlocal built
        real_init(self, terms)
        built += 1
        bad.extend(repr(c) for c in terms.values() if type(c) is not int)

    monkeypatch.setattr(Poly, "__init__", init)
    for argv in ([DATA / "academic4.sys", "--decompose"],
                 [DATA / "golden" / "nlchain5.sys"],
                 [DATA / "golden" / "rat4.sys"],
                 [DATA / "golden" / "lcden.sys", "--decompose"]):
        built = 0
        report = tmp_path / "report.json"
        assert run([*map(str, argv), "--json", str(report)]) == 0
        assert built > 1000 and bad == [], (argv, bad[:5])
    capsys.readouterr()


def random_expression(rng: random.Random, depth: int = 2) -> tuple:
    """A random rational expression as a Scalar and as the sympy
    expression built by the same operations."""
    if depth == 0 or rng.random() < 0.3:
        leaf = random_rational(rng)
        return leaf, to_sympy(leaf)
    a, sa = random_expression(rng, depth - 1)
    b, sb = random_expression(rng, depth - 1)
    op = rng.randrange(4)
    if op == 0:
        return a + b, sa + sb
    if op == 1:
        return a - b, sa - sb
    if op == 2:
        return a * b, sa * sb
    if b.is_zero():
        return a, sa
    return a / b, sa / sb


GENS = sympy.symbols(" ".join(VARS))


def grlex_str(expr) -> str:
    """A polynomial printed the kernel's way, in the term order that sympy
    gives it: graded lexicographic over the name-sorted variables."""
    parts = []
    terms = sympy.Poly(expr, *GENS).terms(order="grlex")
    for i, (exps, c) in enumerate(terms):
        mono = "*".join(g.name if e == 1 else f"{g.name}^{e}"
                        for g, e in zip(GENS, exps) if e)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) or "0"


def test_scalar_canonical_form_matches_sympy_cancel():
    # sympy.cancel gives the same rational function in lowest terms; the
    # kernel's form must be that one, scaled to integer coefficients with
    # no common integer factor and a denominator that leads positive under
    # graded lex order, and must print its terms in that order
    rng = random.Random(20241021)
    nontrivial_dens = 0
    for _ in range(40):
        ours, expr = random_expression(rng)
        p, q = sympy.fraction(sympy.cancel(expr))
        num, den = poly_to_sympy(ours.num), poly_to_sympy(ours.den)
        assert sympy.expand(num * q - p * den) == 0, ours
        assert sympy.gcd(num, den).is_Rational                 # coprime
        assert sympy.cancel(den / q).is_Rational               # lowest terms
        num_p, den_p = sympy.Poly(num, *GENS), sympy.Poly(den, *GENS)
        assert num_p.domain == den_p.domain == sympy.ZZ
        assert sympy.igcd(num_p.content(), den_p.content()) == 1
        assert den_p.LC(order="grlex") > 0
        assert str(ours.num) == grlex_str(num)
        assert str(ours.den) == grlex_str(den)
        # the printed form depends on the value only
        assert str(Scalar(ours.num * ours.den, ours.den * ours.den)) == str(ours)
        nontrivial_dens += not ours.den.is_const()
    assert nontrivial_dens >= 20


def random_matrix(rng: random.Random, nrows: int, ncols: int, rank: int) -> list:
    """rank random rows, then the rest as random rational combinations of
    them, shuffled."""
    rows = [[random_rational(rng, 1) for _ in range(ncols)] for _ in range(rank)]
    while len(rows) < nrows:
        coeffs = [random_rational(rng, 1) for _ in range(rank)]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, rows[:rank])),
                         Scalar(0)) for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def sympy_rank(rows) -> int:
    matrix = sympy.Matrix([[to_sympy(c) for c in row] for row in rows])
    return matrix.to_DM().to_field().rank()


def test_generic_rank_matches_sympy():
    rng = random.Random(20240902)
    ranks = set()
    for _ in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, nrows, ncols, rng.randint(1, min(nrows, ncols)))
        ours = generic_rank(rows)
        assert ours == sympy_rank(rows), rows
        ranks.add(ours)
    assert len(ranks) >= 3

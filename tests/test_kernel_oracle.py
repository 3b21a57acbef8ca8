"""The polynomial gcd and the generic rank against sympy, which shares no
code with the kernel: ``poly_gcd`` against ``sympy.gcd`` (equal up to a
nonzero constant factor) and ``generic_rank`` against the rank of the
same ``Matrix`` as sympy's ``DomainMatrix`` over its fraction field
(exact; ``Matrix.rank`` with a ``cancel`` zero test is far slower on the
4x4 cases).

The random cases are seeded, so every run exercises the same inputs."""

import random

import pytest

from dtflat.exprs import Poly, Scalar, poly_gcd
from dtflat.geometry import generic_rank
from test_subs_oracle import random_poly, random_rational, to_sympy

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

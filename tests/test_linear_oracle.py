"""Independent cross-validation on linear systems.

For x+ = A x + B u both sequences have textbook closed forms: the growing
distributions are the input directions plus the reachability images
im[B, AB, ..., A^{k-1} B], and the shrinking codistributions are their
annihilators inside span{dx}.  The oracle below computes those with plain
Fraction matrices and compares them against the symbolic pipeline, span
for span, on randomized systems (controllable and not)."""

import random
from fractions import Fraction

from corpus import mk
from dtflat.exprs import Scalar, ZERO, ONE
from dtflat.flatness import analyze
from dtflat.geometry import (
    Codistribution,
    Distribution,
    Echelon,
    OneForm,
    VectorField,
    same_span,
)


def frac_rank(rows):
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [c * inv for c in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def frac_rref(rows):
    work = [list(r) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    out = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = Fraction(1) / work[rank][col]
        work[rank] = [c * inv for c in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return work[:rank]


def frac_nullspace(rows):
    ncols = len(rows[0]) if rows else 0
    red = frac_rref(rows)
    pivots = []
    for r in red:
        for c, v in enumerate(r):
            if v != 0:
                pivots.append(c)
                break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -red[prow][fc]
        basis.append(vec)
    return basis


def random_fraction_rows(rng):
    """Up to five rows of up to five constant columns, with dependent rows
    and zero columns."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
    rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
             for _ in range(ncols)] for _ in range(rng.randint(1, nrows))]
    base = list(rows)
    while len(rows) < nrows:
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in base]
        rows.append([sum(c * r[j] for c, r in zip(coeffs, base))
                     for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def test_echelon_matches_fraction_oracle():
    rng = random.Random(80808)
    grown = refused = 0
    for _ in range(60):
        rows = random_fraction_rows(rng)
        as_scalars = [[Scalar(c) for c in row] for row in rows]
        ech = Echelon()
        for k, row in enumerate(as_scalars):
            grows = frac_rank(rows[:k + 1]) > frac_rank(rows[:k])
            assert ech.add(row) == grows
            grown += grows
            refused += not grows
        red = frac_rref(rows)
        assert ech.rows == [[Scalar(c) for c in row] for row in red]
        assert ech.pivots == [next(j for j, c in enumerate(row) if c != 0)
                              for row in red]
        probe = [Fraction(rng.randint(-2, 2)) for _ in rows[0]]
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in rows]
        in_span = [sum(c * row[j] for c, row in zip(coeffs, rows))
                   for j in range(len(rows[0]))]
        for p in (probe, in_span):
            assert ech.contains([Scalar(c) for c in p]) == (
                frac_rank(rows + [p]) == frac_rank(rows))
    assert grown >= 60 and refused >= 20


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def reachability_images(A, B, steps):
    """Column spans of [B, AB, ..., A^{k-1}B] for k = 1..steps, as row
    lists (each row one generator)."""
    n = len(A)
    images = []
    block = B
    gens = []
    for _ in range(steps):
        gens = gens + [[block[i][j] for i in range(n)]
                       for j in range(len(block[0]))]
        images.append(frac_rref(gens))
        block = matmul(A, block)
    return images


def random_linear(rng):
    n = rng.randint(1, 4)
    m = rng.randint(1, 2)
    A = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    B = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
    return A, B


def as_system(A, B, name):
    n, m = len(A), len(B[0])
    states = [f"x{i}" for i in range(1, n + 1)]
    inputs = [f"u{j}" for j in range(1, m + 1)]
    f = []
    for i in range(n):
        g = ZERO
        for j in range(n):
            if A[i][j]:
                g = g + Scalar(A[i][j]) * Scalar.var(states[j])
        for j in range(m):
            if B[i][j]:
                g = g + Scalar(B[i][j]) * Scalar.var(inputs[j])
        f.append(g)
    return mk(states, inputs, f, name=name)


def test_linear_systems_match_reachability_oracle():
    rng = random.Random(60601)
    checked = controllable = 0
    while checked < 25:
        A, B = random_linear(rng)
        n, m = len(A), len(B[0])
        if frac_rank([[B[i][j] for j in range(m)] + [A[i][j] for j in range(n)]
                      for i in range(n)]) != n:
            continue  # not submersive
        system = as_system(A, B, f"lin{checked}")
        try:
            verdict = analyze(system)
        except Exception as exc:
            from dtflat.errors import InversionFailed
            assert isinstance(exc, InversionFailed)
            continue
        images = reachability_images(A, B, verdict.kbar)
        ch = system.chart

        # controllability decides flatness
        reach_rank = len(images[-1])
        is_controllable = reach_rank == n
        assert verdict.flat == is_controllable, system.name
        controllable += is_controllable

        # every computed member matches the oracle spans
        for k, E in enumerate(verdict.distribution.sequence):
            gens = [VectorField.unit(ch, u) for u in system.input_names]
            if k > 0:
                for row in images[k - 1]:
                    gens.append(VectorField(
                        ch, [Scalar(c) for c in row] + [ZERO] * m))
            assert same_span(E, Distribution.span(ch, gens)), (system.name, k)
        for k, P in enumerate(verdict.codistribution.sequence, start=1):
            if k == 1:
                rows = []
            else:
                rows = [[c for c in row] for row in images[k - 2]]
            if rows:
                kernel = frac_nullspace(rows)
            else:
                kernel = [[Fraction(1) if i == j else Fraction(0)
                           for j in range(n)] for i in range(n)]
            forms = [OneForm(ch, [Scalar(c) for c in vec] + [ZERO] * m)
                     for vec in kernel]
            expect = Codistribution.span(ch, forms) if forms \
                else Codistribution(ch, [])
            assert P.dim == expect.dim, (system.name, k)
            if P.dim:
                assert same_span(P, expect), (system.name, k)
        checked += 1
    assert controllable >= 8
    assert checked - controllable >= 3

"""Column-wise reduction and membership as a zero test.

Echelon reduces a row column by column: at a column j that is no pivot,
the reduced row is row[j] minus one exprs.dot of the row's entries at the
pivots with the pivot rows' entries at j.  Membership compares row[j]
with that sum by cross-multiplying (exprs.equals_dot).  The oracle below
is the sequential elimination these replace, one pivot row at a time;
both must agree on every reduction, membership answer and added row,
since a reduced echelon form of canonical Scalars is unique."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtflat.exprs as exprs
import dtflat.flatness as flatness
import dtflat.geometry as geometry
from corpus import nlchain_n
from dtflat import cli
from dtflat.exprs import ONE, ZERO, Poly, Scalar, dot, equals_dot
from dtflat.flatness import run_codistribution_test
from dtflat.geometry import (
    Chart,
    Codistribution,
    Echelon,
    OneForm,
    combine,
    same_span,
)
from oracles import same_span_by_membership


# ------------------------------------------------- the sequential oracle

def _eliminate(row, factor, pivot_row):
    return [a if b.is_zero() else a - factor * b
            for a, b in zip(row, pivot_row)]


class SequentialEchelon:
    """The reduced echelon form grown by eliminating one pivot row at a
    time, as Echelon did before it reduced by columns."""

    def __init__(self, rows=()):
        self.rows, self.pivots = [], []
        for row in rows:
            self.add(row)

    def reduce(self, row):
        row = list(row)
        for prow, col in zip(self.rows, self.pivots):
            if not row[col].is_zero():
                row = _eliminate(row, row[col], prow)
        return row

    def add(self, row):
        row = self.reduce(row)
        lead = next((j for j, c in enumerate(row) if not c.is_zero()), None)
        if lead is None:
            return False
        row = [c / row[lead] for c in row]
        for i, other in enumerate(self.rows):
            if not other[lead].is_zero():
                self.rows[i] = _eliminate(other, other[lead], row)
        at = sum(1 for p in self.pivots if p < lead)
        self.rows.insert(at, row)
        self.pivots.insert(at, lead)
        return True

    def contains(self, row):
        return all(c.is_zero() for c in self.reduce(row))


# ------------------------------------------------------------ strategies

x, y = Scalar.var("x"), Scalar.var("y")
MONOMIALS = [ONE, x, y, x * y, x * x]
# products of shared factors, so that numerators, factors and sums cancel
# against them
FACTORS = [x + 1, y - 2]
DENOMINATORS = [x + 1, y - 2, x * y + 1, (x + 1) * (y - 2), (x + 1) * (x + 1)]


@st.composite
def polynomials(draw, zero_ok=True, cancel=True):
    """A polynomial of MONOMIALS; with cancel, often times a factor of
    DENOMINATORS."""
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(MONOMIALS),
                           max_size=len(MONOMIALS)))
    if not zero_ok and not any(coeffs):
        coeffs[0] = 1
    p = combine([Scalar(c) for c in coeffs], [[m] for m in MONOMIALS])[0]
    return p * draw(st.sampled_from([ONE] + FACTORS)) if cancel else p


@st.composite
def entries(draw, kind, den):
    """One entry: zero, a constant, or a polynomial over the shared
    denominator den (which it seldom cancels) or over a denominator of its
    own."""
    if draw(st.integers(0, 4)) == 0:
        return ZERO
    if kind == "constant":
        return Scalar(Fraction(draw(st.integers(-3, 3)),
                               draw(st.integers(1, 3))))
    if kind == "shared":
        return draw(polynomials(cancel=False)) / den
    return draw(polynomials()) / draw(st.sampled_from([ONE] + DENOMINATORS))


@st.composite
def echelon_cases(draw):
    """(rows, pivots, kind, den): rows already in reduced echelon form,
    whose free entries are drawn by kind."""
    kind = draw(st.sampled_from(["shared", "distinct", "constant"]))
    den = draw(st.sampled_from(DENOMINATORS))
    ncols = draw(st.integers(2, 5))
    rank = draw(st.integers(1, ncols - 1))
    pivots = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=rank,
                                  max_size=rank, unique=True)))
    rows = []
    for p in pivots:
        row = [ZERO] * ncols
        row[p] = ONE
        for j in range(p + 1, ncols):
            if j not in pivots:
                row[j] = draw(entries(kind, den))
        rows.append(row)
    return rows, pivots, kind, den


@st.composite
def factors(draw, n, polynomial=False):
    """n factors: polynomials (the common path), or rational functions."""
    if polynomial or draw(st.booleans()):
        return [draw(polynomials()) for _ in range(n)]
    return [draw(polynomials()) / draw(st.sampled_from([ONE] + DENOMINATORS))
            for _ in range(n)]


@st.composite
def probes(draw, rows, kind, den):
    """Rows inside the span (combinations of rows, one with polynomial
    factors), outside it (one entry moved) and drawn like the entries of
    rows."""
    inside = combine(draw(factors(len(rows), polynomial=True)), rows)
    mixed = combine(draw(factors(len(rows))), rows)
    outside = list(inside)
    j = draw(st.integers(0, len(inside) - 1))
    outside[j] = outside[j] + draw(polynomials(zero_ok=False)) / den
    drawn = [draw(entries(kind, den)) for _ in rows[0]]
    return [inside, mixed, outside, drawn]


def agree(ech, ref, probe):
    assert ech._reduce(probe) == ref.reduce(probe)
    assert ech.contains(probe) == ref.contains(probe)


# ----------------------------------------------------------------- tests

class TestAgainstSequentialElimination:

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reduce_contains_and_add(self, data):
        rows, pivots, kind, den = data.draw(echelon_cases())
        ech, ref = Echelon(rows), SequentialEchelon(rows)
        # the rows are reduced already, so both take them as they are
        assert (ech.rows, ech.pivots) == (rows, pivots)
        assert (ref.rows, ref.pivots) == (rows, pivots)
        found = data.draw(probes(rows, kind, den))
        assert ref.contains(found[0]) and ref.contains(found[1])
        for probe in found:
            agree(ech, ref, probe)
            grown, again = Echelon(rows), SequentialEchelon(rows)
            assert grown.add(probe) == again.add(probe)
            assert (grown.rows, grown.pivots) == (again.rows, again.pivots)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_added_one_at_a_time(self, data):
        # general rows, so the echelon form is built by the reduction
        # itself, with entries that share no denominator
        kind = data.draw(st.sampled_from(["shared", "distinct", "constant"]))
        den = data.draw(st.sampled_from(DENOMINATORS))
        ncols = data.draw(st.integers(2, 4))
        ech, ref = Echelon(), SequentialEchelon()
        for _ in range(data.draw(st.integers(1, 4))):
            row = [data.draw(entries(kind, den)) for _ in range(ncols)]
            agree(ech, ref, row)
            assert ech.add(row) == ref.add(row)
            assert (ech.rows, ech.pivots) == (ref.rows, ref.pivots)
        if ech.rows:
            inside = combine(data.draw(factors(len(ech.rows))), ech.rows)
            assert ech.contains(inside)
            agree(ech, ref, inside)


class TestDot:
    def test_shared_denominator_cancels_in_the_sum(self):
        d = (x + 1) * (y - 2)
        pairs = [(x, y / d), (ONE, (y - 2 * x - 2) / d), (y, ONE / d)]
        assert dot(pairs) == x * (y / d) + (y - 2 * x - 2) / d + y / d
        assert equals_dot(dot(pairs), pairs)
        assert not equals_dot(dot(pairs) + 1, pairs)

    def test_cross_multiplication_when_the_denominators_differ(self):
        # N/D = (x + 1)/((x + 1)(y - 2)) is 1/(y - 2): c.den differs from
        # D, and c.num from N
        d = (x + 1) * (y - 2)
        pairs = [(x, ONE / d), (ONE, ONE / d)]
        c = ONE / (y - 2)
        assert c.den != d.den and equals_dot(c, pairs)
        assert not equals_dot(ONE / (y + 2), pairs)

    def test_empty_and_rational_factors(self):
        assert dot([]) == ZERO
        assert equals_dot(ZERO, []) and not equals_dot(ONE, [])
        pairs = [(ONE / x, x * x), (x, ONE / (x + 1)), (Scalar(3), y)]
        expect = x + x / (x + 1) + 3 * y
        assert dot(pairs) == expect and equals_dot(expect, pairs)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_left_to_right_sum_and_the_one_group_test(self, data):
        # several pairs over one shared denominator, over several, with
        # rational or constant a and zeros: shapes the workloads send
        # dot seldom or never
        kind = data.draw(st.sampled_from(["shared", "distinct", "constant"]))
        den = data.draw(st.sampled_from(DENOMINATORS))
        pairs = []
        for _ in range(data.draw(st.integers(0, 4))):
            a_kind = data.draw(st.sampled_from(["polynomial", "distinct",
                                                "constant"]))
            a = (data.draw(polynomials()) if a_kind == "polynomial"
                 else data.draw(entries(a_kind, den)))
            pairs.append((a, data.draw(entries(kind, den))))
        total = ZERO
        for a, b in pairs:
            total = total + a * b
        assert dot(pairs) == total
        for c in (total, total + 1, data.draw(entries(kind, den))):
            assert equals_dot(c, pairs) == (c == total)


@pytest.fixture
def gcd_calls(monkeypatch):
    """One entry per poly_gcd call while the test runs."""
    calls = []
    real = exprs.poly_gcd

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    for module in (exprs, geometry):
        monkeypatch.setattr(module, "poly_gcd", counting)
    return calls


class TestMembershipRunsNoGcd:
    def test_closure_membership_on_nlchain6(self, monkeypatch, gcd_calls):
        # every Lie derivative the closure takes on nlchain6 lies in the
        # span already; testing that runs no gcd
        window, tests, spent = [False], [], []
        real_contains = Echelon.contains
        real_closure = flatness.invariant_closure

        def contains(self, row):
            if not window[0]:
                return real_contains(self, row)
            before = len(gcd_calls)
            got = real_contains(self, row)
            tests.append(got)
            spent.append(len(gcd_calls) - before)
            return got

        def closure(p0, d):
            window[0] = True
            try:
                return real_closure(p0, d)
            finally:
                window[0] = False

        monkeypatch.setattr(Echelon, "contains", contains)
        monkeypatch.setattr(flatness, "invariant_closure", closure)
        run_codistribution_test(nlchain_n(6))
        assert len(tests) >= 10 and all(tests)
        assert sum(spent) == 0
        assert gcd_calls  # the rest of the run does gcd work


CH = Chart(("x", "y", "u"))
DATA = Path(__file__).parent / "data"


class TestSameSpan:
    def basis(self):
        return [OneForm(CH, [ONE, ZERO, y / (x + 1)]),
                OneForm(CH, [ZERO, ONE, x * y])]

    def test_equal_bases_run_no_echelon_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("echelon arithmetic on equal bases")

        monkeypatch.setattr(Echelon, "add", refuse)
        monkeypatch.setattr(Echelon, "contains", refuse)
        a = Codistribution.reduced(CH, [w.coeffs for w in self.basis()])
        b = Codistribution.reduced(CH, [w.coeffs for w in self.basis()])
        assert a.basis is not b.basis
        assert same_span(a, b)

    def test_unreduced_basis_against_its_reduced_form(self):
        # a span built from an unreduced basis holds the reduced one
        w1, w2 = self.basis()
        unreduced = [
            OneForm(CH, [a + b for a, b in zip(w1.coeffs, w2.coeffs)]),
            OneForm(CH, [x * b for b in w2.coeffs])]
        built = Codistribution(CH, unreduced)
        reduced = Codistribution.span(CH, unreduced)
        assert built.basis == reduced.basis == (w1, w2)
        assert built.pivots == reduced.pivots == (0, 1)
        assert same_span(built, reduced) and same_span(reduced, built)
        other = Codistribution(CH, [w1, OneForm.unit(CH, "u")])
        assert not same_span(other, reduced)
        assert not same_span_by_membership(other, reduced)


@st.composite
def generating_sets(draw):
    """One to three rows on CH drawn like the entries above, sometimes
    with a combination of them added, so that the set is dependent."""
    kind = draw(st.sampled_from(["shared", "distinct", "constant"]))
    den = draw(st.sampled_from(DENOMINATORS))
    rows = [[draw(entries(kind, den)) for _ in CH.names]
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        rows.append(combine(draw(factors(len(rows))), rows))
    return [OneForm(CH, r) for r in rows]


class TestCanonicalSpan:
    """Every Span holds the reduced basis of its span and its pivots, the
    leading columns of that basis, however it was built; so same_span
    compares bases, and agrees with mutual membership."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_form_per_span(self, data):
        gens = data.draw(generating_sets())
        spanned = Codistribution.span(CH, gens)
        ref = SequentialEchelon(w.coeffs for w in gens)
        assert [list(w.coeffs) for w in spanned.basis] == ref.rows
        assert list(spanned.pivots) == ref.pivots
        assert list(spanned.pivots) == [
            next(j for j, c in enumerate(w.coeffs) if not c.is_zero())
            for w in spanned.basis]
        trusted = Codistribution.reduced(CH, ref.rows)
        assert (trusted.basis, trusted.pivots) == (spanned.basis,
                                                   spanned.pivots)
        if len(ref.rows) == len(gens):
            built = Codistribution(CH, gens)
            assert built.basis == spanned.basis
            assert built.pivots == spanned.pivots
        else:
            with pytest.raises(ValueError, match="dependent"):
                Codistribution(CH, gens)
        # the same span from other generators, and a span that may differ
        mixed = combine(data.draw(factors(len(gens))),
                        [w.coeffs for w in gens])
        same = Codistribution.span(CH, [OneForm(CH, mixed)] + gens[::-1])
        drawn = Codistribution.span(CH, data.draw(generating_sets()))
        assert same_span(spanned, same) and same_span(same, spanned)
        for a, b in [(spanned, same), (spanned, drawn), (drawn, spanned)]:
            assert same_span(a, b) == same_span_by_membership(a, b)


@pytest.fixture
def reduced_rows(monkeypatch):
    """The rows Echelon._reduce is given while the test runs."""
    seen = []
    real = Echelon._reduce

    def spy(self, row):
        seen.append(row)
        return real(self, row)

    monkeypatch.setattr(Echelon, "_reduce", spy)
    return seen


def reduced_own_rows(seen, span):
    """The basis rows of span among the rows reduced."""
    return [row for row in seen if any(row is w.coeffs for w in span.basis)]


class TestOwnBasisNeverReduced:
    """A Span's basis is reduced once, when the span is built; whatever
    reads it later reduces none of its rows again."""

    def test_echelon_and_same_span(self, reduced_rows):
        a = Codistribution(CH, [OneForm(CH, [ONE, ZERO, y / (x + 1)]),
                                OneForm(CH, [ZERO, ONE, x * y])])
        b = Codistribution.reduced(CH, [w.coeffs for w in a.basis])
        ech = a.echelon()
        del reduced_rows[:]
        again = a.echelon()
        assert (again.rows, again.pivots) == (ech.rows, ech.pivots)
        assert again.rows is not ech.rows
        assert same_span(a, b) and reduced_rows == []

    def test_annihilator_kernel(self, acad, reduced_rows):
        P = acad.differentials
        ker = geometry.annihilator(P)
        assert ker.dim == acad.m
        assert reduced_own_rows(reduced_rows, P) == []

    def test_backward_shift_and_first_integrals(self, acad, acad_chart,
                                                reduced_rows):
        from dtflat.decompose import find_first_integrals
        from dtflat.systems import backward_shift_codistribution
        P1 = Codistribution(acad.chart, [OneForm.unit(acad.chart, v)
                                         for v in acad.state_names])
        step = flatness.codistribution_step(acad, acad_chart, 1, P1)
        del reduced_rows[:]
        p2 = backward_shift_codistribution(step.Pplus, acad)
        assert reduced_rows == []
        assert same_span(p2, step.P_next)
        find_first_integrals(p2, acad)
        assert reduced_own_rows(reduced_rows, p2) == []


class TestConstantOperandsRunNoGcd:
    """A gcd with a constant operand is 1; no caller asks for one, so
    exprs.poly_gcd counts gcd work only."""

    @pytest.mark.parametrize("path", [
        DATA / "golden" / "nlchain5.sys",
        DATA / "golden" / "rat4.sys",
        DATA / "academic4.sys",
    ])
    def test_cli_run(self, monkeypatch, tmp_path, capsys, path):
        real = exprs.poly_gcd
        calls = []

        def strict(a: Poly, b: Poly) -> Poly:
            if a.is_const() or b.is_const():
                raise AssertionError(f"poly_gcd({a}, {b}) has a constant "
                                     f"operand")
            calls.append(1)
            return real(a, b)

        for module in (exprs, geometry):
            monkeypatch.setattr(module, "poly_gcd", strict)
        argv = [str(path), "--decompose", "--json", str(tmp_path / "r.json")]
        assert cli.run(argv) == 0
        assert calls

"""Geometry layer: exact linear algebra, Lie brackets, Lie derivatives and
closedness of 1-forms (checked against the direct coordinate formula),
annihilators, closures, and Frobenius (checked against involutivity of the
annihilator)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import academic4, nlchain_n, rat_n
from dtflat.errors import ChartMismatch
from dtflat.exprs import ONE, ZERO, Poly, Scalar, parse_scalar
from dtflat.flatness import run_codistribution_test
from dtflat.geometry import (
    Chart,
    Codistribution,
    Distribution,
    Echelon,
    OneForm,
    VectorField,
    _clear_denominators,
    annihilator,
    combine,
    d_scalar,
    generic_rank,
    interior_product,
    invariant_closure,
    is_closed,
    is_integrable,
    is_involutive,
    lie_bracket,
    lie_derivative,
    meet_annihilator,
    meet_coordinates,
    meet_kernel,
    rref,
    same_span,
)
from oracles import intersect

CH6 = Chart(("x1", "x2", "x3", "x4", "u1", "u2"))
CH3 = Chart(("x1", "x2", "u"))
u = Scalar.var("u")


def unit_f(chart, name):
    return VectorField.unit(chart, name)


def unit_w(chart, name):
    return OneForm.unit(chart, name)


class TestChart:
    def test_frozen(self):
        with pytest.raises(AttributeError, match="Chart is frozen: cannot "
                           "assign names"):
            CH3.names = ("x1",)

    def test_equal_to_charts_alone(self):
        assert CH3 == Chart(("x1", "x2", "u"))
        assert CH3 != ("x1", "x2", "u")


class TestRank:
    def test_identity(self):
        k = 5
        rows = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
        assert generic_rank(rows) == k

    def test_proportional_rows(self):
        rows = [[ONE, u], [u, u * u]]
        assert generic_rank(rows) == 1

    def test_academic_jacobian_rank(self, acad):
        # oracle: rank at two exact random points bounds the generic rank
        # from below; elimination must reach the same value
        rng = random.Random(3)
        from fractions import Fraction
        best = 0
        for _ in range(2):
            pt = {v: Fraction(rng.randint(1, 30), rng.randint(31, 60))
                  for v in acad.chart.names}
            rows = [[Scalar(c.eval_at(pt)) for c in row]
                    for row in acad.jacobian]
            best = max(best, generic_rank(rows))
        assert generic_rank(acad.jacobian) == best == 4

    def test_nullspace_annihilates(self):
        rows = [[ONE, u, ZERO], [ZERO, ONE, u]]
        for vec in Echelon(rows).kernel(3):
            for row in rows:
                total = ZERO
                for a, b in zip(row, vec):
                    total = total + a * b
                assert total.is_zero()

    def test_rref_canonical_for_span(self):
        rows_a = [[ONE, u, ZERO], [ZERO, ONE, ONE]]
        rows_b = [[ONE, u + 1, ONE], [ZERO, ONE, ONE]]  # same row span
        ra, _ = rref(rows_a)
        rb, _ = rref(rows_b)
        assert ra == rb


def random_affine(rng: random.Random) -> Scalar:
    return (Scalar(rng.randint(-3, 3)) + Scalar(rng.randint(-2, 2)) * u
            + Scalar(rng.randint(-2, 2)) * v)


def random_entry(rng: random.Random) -> Scalar:
    """A small rational function in u and v; zero one time in four."""
    if rng.random() < 0.25:
        return ZERO
    num, den = random_affine(rng), random_affine(rng)
    return num if den.is_zero() else num / den


def random_span_rows(rng: random.Random) -> list:
    """Up to four rows of up to four columns: some random rows, then
    combinations of them with affine coefficients, shuffled."""
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
    rows = [[random_entry(rng) for _ in range(ncols)]
            for _ in range(rng.randint(1, nrows))]
    base = list(rows)
    while len(rows) < nrows:
        rows.append(combine([random_affine(rng) for _ in base], base))
    rng.shuffle(rows)
    return rows


v = Scalar.var("v")
ECHELON_CASES = [random_span_rows(random.Random(seed)) for seed in range(16)]


def assert_reduced(rows, pivots):
    """Each row leads with 1 in its pivot column, the other rows are zero
    there, and the pivots ascend."""
    assert pivots == sorted(set(pivots))
    for row, col in zip(rows, pivots):
        assert all(c.is_zero() for c in row[:col]) and row[col] == ONE
        assert all(other[col].is_zero() for other in rows if other is not row)


class TestEchelon:
    def test_rows_and_pivots_do_not_depend_on_order(self):
        ranks = set()
        for i, rows in enumerate(ECHELON_CASES):
            ech = Echelon(rows)
            assert_reduced(ech.rows, ech.pivots)
            assert rref(rows) == (ech.rows, ech.pivots)
            rng = random.Random(i)
            for _ in range(3):
                shuffled = rng.sample(rows, len(rows))
                other = Echelon(shuffled)
                assert (other.rows, other.pivots) == (ech.rows, ech.pivots)
            ranks.add((len(ech.rows), len(rows)))
        assert len({r for r, _ in ranks}) >= 3
        assert any(r < n for r, n in ranks)

    def test_matches_sympy(self):
        # sympy's reduced form over the fraction field of Q[u, v] shares
        # no code with the kernel; add and contains against its ranks
        sympy = pytest.importorskip("sympy")

        def to_sympy(rows):
            return sympy.Matrix([[sympy.sympify(str(c).replace("^", "**"))
                                  for c in row] for row in rows])

        def rank(rows):
            return to_sympy(rows).to_DM().to_field().rank() if rows else 0

        grown = refused = 0
        for i, rows in enumerate(ECHELON_CASES):
            ranks = [rank(rows[:k]) for k in range(len(rows) + 1)]
            ech = Echelon()
            for k, row in enumerate(rows):
                grows = ranks[k + 1] > ranks[k]
                assert ech.add(row) == grows
                grown += grows
                refused += not grows
            theirs, pivots = to_sympy(rows).to_DM().to_field().rref()
            assert list(pivots) == ech.pivots
            if ech.rows:
                diff = to_sympy(ech.rows) - theirs.to_Matrix()[:len(pivots), :]
                assert diff.applyfunc(sympy.cancel).is_zero_matrix
            rng = random.Random(100 + i)
            probes = [[random_entry(rng) for _ in rows[0]],
                      combine([random_affine(rng) for _ in rows], rows)]
            for probe in probes:
                assert ech.contains(probe) == (rank(rows + [probe]) == ranks[-1])
        assert grown >= 15 and refused >= 5

    def test_reduced_rows_cost_no_arithmetic(self, monkeypatch):
        calls = []
        for op in ("__mul__", "__sub__", "__truediv__"):
            real = getattr(Scalar, op)
            monkeypatch.setattr(Scalar, op, lambda a, b, real=real:
                                calls.append(1) or real(a, b))
        for rows in ECHELON_CASES:
            reduced = Echelon(rows).rows
            done = len(calls)
            again = Echelon(reduced)
            assert len(calls) == done
            assert again.rows == reduced
        assert calls  # the unreduced inputs did cost arithmetic


class TestMembership:
    def test_form_not_in_span(self):
        P = Codistribution(CH3, [OneForm(CH3, [ONE, u, ZERO])])
        assert not P.contains(unit_w(CH3, "x2"))

    def test_self_membership(self):
        w = OneForm(CH3, [ONE, u, ZERO])
        assert Codistribution(CH3, [w]).contains(w)

    def test_membership_in_mixed_span(self):
        # P2 = span{dx1, dx3, dx2 + 3 dx4}
        P2 = Codistribution(CH6, [
            unit_w(CH6, "x1"), unit_w(CH6, "x3"),
            OneForm(CH6, [ZERO, ONE, ZERO, Scalar(3), ZERO, ZERO])])
        dx1_3dx4 = OneForm(CH6, [ONE, ZERO, ZERO, Scalar(3), ZERO, ZERO])
        dx2_3dx4 = OneForm(CH6, [ZERO, ONE, ZERO, Scalar(3), ZERO, ZERO])
        assert not P2.contains(dx1_3dx4)
        assert P2.contains(dx2_3dx4)

    def test_field_membership(self):
        D = Distribution(CH3, [VectorField(CH3, [ONE, u, ZERO])])
        assert D.contains(VectorField(CH3, [u, u * u, ZERO]))
        assert not D.contains(unit_f(CH3, "x2"))

    def test_chart_mismatch(self):
        P = Codistribution(CH3, [unit_w(CH3, "x1")])
        with pytest.raises(ChartMismatch):
            P.contains(unit_w(CH6, "x1"))


KINDS = [(Distribution, VectorField), (Codistribution, OneForm)]


class TestRowsAndSpans:
    @pytest.mark.parametrize("span_cls, row_cls", KINDS)
    def test_dependent_basis_rejected(self, span_cls, row_cls):
        v = row_cls(CH3, [ONE, u, ZERO])
        w = row_cls(CH3, [u, u * u, ZERO])
        with pytest.raises(ValueError):
            span_cls(CH3, [v, w])

    @pytest.mark.parametrize("row_cls", [VectorField, OneForm])
    def test_wrong_coefficient_count_rejected(self, row_cls):
        with pytest.raises(ValueError):
            row_cls(CH3, [ONE, ZERO])

    @pytest.mark.parametrize("span_cls, row_cls", KINDS)
    def test_basis_on_other_chart_rejected(self, span_cls, row_cls):
        with pytest.raises(ChartMismatch):
            span_cls(CH3, [row_cls.unit(CH6, "x1")])

    def test_field_never_equals_form(self):
        coeffs = [ONE, u, ZERO]
        v, w = VectorField(CH3, coeffs), OneForm(CH3, coeffs)
        assert v != w and w != v
        assert v == VectorField(CH3, coeffs) and w == OneForm(CH3, coeffs)
        assert len({v, w}) == 2

    def test_str_of_both_kinds(self):
        coeffs = [ONE, -u, ZERO]
        assert str(VectorField(CH3, coeffs)) == "d/dx1 + (-u)*d/dx2"
        assert str(OneForm(CH3, coeffs)) == "dx1 + (-u)*dx2"
        assert str(OneForm(CH3, [ZERO] * 3)) == "0"
        assert str(Distribution(CH3, [unit_f(CH3, "u")])) == "span{d/du}"
        assert str(Codistribution(CH3, [])) == "span{}"

    @pytest.mark.parametrize("span_cls, row_cls", KINDS)
    def test_span_keeps_kind_and_reduces(self, span_cls, row_cls):
        rows = [row_cls(CH3, [u, u * u, ZERO]), row_cls(CH3, [ONE, u, ZERO]),
                row_cls.unit(CH3, "u")]
        got = span_cls.span(CH3, rows)
        assert type(got) is span_cls
        assert all(type(v) is row_cls for v in got.basis)
        assert got.basis == (row_cls(CH3, [ONE, u, ZERO]),
                             row_cls.unit(CH3, "u"))

    def test_is_reduced(self):
        # reduced rows are exactly those that rref gives back unchanged
        def is_reduced(rows):
            return rref(rows)[0] == rows

        rows = [[u, u * u, ZERO], [ONE, u, ONE], [ZERO, ONE, u]]
        reduced, pivots = rref(rows)
        assert_reduced(reduced, pivots)
        assert is_reduced(reduced) and is_reduced([])
        assert not is_reduced(rows)
        assert not is_reduced(reduced[::-1])                # pivots out of order
        assert not is_reduced([[u, ZERO, ZERO]])            # pivot is not 1
        assert not is_reduced([[ONE, u, ZERO], [ZERO, ONE, ZERO]])  # not cleared
        assert not is_reduced([[ONE, ZERO, ZERO], [ZERO] * 3])     # zero row

    def test_reduced_pivots_are_those_of_rref(self):
        # Echelon takes reduced rows as they are and finds rref's pivots
        for rows in ([[u, u * u, ZERO], [ONE, u, ONE], [ZERO, ONE, u]],
                     [[ZERO, u, ONE], [ZERO, ONE, ZERO]],
                     [[u, ONE, ZERO, u]]):
            reduced, pivots = rref(rows)
            again = Echelon(reduced)
            assert again.pivots == pivots and again.rows == reduced
            assert Echelon(rows).rows != rows
        assert Echelon([]).pivots == []

    def test_span_reduces_once(self, rref_calls):
        Codistribution.span(CH3, [OneForm(CH3, [ONE, u, ZERO]),
                                  unit_w(CH3, "x2")])
        assert len(rref_calls) == 1


class TestBracket:
    def test_coordinate_fields_commute(self):
        assert lie_bracket(unit_f(CH6, "u1"), unit_f(CH6, "u2")).is_zero()

    def test_cancellation(self):
        chart = Chart(("x1", "x2", "x3"))
        v = VectorField(chart, [ONE, ZERO, Scalar.var("x2")])
        w = VectorField(chart, [ZERO, ONE, Scalar.var("x1")])
        assert lie_bracket(v, w).is_zero()

    def test_constant_field_brackets_vanish(self):
        v = VectorField(CH6, [ZERO, Scalar(-3), ZERO, ONE, ZERO, ZERO])
        assert lie_bracket(v, unit_f(CH6, "u1")).is_zero()

    def test_antisymmetry_random(self):
        rng = random.Random(5)
        chart = CH3
        for _ in range(20):
            v = VectorField(chart, [Scalar(rng.randint(-3, 3)) * Scalar.var("x1"),
                                    Scalar.var("x2") ** rng.randint(0, 2),
                                    Scalar(rng.randint(-2, 2))])
            w = VectorField(chart, [u, Scalar.var("x1") * u, ONE])
            lhs = lie_bracket(v, w)
            rhs = lie_bracket(w, v)
            assert all((a + b).is_zero() for a, b in zip(lhs.coeffs, rhs.coeffs))

    def test_jacobi_identity_random(self):
        rng = random.Random(6)

        def rand_field():
            return VectorField(CH3, [
                Scalar(rng.randint(-2, 2)) * Scalar.var("x1") ** rng.randint(0, 2),
                Scalar(rng.randint(-2, 2)) + u * Scalar(rng.randint(0, 1)),
                Scalar(rng.randint(-1, 1)) * Scalar.var("x2")])

        for _ in range(12):
            a, b, c = rand_field(), rand_field(), rand_field()
            total = [ZERO] * CH3.dim
            for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
                term = lie_bracket(p, lie_bracket(q, r))
                total = [s + t for s, t in zip(total, term.coeffs)]
            assert all(s.is_zero() for s in total)


class TestCartan:
    def test_d_of_constant_form(self):
        assert is_closed(OneForm(CH3, [Scalar(2), Scalar(-1), ZERO]))

    def test_d_exactness_of_product(self):
        # x1*omega = d(x1*(x3+1)) for the same omega
        chart = Chart(("x1", "x2", "x3"))
        g = Scalar.var("x1") * (Scalar.var("x3") + 1)
        dg = d_scalar(chart, g)
        assert is_closed(dg)

    def test_interior_product_pairing(self):
        v = VectorField(CH6, [ZERO] * 4 + [Scalar(-2), ONE])
        w = OneForm(CH6, [ZERO] * 4 + [ONE, Scalar(2)])
        assert interior_product(v, w).is_zero()

    def test_lie_derivative_coordinate_direction(self):
        # along a coordinate direction the derivative hits only coefficients
        chart = Chart(("th1", "th2", "xi1"))
        alpha = Scalar.var("xi1") * Scalar.var("th2")
        w = OneForm(chart, [alpha, ZERO, ZERO])
        lv = lie_derivative(VectorField.unit(chart, "xi1"), w)
        assert lv == OneForm(chart, [Scalar.var("th2"), ZERO, ZERO])

    def test_lie_derivative_constant_case(self):
        w = OneForm(CH3, [Scalar(3), Scalar(-1), ZERO])
        v = VectorField(CH3, [ONE, Scalar(2), ZERO])
        assert lie_derivative(v, w).is_zero()

    def test_lie_derivative_cartan_by_hand(self):
        v = VectorField(CH3, [-u, ONE, ZERO])
        w = OneForm(CH3, [ONE, u, ZERO])
        assert lie_derivative(v, w) == OneForm(CH3, [ZERO, ZERO, Scalar(-1)])

    def test_cartan_consistency_exact_forms(self):
        rng = random.Random(11)
        for _ in range(15):
            g = (Scalar.var("x1") ** rng.randint(1, 2)
                 * Scalar.var("x2") ** rng.randint(0, 2)
                 + Scalar(rng.randint(-2, 2)) * u)
            v = VectorField(CH3, [u, Scalar.var("x1"), ONE])
            w = d_scalar(CH3, g)
            lhs = lie_derivative(v, w)
            rhs = d_scalar(CH3, interior_product(v, w))
            assert all((a - b).is_zero() for a, b in zip(lhs.coeffs, rhs.coeffs))


class TestAnnihilator:
    def test_input_directions(self):
        E0 = Distribution(CH6, [unit_f(CH6, "u1"), unit_f(CH6, "u2")])
        P1 = annihilator(E0)
        expect = Codistribution(CH6, [unit_w(CH6, n) for n in
                                      ("x1", "x2", "x3", "x4")])
        assert same_span(P1, expect)

    def test_full_tangent_space(self):
        full = Distribution(CH3, [unit_f(CH3, n) for n in CH3.names])
        assert annihilator(full).dim == 0

    def test_annihilator_with_rational_coefficients(self):
        E2 = Distribution(CH6, [
            VectorField(CH6, [ONE, ZERO, parse_scalar("-(x3+1)/x1"),
                              ZERO, ZERO, ZERO]),
            unit_f(CH6, "x2"), unit_f(CH6, "x4"),
            unit_f(CH6, "u1"), unit_f(CH6, "u2")])
        P3 = annihilator(E2)
        expect = Codistribution(CH6, [
            OneForm(CH6, [parse_scalar("(x3+1)/x1"), ZERO, ONE,
                          ZERO, ZERO, ZERO])])
        assert same_span(P3, expect)

    def test_dimension_complement_and_double_annihilator(self):
        rng = random.Random(17)
        for _ in range(15):
            fields = []
            for _ in range(rng.randint(1, 3)):
                coeffs = [Scalar(rng.randint(-2, 2)) +
                          Scalar(rng.randint(0, 1)) * Scalar.var("x1")
                          for _ in range(CH3.dim)]
                fields.append(VectorField(CH3, coeffs))
            D = Distribution.span(CH3, fields)
            P = annihilator(D)
            assert D.dim + P.dim == CH3.dim
            for v in D.basis:
                for w in P.basis:
                    assert interior_product(v, w).is_zero()
            DD = annihilator(P)
            assert same_span(DD, D)

    @pytest.mark.parametrize("span_cls, dual_cls, dual_row", [
        (Distribution, Codistribution, OneForm),
        (Codistribution, Distribution, VectorField)])
    def test_annihilator_of_empty_span_is_everything(self, span_cls, dual_cls,
                                                     dual_row):
        got = annihilator(span_cls(CH3, []))
        assert type(got) is dual_cls and got.chart == CH3
        assert got.basis == tuple(dual_row.unit(CH3, n) for n in CH3.names)


class TestIntersect:
    def test_coefficient_matching(self):
        Pa = Codistribution(CH3, [unit_w(CH3, "x1"), unit_w(CH3, "x2")])
        Pb = Codistribution(CH3, [unit_w(CH3, "u"),
                                  OneForm(CH3, [ONE, u, ZERO])])
        got = intersect(Pa, Pb)
        assert same_span(got, Codistribution(CH3, [OneForm(CH3, [ONE, u, ZERO])]))

    def test_self_intersection(self):
        P = Codistribution(CH3, [OneForm(CH3, [ONE, u, ZERO])])
        assert same_span(intersect(P, P), P)

    def test_empty(self):
        Pa = Codistribution(CH3, [unit_w(CH3, "x1")])
        Pb = Codistribution(CH3, [unit_w(CH3, "u")])
        assert intersect(Pa, Pb).dim == 0


class TestClosure:
    def test_one_lie_derivative_then_stable(self):
        P = Codistribution(CH3, [OneForm(CH3, [ONE, u, ZERO])])
        D = Distribution(CH3, [VectorField(CH3, [-u, ONE, ZERO])])
        got = invariant_closure(P, D)
        expect = Codistribution.span(CH3, [OneForm(CH3, [ONE, u, ZERO]),
                                           unit_w(CH3, "u")])
        assert same_span(got, expect)

    def test_already_invariant(self):
        P = Codistribution(CH3, [unit_w(CH3, "x1")])
        D = Distribution(CH3, [unit_f(CH3, "u")])
        assert same_span(invariant_closure(P, D), P)

    def test_contains_input_and_is_fixed_point(self):
        rng = random.Random(23)
        for _ in range(10):
            w = OneForm(CH3, [ONE, Scalar(rng.randint(-2, 2)) * u,
                              Scalar(rng.randint(-1, 1))])
            P = Codistribution(CH3, [w])
            D = Distribution(CH3, [VectorField(CH3, [u, ONE, ZERO])])
            closed = invariant_closure(P, D)
            assert closed.contains(w)
            again = invariant_closure(closed, D)
            assert same_span(again, closed)

    @pytest.mark.parametrize("system, per_step", [
        (academic4, [11, 2, 0, 0]),
        (lambda: nlchain_n(5), [4, 3, 2, 1, 0, 0]),
    ])
    def test_lie_derivatives_per_closure(self, monkeypatch, system, per_step):
        # for each field, L_v w is taken for every row of the basis as it
        # stood when that field's turn began, round after round until a
        # round adds nothing: these are the counts on each step
        import dtflat.flatness as flatness
        import dtflat.geometry as geometry
        counts, real_lie = [], geometry.lie_derivative

        def closure(p0, d):
            counts.append(0)
            monkeypatch.setattr(geometry, "lie_derivative", lie)
            try:
                return invariant_closure(p0, d)
            finally:
                monkeypatch.setattr(geometry, "lie_derivative", real_lie)

        def lie(v, w):
            counts[-1] += 1
            return real_lie(v, w)

        monkeypatch.setattr(flatness, "invariant_closure", closure)
        run_codistribution_test(system())
        assert counts == per_step


def closure_by_unscaled_rows(p0, d):
    """invariant_closure's loop differentiating each row as it stands,
    without clearing its denominators; (rows, pivots, Lie derivatives)."""
    ech, count = p0.echelon(), 0
    while True:
        added = False
        for v in d.basis:
            for row in list(ech.rows):
                count += 1
                if ech.add(lie_derivative(v, OneForm(p0.chart, row)).coeffs):
                    added = True
        if not added:
            return ech.rows, ech.pivots, count


def closure_case(seed):
    """One field v = d/dx3 + a d/du, whose first integrals are x1, x2 and
    y = u - a*x3, and p0 = span{dx1 + sum f_i dh_i} for k - 1 = 1 or 2
    first integrals h_i of x2 and y over one denominator q (a function of
    them) and functions f_i that v does not keep (f_1 with a denominator
    in u or x3).  No h_i depends on x1, so the row leads with 1 at x1 and
    is reduced as it stands: f_1's denominator survives into p0's basis.
    The closure is span{dx1, dh_i}: it grows from 1 to k rows, over
    k - 1 rounds."""
    rng = random.Random(seed)
    chart = Chart(("x1", "x2", "x3", "u"))
    x1, x2, x3, uu = (Scalar.var(n) for n in chart.names)
    a = Scalar(rng.choice([-2, -1, 1, 2]))
    k = rng.randint(2, 3)
    integrals = [x2, uu - a * x3]
    q = ONE + Scalar(rng.choice([1, 2])) * rng.choice(integrals)
    dh = [d_scalar(chart, h / q) for h in rng.sample(integrals, k - 1)]
    fs = [ONE / rng.choice([uu, x3 + 1, uu * uu + 1])]
    fs += [x3 ** i + Scalar(rng.choice([-2, -1, 1, 2]))
           for i in range(1, k - 1)]
    dx1 = d_scalar(chart, x1)
    w = OneForm(chart, combine([ONE] + fs,
                               [dx1.coeffs] + [h.coeffs for h in dh]))
    field = VectorField(chart, [ZERO, ZERO, ONE, a])
    return (Codistribution(chart, [w]), Distribution(chart, [field]),
            Codistribution(chart, [dx1] + dh))


class TestClearedClosure:
    """The closure differentiates g*w, g the lcm of w's denominators, in
    place of w; the spans it visits must not change."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_closure_by_unscaled_rows(self, monkeypatch, seed):
        import dtflat.geometry as geometry
        p0, d, expect = closure_case(seed)
        # a denominator of w moves along v, so v(g) is not zero and
        # L_v(g*w) is not g*L_v(w)
        assert any(c.den.vars() & {"x3", "u"} for c in p0.basis[0].coeffs)
        counts, real_lie = [0], geometry.lie_derivative

        def lie(v, w):
            counts[0] += 1
            return real_lie(v, w)

        monkeypatch.setattr(geometry, "lie_derivative", lie)
        got = invariant_closure(p0, d)
        rows, pivots, count = closure_by_unscaled_rows(p0, d)
        assert [list(w.coeffs) for w in got.basis] == rows
        assert got.echelon().pivots == pivots
        assert counts[0] == count
        assert got.dim == expect.dim > p0.dim
        assert same_span(got, expect)

    def test_cleared_rows_are_polynomial_and_span_alike(self):
        for rows in ECHELON_CASES + [[list(dh.coeffs) for dh in
                                      closure_case(seed)[2].basis]
                                     for seed in range(4)]:
            cleared = [_clear_denominators(row) for row in rows]
            for row, new in zip(rows, cleared):
                assert all(c.den.is_const() for c in new)
                if any(not c.den.is_const() for c in row):
                    assert new != row
            ech, again = Echelon(rows), Echelon(cleared)
            assert (again.rows, again.pivots) == (ech.rows, ech.pivots)

    # primitive factors in x1 and x2; numerators are in u alone, so no
    # factor cancels and each entry's denominator is an integer times the
    # product of the factors drawn for it
    FACTORS = [parse_scalar(t) for t in
               ("1 + x1^2", "x2 - 3", "x1*x2 + 1", "x1", "2*x2 + 1")]

    def test_rows_against_the_monic_lcm(self):
        # g is the product of each factor to its largest power over the
        # row, divided by its leading coefficient, and the cleared row is
        # [c * g]: zero entries, a denominator shared by several entries,
        # distinct ones and constants, mixed
        rng = random.Random(1729)
        seen = {"zero": 0, "whole lcm": 0, "proper factor": 0, "constant": 0}
        for _ in range(40):
            shared = {i: rng.randint(1, 2)
                      for i in rng.sample(range(len(self.FACTORS)), 2)}
            kinds = rng.choices(["zero", "shared", "distinct", "constant"],
                                k=rng.randint(2, 6))
            powers = []
            for kind in kinds:
                if kind == "shared":
                    powers.append(shared)
                elif kind == "distinct":
                    powers.append({i: rng.randint(1, 2) for i in rng.sample(
                        range(len(self.FACTORS)), rng.randint(1, 3))})
                else:
                    powers.append({} if kind == "constant" else None)
            row = []
            for e in powers:
                if e is None:
                    row.append(ZERO)
                    continue
                den = Scalar(rng.choice([1, 2, -3, 6]))
                for i, k in e.items():
                    den = den * self.FACTORS[i] ** k
                row.append((rng.choice([-2, 1, 3]) + rng.choice([0, 1, 4]) * u)
                           / den)
            lcm = {}
            for e in powers:
                for i, k in (e or {}).items():
                    lcm[i] = max(k, lcm.get(i, 0))
            got = _clear_denominators(row)
            if not lcm:
                assert got is row
                continue
            g = ONE
            for i, k in lcm.items():
                g = g * self.FACTORS[i] ** k
            g = g / g.num.leading()[1]
            assert got == [c * g for c in row]
            for c, new, e in zip(row, got, powers):
                if e is None:
                    assert new is c
                seen["zero" if e is None else "constant" if not e
                     else "whole lcm" if e == lcm else "proper factor"] += 1
        assert min(seen.values()) >= 10, seen

    def test_polynomial_rows_pass_through(self):
        for row in ([ZERO] * 3, [ONE, u * u - 2, ZERO],
                    [Scalar(Fraction(1, 2)), -u, Scalar(3)]):
            assert _clear_denominators(row) is row


def integrable_agrees_with_involutive_annihilator(p):
    """is_integrable(p), checked against the involutivity of the
    annihilator of p (the Frobenius duality)."""
    got = is_integrable(p)
    assert got == is_involutive(annihilator(p))
    return got


class TestFrobenius:
    def test_one_dim_distribution_always_involutive(self):
        rng = random.Random(31)
        for _ in range(15):
            coeffs = [Scalar.var("x1") ** rng.randint(0, 2),
                      Scalar(rng.randint(-2, 2)),
                      u * Scalar(rng.randint(0, 2))]
            v = VectorField(CH3, coeffs)
            if v.is_zero():
                continue
            assert is_involutive(Distribution(CH3, [v]))

    def test_coordinate_span_integrable(self):
        assert integrable_agrees_with_involutive_annihilator(
            Codistribution(CH3, [unit_w(CH3, "x1")]))

    def test_rational_one_form_integrable(self):
        chart = CH6
        w = OneForm(chart, [parse_scalar("(x3+1)/x1"), ZERO, ONE,
                            ZERO, ZERO, ZERO])
        assert integrable_agrees_with_involutive_annihilator(
            Codistribution(chart, [w]))

    def test_contact_form_not_integrable(self):
        chart = Chart(("x", "y", "z"))
        w = OneForm(chart, [-Scalar.var("y"), ZERO, ONE])
        assert not integrable_agrees_with_involutive_annihilator(
            Codistribution(chart, [w]))

    def test_involutive_with_rational_coefficients(self):
        E2 = Distribution(CH6, [
            VectorField(CH6, [ONE, ZERO, parse_scalar("-(x3+1)/x1"),
                              ZERO, ZERO, ZERO]),
            unit_f(CH6, "x2"), unit_f(CH6, "x4"),
            unit_f(CH6, "u1"), unit_f(CH6, "u2")])
        assert is_involutive(E2)

    def test_non_involutive_detected(self):
        chart = Chart(("x1", "x2", "x3"))
        v = VectorField(chart, [ONE, ZERO, ZERO])
        w = VectorField(chart, [ZERO, ONE, Scalar.var("x1")])
        assert not is_involutive(Distribution(chart, [v, w]))


def rand_poly(rng, names):
    """c + c' a b^e for two of the names; zero one time in four."""
    if rng.random() < 0.25:
        return ZERO
    a, b = (Scalar.var(x) for x in rng.sample(names, 2))
    return (Scalar(rng.randint(-2, 2))
            + Scalar(rng.choice([-2, -1, 1, 3])) * a * b ** rng.randint(0, 2))


def rand_rational(rng, names):
    """rand_poly over 1, x or 1 + x^2 for one of the names."""
    x = Scalar.var(rng.choice(names))
    return rand_poly(rng, names) / rng.choice([ONE, x, x * x + 1])


def direct_lie_derivative(v, w):
    """(L_v w)_j = sum_i v^i d_i w_j + w_i d_j v^i, the coordinate formula
    without exterior derivatives."""
    names = v.chart.names
    out = []
    for nj, wj in zip(names, w.coeffs):
        total = ZERO
        for ni, vi, wi in zip(names, v.coeffs, w.coeffs):
            total = total + vi * wj.diff(ni) + wi * vi.diff(nj)
        out.append(total)
    return OneForm(v.chart, out)


class TestClosedness:
    def test_quotient_form_and_its_integrating_factor(self):
        # omega = (x3+1)/x1 dx1 + dx3 has d omega = -1/x1 dx1^dx3, while
        # x1*omega = d(x1*(x3+1))
        chart = Chart(("x1", "x2", "x3"))
        x1 = Scalar.var("x1")
        w = OneForm(chart, [parse_scalar("(x3+1)/x1"), ZERO, ONE])
        assert not is_closed(w)
        scaled = OneForm(chart, [c * x1 for c in w.coeffs])
        assert is_closed(scaled)
        assert scaled == d_scalar(chart, x1 * (Scalar.var("x3") + 1))

    def test_every_pair_is_tested(self):
        # x_i dx_j has d(x_i dx_j) = dx_i^dx_j: one nonzero entry per pair,
        # in either order
        chart = Chart(("x1", "x2", "x3", "x4"))
        for i, ni in enumerate(chart.names):
            for j in range(chart.dim):
                if j == i:
                    continue
                coeffs = [ZERO] * chart.dim
                coeffs[j] = Scalar.var(ni)
                assert not is_closed(OneForm(chart, coeffs))

    def test_exact_forms_closed_and_perturbed_ones_not(self):
        rng = random.Random(41)
        names = list(CH3.names)
        for _ in range(15):
            g = rand_rational(rng, names)
            dg = d_scalar(CH3, g)
            assert is_closed(dg)
            bent = OneForm(CH3, [dg.coeffs[0] + Scalar.var("x2")]
                           + list(dg.coeffs[1:]))
            assert not is_closed(bent)


class TestLieDerivativeOracle:
    def test_matches_direct_formula_on_random_rational_pairs(self):
        rng = random.Random(43)
        chart = Chart(("x1", "x2", "x3", "u"))
        names = list(chart.names)
        contracted = 0
        for _ in range(30):
            v = VectorField(chart, [rand_rational(rng, names) for _ in names])
            w = OneForm(chart, [rand_rational(rng, names) for _ in names])
            contracted += not interior_product(v, w).is_zero()
            assert lie_derivative(v, w) == direct_lie_derivative(v, w)
        assert contracted >= 10

    def test_matches_direct_formula_on_sparse_fields(self):
        # fields with one or two nonzero entries skip most pairs of dw
        rng = random.Random(47)
        chart = Chart(("x1", "x2", "x3", "u"))
        names = list(chart.names)
        for _ in range(20):
            coeffs = [ZERO] * chart.dim
            for i in rng.sample(range(chart.dim), rng.randint(1, 2)):
                coeffs[i] = rand_rational(rng, names) + ONE
            v = VectorField(chart, coeffs)
            w = OneForm(chart, [rand_rational(rng, names) for _ in names])
            assert lie_derivative(v, w) == direct_lie_derivative(v, w)


class TestFrobeniusDuality:
    def test_random_codistributions(self):
        rng = random.Random(53)
        chart = Chart(("x1", "x2", "x3", "x4"))
        names = list(chart.names)
        verdicts = []
        for _ in range(20):
            k = rng.randint(1, 3)
            if rng.random() < 0.5:
                # span of differentials: integrable by construction
                forms = [d_scalar(chart, rand_rational(rng, names))
                         for _ in range(k)]
            else:
                forms = [OneForm(chart, [rand_poly(rng, names)
                                         for _ in names]) for _ in range(k)]
            p = Codistribution.span(chart, forms)
            if p.dim == 0:
                continue
            verdicts.append(integrable_agrees_with_involutive_annihilator(p))
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("make", [academic4, lambda: rat_n(4)],
                             ids=["academic4", "rat4"])
    def test_every_P_of_the_sequence(self, make):
        result = run_codistribution_test(make())
        for q in result.sequence:
            assert integrable_agrees_with_involutive_annihilator(q)


class TestInvolutiveGivenKnown:
    """is_involutive(d, known) forms only the brackets with a field of d
    outside the involutive known; it must decide as the all-pairs check."""

    def test_agrees_with_all_pairs_on_random_nested_pairs(self):
        rng = random.Random(59)
        chart = Chart(("x1", "x2", "x3", "x4"))
        names = list(chart.names)

        def field():
            return VectorField(chart, [rand_poly(rng, names) for _ in names])

        def kernel_of_differentials(k):
            # the annihilator of span{dg}: involutive by Frobenius
            return annihilator(Codistribution.span(
                chart, [d_scalar(chart, rand_rational(rng, names))
                        for _ in range(k)]))

        verdicts = []
        for trial in range(30):
            shape = trial % 3
            if shape == 0:
                # both involutive: the kernels of dg1 and of (dg1, dg2)
                g = [d_scalar(chart, rand_rational(rng, names))
                     for _ in range(2)]
                d = annihilator(Codistribution.span(chart, g[:1]))
                known = annihilator(Codistribution.span(chart, g))
            elif shape == 1:
                known = kernel_of_differentials(rng.randint(2, 3))
                d = Distribution.span(chart, list(known.basis) + [field()])
            else:
                known = Distribution.span(chart, [field()])
                d = Distribution.span(
                    chart, list(known.basis)
                    + [field() for _ in range(rng.randint(1, 2))])
            assert is_involutive(known)
            verdicts.append(is_involutive(d))
            assert is_involutive(d, known) == verdicts[-1]
        assert True in verdicts and False in verdicts

    def test_raises_when_known_is_not_inside(self):
        d = Distribution(CH3, [unit_f(CH3, "x1"), unit_f(CH3, "x2")])
        for known in (Distribution(CH3, [unit_f(CH3, "u")]),
                      Distribution(CH3, [VectorField(CH3, [ONE, ZERO, u])])):
            with pytest.raises(ValueError, match="not a subdistribution"):
                is_involutive(d, known)
        assert is_involutive(d, Distribution(CH3, [unit_f(CH3, "x2")]))

    def test_empty_known_forms_every_pair(self, monkeypatch):
        import dtflat.geometry as geometry
        calls = []
        real = geometry.lie_bracket
        monkeypatch.setattr(geometry, "lie_bracket",
                            lambda v, w: calls.append(1) or real(v, w))
        d = Distribution(CH6, [unit_f(CH6, x) for x in ("x1", "x2", "u1")])
        assert is_involutive(d, Distribution(CH6, []))
        assert is_involutive(d)
        assert len(calls) == 3 + 3

    def test_only_brackets_with_a_new_field(self, monkeypatch):
        import dtflat.geometry as geometry
        calls = []
        real = geometry.lie_bracket
        monkeypatch.setattr(geometry, "lie_bracket",
                            lambda v, w: calls.append(1) or real(v, w))
        x1 = Scalar.var("x1")
        # known = span{d/dx1 + d/dx2}: neither basis field of d lies in it,
        # but d/dx1 and known generate d, so one bracket decides
        d = Distribution(CH3, [unit_f(CH3, "x1"), unit_f(CH3, "x2")])
        known = Distribution(CH3, [VectorField(CH3, [ONE, ONE, ZERO])])
        assert is_involutive(d, known) and len(calls) == 1
        # d = known: no new field, no bracket
        calls.clear()
        assert is_involutive(d, d) and calls == []
        # a bracket of the new field with a known field leaves d
        d = Distribution(CH3, [unit_f(CH3, "u"),
                               VectorField(CH3, [ONE, u, ZERO])])
        known = Distribution(CH3, [unit_f(CH3, "u")])
        calls.clear()
        assert not is_involutive(d, known) and len(calls) == 1
        # a bracket of two new fields leaves d
        ch4 = Chart(("x1", "x2", "x3", "x4"))
        known = Distribution(ch4, [unit_f(ch4, "x4")])
        d = Distribution(ch4, [unit_f(ch4, "x4"), unit_f(ch4, "x1"),
                               VectorField(ch4, [ZERO, ONE, x1, ZERO])])
        assert not is_involutive(d, known)
        assert not is_involutive(d)


class TestMeetCoordinates:
    """meet_coordinates(p, columns) against intersect with the explicit
    span of the coordinate differentials: the same reduced basis."""

    @staticmethod
    def oracle(p, columns):
        chart = p.chart
        q = Codistribution(chart, [OneForm.unit(chart, chart.names[c])
                                   for c in columns])
        return intersect(p, q)

    def test_random_spans(self):
        rng = random.Random(61)
        chart = Chart(("x1", "x2", "x3", "u1", "u2"))
        names = list(chart.names)
        dims = set()
        for _ in range(40):
            k = rng.randint(1, 4)
            rand = rand_rational if rng.random() < 0.3 else rand_poly
            p = Codistribution.span(chart, [
                OneForm(chart, [rand(rng, names) if rng.random() < 0.7
                                else ZERO for _ in names])
                for _ in range(k)])
            columns = sorted(rng.sample(range(chart.dim),
                                        rng.randint(1, chart.dim - 1)))
            got = meet_coordinates(p, columns)
            assert got.basis == self.oracle(p, columns).basis
            dims.add(got.dim)
        assert len(dims) >= 3

    def test_span_of_df_meets_span_of_dx(self, acad):
        n = acad.n
        got = meet_coordinates(acad.differentials, range(n))
        assert got.basis == self.oracle(acad.differentials, range(n)).basis
        assert got.dim == 2  # the intersection of step 1 in the golden

    def test_edge_cases(self):
        p = Codistribution.span(CH3, [OneForm(CH3, [ONE, u, ZERO]),
                                      OneForm(CH3, [u, ZERO, ONE])])
        empty = Codistribution(CH3, [])
        for columns in ([], [0], [0, 1], [0, 1, 2]):
            assert meet_coordinates(empty, columns).basis == ()
        # all columns kept: p itself, as its reduced basis
        assert meet_coordinates(p, range(3)).basis == p.basis
        assert p.basis == self.oracle(p, range(3)).basis
        # no column kept: nothing
        assert meet_coordinates(p, []).basis == ()
        # p in span{dx1, dx2} after one elimination
        assert (meet_coordinates(p, [0, 1]).basis
                == self.oracle(p, [0, 1]).basis)


# ------------------------------------ skipped zero and constant work
#
# The Lie calculus differentiates only coefficients that are not constant
# and adds only nonzero products.  The references below form every term,
# on entries that are mostly zeros and constants, as the kernel meets them.

NAMES4 = ("x1", "x2", "x3", "u")
CH4 = Chart(NAMES4)
VARS4 = [Scalar.var(n) for n in NAMES4]

constants = st.builds(lambda p, q: Scalar(Fraction(p, q)),
                      st.integers(-3, 3), st.integers(1, 3))
polynomials = st.builds(
    lambda c, k, i, j, e: c + Scalar(k) * VARS4[i] * VARS4[j] ** e,
    constants, st.sampled_from([-2, -1, 1, 3]), st.integers(0, 3),
    st.integers(0, 3), st.integers(0, 2))
rationals = st.builds(lambda p, i, k: p / (VARS4[i] * VARS4[i] + k),
                      polynomials, st.integers(0, 3), st.integers(0, 2))
entries = st.one_of(st.just(ZERO), st.just(ZERO), constants, polynomials,
                    rationals)
rows4 = st.lists(entries, min_size=4, max_size=4)


def full_lie_bracket(v, w):
    """[v, w]^i = sum_j (v^j d_j w^i - w^j d_j v^i), every term formed."""
    names = v.chart.names
    return VectorField(v.chart, [
        sum((v.coeffs[j] * w.coeffs[i].diff(nj)
             - w.coeffs[j] * v.coeffs[i].diff(nj)
             for j, nj in enumerate(names)), ZERO)
        for i in range(len(names))])


def full_lie_derivative(v, w):
    """(L_v w)_j = sum_i v^i (d_i w_j - d_j w_i) + d_j(v . w), every
    term formed."""
    names, vc, wc = v.chart.names, v.coeffs, w.coeffs
    vw = sum((a * b for a, b in zip(vc, wc)), ZERO)
    return OneForm(v.chart, [
        sum((vc[i] * (wc[j].diff(ni) - wc[i].diff(nj))
             for i, ni in enumerate(names)), ZERO) + vw.diff(nj)
        for j, nj in enumerate(names)])


def full_is_closed(w):
    names, c = w.chart.names, w.coeffs
    return all(c[j].diff(ni) == c[i].diff(nj)
               for i, ni in enumerate(names) for j, nj in enumerate(names))


class TestSkippedWork:
    @given(rows4, rows4)
    @settings(max_examples=60, deadline=None)
    def test_lie_bracket(self, v, w):
        v, w = VectorField(CH4, v), VectorField(CH4, w)
        assert lie_bracket(v, w) == full_lie_bracket(v, w)

    @given(rows4, rows4)
    @settings(max_examples=60, deadline=None)
    def test_lie_derivative(self, v, w):
        v, w = VectorField(CH4, v), OneForm(CH4, w)
        assert lie_derivative(v, w) == full_lie_derivative(v, w)

    @given(rows4)
    @settings(max_examples=60, deadline=None)
    def test_is_closed_and_d_scalar(self, w):
        w = OneForm(CH4, w)
        assert is_closed(w) == full_is_closed(w)
        for g in w.coeffs:
            dg = d_scalar(CH4, g)
            assert dg.coeffs == tuple(g.diff(n) for n in NAMES4)
            assert is_closed(dg)

    def test_exact_form_of_a_constant_contraction(self):
        # v . w = 2 is constant, so d(v . w) adds nothing; v . dw does
        x1 = VARS4[0]
        v = VectorField(CH4, [ONE, ZERO, ZERO, ZERO])
        w = OneForm(CH4, [Scalar(2), x1, ZERO, ZERO])
        assert interior_product(v, w) == Scalar(2)
        assert lie_derivative(v, w) == OneForm(CH4, [ZERO, ONE, ZERO, ZERO])
        assert lie_derivative(v, w) == full_lie_derivative(v, w)


class TestPivotNormalization:
    """Echelon.add divides a new row by its leading entry unless that entry
    is the constant 1."""

    LEADS = [ONE, Scalar(-1), Scalar(2), Scalar(Fraction(1, 2)),
             Scalar.var("x1"), parse_scalar("(1 + x1)/x2")]

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    def test_row_divided_by_its_leading_entry(self, lead, monkeypatch):
        a, b = parse_scalar("x1*x2 - 3"), parse_scalar("1/(x1 + 2)")
        row = [ZERO, lead, a, b]
        divisions = []
        real = Scalar.__truediv__
        monkeypatch.setattr(Scalar, "__truediv__", lambda s, o:
                            divisions.append(1) or real(s, o))
        ech = Echelon()
        assert ech.add(row)
        monkeypatch.undo()
        assert ech.pivots == [1]
        assert ech.rows == [[ZERO, ONE, a / lead, b / lead]]
        # a leading 1 divides nothing; otherwise lead, a and b are divided
        # and the zero entry is kept
        assert len(divisions) == (0 if lead == ONE else 3)
        assert rref([row]) == (ech.rows, ech.pivots)

    @pytest.mark.parametrize("lead", LEADS, ids=str)
    def test_leading_entry_after_reduction(self, lead):
        # the second row leads with lead only once the first is removed
        x2 = Scalar.var("x2")
        first = [ONE, x2, ZERO]
        second = [x2, x2 * x2 + lead, Scalar(5)]
        rows, pivots = rref([first, second])
        assert pivots == [0, 1]
        assert rows[1] == [ZERO, ONE, Scalar(5) / lead]
        assert rows[0] == [ONE, ZERO, -x2 * Scalar(5) / lead]
        assert rref([second, first]) == (rows, pivots)


class TestScalarConstants:
    """==, hash, is_zero, is_const and const_value of equal constants built
    along different paths."""

    x1 = Scalar.var("x1")

    def test_equal_constants(self):
        x1 = self.x1
        threes = [Scalar(3), Scalar(Fraction(6, 2)), Scalar(Poly.const(3)),
                  Scalar(Poly.const(6), Poly.const(2)), (x1 * 3) / x1,
                  (x1 + 1) * (3 / (x1 + 1)), Scalar.of(3)]
        halves = [Scalar(Fraction(1, 2)), Scalar(1) / 2,
                  Scalar(Poly.const(1), Poly.const(2)),
                  (x1 + 1) / (2 * x1 + 2), parse_scalar("x1/(2*x1)")]
        for group, value in ((threes, 3), (halves, Fraction(1, 2))):
            for a in group:
                assert a.is_const() and not a.is_zero()
                assert a.const_value() == value
                assert a == value and a == Scalar(value)
                assert hash(a) == hash(value)
                for b in group:
                    assert a == b and not (a != b)
        assert all(a != b for a in threes for b in halves)
        assert type(Scalar(3).const_value()) is int

    def test_zero_along_every_path(self):
        x1 = self.x1
        zeros = [ZERO, Scalar(0), Scalar(Fraction(0, 5)),
                 Scalar(Poly.const(0)), Scalar(Poly({}), Poly.const(7)),
                 x1 - x1, (x1 + 1) * 0, x1.diff("x2"), ONE.diff("x1")]
        for z in zeros:
            assert z.is_zero() and z.is_const()
            assert z == ZERO and z == 0 and z.const_value() == 0
            assert hash(z) == hash(0)

    def test_non_constants(self):
        x1 = self.x1
        for s in (x1, 1 / x1, (x1 * x1) / x1, parse_scalar("(x1 + 1)/2")):
            assert not s.is_const() and not s.is_zero()
            assert s == s and s != ONE and s != 1
            with pytest.raises(ValueError):
                s.const_value()
        assert x1 == (x1 * x1) / x1
        assert x1 != "x1" and ONE != "1" and ONE != 1.0

    def test_of_keeps_a_scalar(self):
        s = parse_scalar("x1 + 1/2")
        assert Scalar.of(s) is s
        assert Scalar.of(2) == Scalar(2)
        assert Scalar.of(Fraction(1, 3)) == Scalar(Fraction(1, 3))

    def test_row_keeps_its_scalars(self):
        s = parse_scalar("x1 + 1/2")
        row = OneForm(CH3, [s, ONE, ZERO])
        assert row.coeffs[0] is s and row.coeffs[1] is ONE
        mixed = OneForm(CH3, [s, 2, Fraction(1, 2)])
        assert mixed.coeffs == (s, Scalar(2), Scalar(Fraction(1, 2)))
        assert all(type(c) is Scalar for c in mixed.coeffs)


class TestMeetAnnihilator:
    """meet_annihilator(p, d) against intersect(p, ann(d)); for a
    distribution p and a codistribution d, meet_kernel(p, pairings) the
    same way, as the distribution step takes D_{k-1}."""

    def test_random_spans(self):
        chart = Chart(("x1", "x2", "x3", "u1"))
        names = list(chart.names)
        for kinds in (KINDS[::-1], KINDS):
            rng = random.Random(67)
            dims = set()
            for _ in range(30):
                rand = rand_rational if rng.random() < 0.3 else rand_poly
                p, d = (span_cls.span(chart, [
                            row_cls(chart, [rand(rng, names)
                                            if rng.random() < 0.6
                                            else ZERO for _ in names])
                            for _ in range(k)])
                        for (span_cls, row_cls), k in zip(
                            kinds, (rng.randint(1, 3), rng.randint(1, 2))))
                if isinstance(p, Codistribution):
                    got = meet_annihilator(p, d)
                else:
                    got = meet_kernel(p, ([interior_product(v, w)
                                           for v in p.basis] for w in d.basis))
                    assert isinstance(got, Distribution)
                assert got.basis == intersect(p, annihilator(d)).basis
                dims.add(got.dim)
            assert len(dims) >= 3

    def test_edge_cases(self):
        p = Codistribution.span(CH3, [OneForm(CH3, [ONE, u, ZERO]),
                                      OneForm(CH3, [u, ZERO, ONE])])
        none = Distribution(CH3, [])
        assert meet_annihilator(Codistribution(CH3, []), none).basis == ()
        assert meet_annihilator(p, none).basis == p.basis
        everything = annihilator(Codistribution(CH3, []))
        assert meet_annihilator(p, everything).basis == ()
        with pytest.raises(ChartMismatch):
            meet_annihilator(p, Distribution(CH6, []))
        empty = Distribution(CH3, [])
        assert meet_kernel(empty, []) is empty
        d = Distribution.span(CH3, [VectorField(CH3, [ONE, u, ZERO])])
        assert meet_kernel(d, []).basis == d.basis

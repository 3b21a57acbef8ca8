"""Both flatness tests and the duality verifier against the worked
example, hand-derived fixtures, scaling families, and randomized
systems."""

from pathlib import Path

import pytest

from corpus import (
    academic4,
    base_corpus,
    chain2,
    integrator1,
    mimo3,
    nlchain_n,
    nonflat2,
    nonflat3,
    random_flat_corpus,
    rat_n,
)
from dtflat.cli import parse_system
from dtflat.errors import InternalInvariantError
from dtflat.exprs import ONE, ZERO, Scalar, parse_scalar
from dtflat.flatness import (
    ProjectabilityReport,
    _xi_derivative_closure,
    analyze,
    codistribution_step,
    distribution_step,
    largest_projectable_subdistribution,
    normalize_distribution_basis,
    projectability_report,
    run_codistribution_test,
    run_distribution_test,
    verify_duality,
)
from dtflat.geometry import (
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    interior_product,
    is_integrable,
    is_involutive,
    rref,
    same_span,
)
from dtflat.systems import (
    AdaptedChart,
    build_adapted_chart,
    pushforward_projectable,
)

DATA = Path(__file__).parent / "data"


def field6(chart, *pairs):
    coeffs = [ZERO] * chart.dim
    for name, c in pairs:
        coeffs[chart.index(name)] = Scalar.of(c)
    return VectorField(chart, coeffs)


def form6(chart, *pairs):
    coeffs = [ZERO] * chart.dim
    for name, c in pairs:
        coeffs[chart.index(name)] = Scalar.of(c)
    return OneForm(chart, coeffs)


# ------------------------------------------------ golden example: E side

class TestGoldenDistribution:
    def test_dims(self, acad_verdict):
        assert acad_verdict.distribution.dims == [2, 3, 5, 6]
        assert acad_verdict.distribution.kbar == 4
        assert acad_verdict.flat is True

    def test_sequence_matches(self, acad, acad_verdict):
        ch = acad.chart
        expect = [
            Distribution(ch, [field6(ch, ("u1", 1)), field6(ch, ("u2", 1))]),
            Distribution(ch, [field6(ch, ("x2", -3), ("x4", 1)),
                              field6(ch, ("u1", 1)), field6(ch, ("u2", 1))]),
            Distribution(ch, [
                field6(ch, ("x1", 1), ("x3", parse_scalar("-(x3+1)/x1"))),
                field6(ch, ("x2", 1)), field6(ch, ("x4", 1)),
                field6(ch, ("u1", 1)), field6(ch, ("u2", 1))]),
            Distribution(ch, [field6(ch, (n, 1)) for n in ch.names]),
        ]
        got = acad_verdict.distribution.sequence
        assert len(got) == 4
        for g, e in zip(got, expect):
            assert same_span(g, e)

    def test_projectable_sequence(self, acad, acad_verdict):
        ch = acad.chart
        steps = acad_verdict.distribution.steps
        d0 = Distribution(ch, [field6(ch, ("u1", -2), ("u2", 1))])
        assert same_span(steps[0].D, d0)
        # D1 = E1 and D2 = E2
        assert same_span(steps[1].D, acad_verdict.distribution.sequence[1])
        assert same_span(steps[2].D, acad_verdict.distribution.sequence[2])

    def test_delta_sequence_nested(self, acad_verdict):
        steps = acad_verdict.distribution.steps
        dims = [st.Delta.dim for st in steps]
        assert dims == [1, 3, 4, 4]
        for prev, nxt in zip(steps, steps[1:]):
            for v in prev.Delta.basis:
                assert nxt.Delta.contains(v)

    def test_every_E_involutive_and_D_projectable(self, acad, acad_verdict):
        for st in acad_verdict.distribution.steps:
            assert is_involutive(st.E)
            for v in st.D_adapted.basis:
                pushforward_projectable(v, acad)  # raises if not projectable


class TestGoldenCertificate:
    def test_mhat_matches_display(self, acad_verdict):
        rep = acad_verdict.distribution.steps[0].report
        assert rep.dbar == 2
        assert rep.rank == 1
        e11 = parse_scalar("-(xi2+1)*(th3+1)/(3*th1)")
        e21 = parse_scalar("-xi1*(th3+1)/(3*th1)")
        assert rep.independent_rows == [[e11, ZERO], [e21, ZERO]]

    def test_kernel_annihilates_and_is_xi_free(self, acad_verdict):
        rep = acad_verdict.distribution.steps[0].report
        assert len(rep.kernel_basis) == 1
        vec = rep.kernel_basis[0]
        assert vec == [ZERO, ONE]
        for row in rep.independent_rows:
            dot = sum((a * b for a, b in zip(row, vec)), ZERO)
            assert dot.is_zero()

    def test_mixed_block(self, acad_verdict):
        rep = acad_verdict.distribution.steps[0].report
        assert rep.mixed_block == [
            [parse_scalar("-(th3+1)/th1"), ZERO],
            [parse_scalar("-xi1*(xi2+1)*(th3+1)/(3*th1)"), parse_scalar("-1/3")]]

    def test_rank_independent_of_xi_order(self, acad, acad_chart, acad_verdict):
        rep = acad_verdict.distribution.steps[0].report
        _, fwd = _xi_derivative_closure(rep.mixed_block, ("xi1", "xi2"))
        _, rev = _xi_derivative_closure(rep.mixed_block, ("xi2", "xi1"))
        assert len(fwd.rows) == len(rev.rows) == rep.rank
        assert fwd.rows == rev.rows

    def test_later_steps_have_rank_zero(self, acad_verdict):
        for st in acad_verdict.distribution.steps[1:]:
            assert st.report.rank == 0


# ------------------------------------------------ golden example: P side

class TestGoldenCodistribution:
    def test_dims(self, acad_verdict):
        assert acad_verdict.codistribution.dims == [4, 3, 1, 0]
        assert acad_verdict.codistribution.kbar == 4
        assert acad_verdict.codistribution.flat is True

    def test_sequence_matches(self, acad, acad_verdict):
        ch = acad.chart
        expect = [
            Codistribution(ch, [form6(ch, (x, 1)) for x in acad.state_names]),
            Codistribution(ch, [form6(ch, ("x1", 1)), form6(ch, ("x3", 1)),
                                form6(ch, ("x2", 1), ("x4", 3))]),
            Codistribution(ch, [form6(ch, ("x1", parse_scalar("(x3+1)/x1")),
                                      ("x3", 1))]),
            Codistribution(ch, []),
        ]
        got = acad_verdict.codistribution.sequence
        assert len(got) == 4
        for g, e in zip(got, expect):
            if e.dim == 0:
                assert g.dim == 0
            else:
                assert same_span(g, e)

    def test_added_form_is_dth1(self, acad, acad_verdict):
        step1 = acad_verdict.codistribution.steps[0]
        ch = acad.chart_adapted
        added = Codistribution.span(ch, step1.added_forms)
        assert same_span(added, Codistribution(ch, [OneForm.unit(ch, "th1")]))

    def test_pplus_matches_display(self, acad, acad_verdict):
        step1 = acad_verdict.codistribution.steps[0]
        ch = acad.chart_adapted
        expect = Codistribution(ch, [
            OneForm.unit(ch, "th1"), OneForm.unit(ch, "th3"),
            form6(ch, ("th2", 1), ("th4", 3))])
        assert same_span(step1.Pplus, expect)

    def test_pplus_plus_p_matches_display(self, acad, acad_chart, acad_verdict):
        # P2+ + P1 = span{dx1..dx4, du1 + 2 du2}
        from dtflat.geometry import sum_codistributions
        step1 = acad_verdict.codistribution.steps[0]
        union = sum_codistributions(acad_chart.from_adapted(step1.Pplus),
                                    step1.P)
        ch = acad.chart
        expect = Codistribution(ch, [form6(ch, (x, 1)) for x in acad.state_names]
                                + [form6(ch, ("u1", 1), ("u2", 2))])
        assert same_span(union, expect)
        # and the later unions collapse onto P_k
        for st in acad_verdict.codistribution.steps[1:]:
            union = sum_codistributions(acad_chart.from_adapted(st.Pplus), st.P)
            if st.P.dim:
                assert same_span(union, st.P)
            else:
                assert union.dim == 0

    def test_every_P_integrable(self, acad_verdict):
        for q in acad_verdict.codistribution.sequence:
            assert is_integrable(q)

    def test_intersection_dims(self, acad_verdict):
        dims = [st.intersection.dim for st in acad_verdict.codistribution.steps]
        assert dims == [2, 1, 0, 0]


# ----------------------------------------------------- duality and fixtures

class TestDuality:
    def test_academic_full_pass(self, acad_verdict):
        assert acad_verdict.duality_ok is True
        assert acad_verdict.tests_agree is True
        for c in acad_verdict.duality.checks:
            assert c.pairing_zero and c.dims_complementary
            assert c.projectable_pairing_zero
            assert c.projectable_dims_complementary
            assert c.dim_formula_E and c.dim_formula_P
            assert c.certificates_agree

    def test_first_step_dims(self, acad_verdict):
        c = acad_verdict.duality.checks[0]
        assert (c.E_dim, c.P_dim, c.D_dim, c.sum_dim) == (2, 4, 1, 5)

    def test_explicit_pairing(self, acad, acad_verdict):
        # (-2 du1 + du2) against (du1 + 2 du2) at the projectable level
        ch = acad.chart
        v = field6(ch, ("u1", -2), ("u2", 1))
        w = form6(ch, ("u1", 1), ("u2", 2))
        assert interior_product(v, w).is_zero()

    def test_all_base_corpus(self):
        for system in base_corpus():
            chart = build_adapted_chart(system)
            dres = run_distribution_test(system, chart)
            pres = run_codistribution_test(system, chart)
            assert dres.flat == pres.flat, system.name
            assert dres.kbar == pres.kbar, system.name
            report = verify_duality(system, dres, pres)
            assert report.ok

    def test_random_flat_corpus(self):
        for system in random_flat_corpus():
            verdict = analyze(system)
            assert verdict.flat is True, system.name
            assert verdict.duality_ok is True
            assert verdict.tests_agree is True


class TestCrossCheck:
    def test_fires_when_closures_disagree(self, acad, acad_chart, monkeypatch):
        import dtflat.flatness as flatness
        ch = acad.chart
        P1 = Codistribution(ch, [OneForm.unit(ch, x) for x in acad.state_names])
        # with the real closure the step goes through
        codistribution_step(acad, acad_chart, 1, P1)
        monkeypatch.setattr(flatness, "invariant_closure", lambda p0, d: p0)
        with pytest.raises(InternalInvariantError, match="adapted-chart closure "
                           "and coordinate-free closure disagree"):
            codistribution_step(acad, acad_chart, 1, P1)


class TestFixtures:
    def test_nonflat_stalls(self):
        v = analyze(nonflat2())
        assert v.flat is False
        assert v.kbar == 1
        assert v.distribution.dims == [1]
        assert v.codistribution.dims == [2]
        assert v.duality_ok is True

    def test_nonflat_late_obstruction(self):
        # the projectability certificate is trivial at step 1 and rank 1
        # at step 2, where the sequence stalls
        v = analyze(nonflat3())
        assert v.flat is False
        assert v.kbar == 2
        assert [st.report.rank for st in v.distribution.steps] == [0, 1]
        assert v.distribution.dims == [1, 2]
        assert v.codistribution.dims == [3, 2]
        assert v.duality_ok is True

    def test_nonflat_membership_oracle(self):
        # the direct reason: dx2 never enters span{du, dx1 + u dx2}
        s = nonflat2()
        ch = s.chart
        span = Codistribution(ch, [form6(ch, ("u1", 1)),
                                   form6(ch, ("x1", 1), ("x2", Scalar.var("u1")))])
        assert not span.contains(form6(ch, ("x2", 1)))

    def test_integrator_flat_one_step(self):
        v = analyze(integrator1())
        assert v.flat is True
        assert v.distribution.dims == [1, 2]
        assert v.codistribution.dims == [1, 0]

    def test_chain_flat(self):
        v = analyze(chain2())
        assert v.flat is True and v.kbar == 3
        assert v.codistribution.dims == [2, 1, 0]

    def test_mimo_flat(self):
        v = analyze(mimo3())
        assert v.flat is True
        assert v.duality_ok is True

    def test_max_iterations_truncates(self):
        v = analyze(academic4(), max_iterations=1)
        assert v.flat is None and v.kbar is None
        assert "not converged" in v.witness
        assert v.tests_agree is None and v.duality is None
        for res in (v.distribution, v.codistribution):
            assert not res.converged
            assert res.kbar is None and res.flat is None
            assert len(res.steps) == 1
            assert res.dims == [s.dim for s in res.sequence]
        assert v.distribution.dims == [2, 3]
        assert v.codistribution.dims == [4, 3]

    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError, match="neither"):
            analyze(chain2(), test="neither")

    def test_termination_bound(self):
        # the stall index is bounded by the default iteration budget
        for system in base_corpus():
            v = analyze(system)
            assert v.kbar is not None
            assert v.kbar <= system.n + system.m + 1

    def test_edge_shapes(self):
        from corpus import mk
        from dtflat.decompose import decompose_cascade
        cases = [
            (["x1"], ["u1", "u2"], ["u1 + u2*x1"], True, 2),
            (["x1"], ["u1", "u2"], ["u1"], True, 2),        # unused input
            (["x1", "x2"], ["u1", "u2"], ["u1", "u2"], True, 2),
            (["x1", "x2", "x3"], ["u1"], ["x2", "x3", "u1 + x1^2"], True, 4),
            (["x1"], ["u1"], ["x1 + x1*u1"], True, 2),
        ]
        for states, inputs, exprs, flat, kbar in cases:
            s = mk(states, inputs, exprs, name="edge")
            v = analyze(s)
            assert v.flat is flat and v.kbar == kbar, exprs
            assert v.duality_ok is True
            cascade = decompose_cascade(s)
            assert cascade.blocked is None
            assert cascade.depth == kbar - 1


# ------------------------------------------------------- normalized bases

class TestNormalizeBasis:
    def test_elimination(self, acad):
        ch = acad.chart_adapted
        d = Distribution(ch, [
            VectorField(ch, [ONE, ONE, ZERO, ZERO, ZERO, ZERO]),
            VectorField(ch, [ZERO, ONE, ZERO, ZERO, ZERO, ZERO])])
        norm = normalize_distribution_basis(d, acad.n)
        assert norm.dbar == 2
        assert norm.theta_pivots == [0, 1]
        expect = Distribution(ch, [VectorField.unit(ch, "th1"),
                                   VectorField.unit(ch, "th2")])
        assert same_span(Distribution(ch, norm.fields), expect)

    def test_xi_only_field(self, acad):
        ch = acad.chart_adapted
        d = Distribution(ch, [VectorField.unit(ch, "xi1")])
        norm = normalize_distribution_basis(d, acad.n)
        assert norm.dbar == 0
        assert norm.xi_pivots == [4]

    def test_reduced_basis_taken_as_is(self, acad, acad_chart, row_operations):
        e1 = Distribution(acad.chart, [field6(acad.chart, ("x2", -3), ("x4", 1)),
                                       field6(acad.chart, ("u1", 1)),
                                       field6(acad.chart, ("u2", 1))])
        d = acad_chart.to_adapted(e1)
        rows, pivots = rref([v.coeffs for v in d.basis])
        del row_operations[:]
        norm = normalize_distribution_basis(d, acad.n)
        assert row_operations == []
        assert [v.coeffs for v in norm.fields] == [tuple(r) for r in rows]
        assert norm.fields == list(d.basis)
        assert norm.theta_pivots + norm.xi_pivots == pivots == [0, 1, 3]

    def test_identity_blocks(self, acad, acad_chart):
        # normalized theta-pivot fields carry 1 at their own pivot and 0 at
        # the other pivots; trailing fields have no theta components
        e0 = Distribution(acad.chart, [VectorField.unit(acad.chart, u)
                                       for u in acad.input_names])
        norm = normalize_distribution_basis(acad_chart.to_adapted(e0), acad.n)
        for i, p in enumerate(norm.theta_pivots):
            for j, q in enumerate(norm.theta_pivots):
                expected = ONE if i == j else ZERO
                assert norm.fields[i].coeffs[q] == expected
        for f in norm.fields[norm.dbar:]:
            assert all(c.is_zero() for c in f.coeffs[:acad.n])


class TestProjectableSubdistribution:
    def test_all_xi_free_is_identity(self, acad, acad_chart):
        ch = acad.chart
        d = Distribution(ch, [field6(ch, ("x2", -3), ("x4", 1)),
                              field6(ch, ("u1", 1)), field6(ch, ("u2", 1))])
        sub, _, rep = largest_projectable_subdistribution(d, acad_chart)
        assert rep.rank == 0
        assert same_span(sub, d)

    def test_nonflat_projectable_is_zero(self):
        s = nonflat2()
        chart = build_adapted_chart(s)
        e0 = Distribution(s.chart, [VectorField.unit(s.chart, "u1")])
        sub, _, rep = largest_projectable_subdistribution(e0, chart)
        assert sub.dim == 0
        assert rep.rank == 1 == rep.dbar

    def test_dimension_formula(self, acad, acad_chart):
        e0 = Distribution(acad.chart, [VectorField.unit(acad.chart, u)
                                       for u in acad.input_names])
        sub, _, rep = largest_projectable_subdistribution(e0, acad_chart)
        assert sub.dim == rep.dim - rep.rank == 1


class TestProjectableOnOriginalChart:
    """D_{k-1} is built on (x, u) as the part of E_{k-1} that the rho-forms
    annihilate; the reference pulls the adapted-chart core back field by
    field, substituting th = f into every component."""

    SYSTEMS = {
        "academic4": academic4, "nonflat2": nonflat2, "nonflat3": nonflat3,
        "mixed2": lambda: parse_system(DATA / "mixed2.sys")[0],
        "mimo3": mimo3, "rat4": lambda: rat_n(4), "nlchain5": lambda: nlchain_n(5),
    }
    # steps whose certificate has derivative rows, so D is a proper part
    RANKED = {"academic4": [1], "nonflat2": [1], "nonflat3": [2]}

    @staticmethod
    def reference_D(chart, core):
        return Distribution.span(chart.sys.chart, [
            chart.field_from_adapted(v) for v in core.basis])

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_matches_pulled_back_core(self, name):
        system = self.SYSTEMS[name]()
        chart = build_adapted_chart(system)
        verdict = analyze(system, chart)
        assert verdict.duality_ok is True
        for st in verdict.distribution.steps:
            assert st.D.basis == self.reference_D(chart, st.D_adapted).basis
        ranked = [st.k for st in verdict.distribution.steps if st.report.rank]
        assert ranked == self.RANKED.get(name, [])

    def test_analysis_pulls_no_field_back(self, acad, acad_chart, monkeypatch):
        # the codistribution test moves only forms, so over the whole
        # analysis every field_from_adapted call would be the distribution
        # test pulling D back through the chart
        calls = []
        real = AdaptedChart.field_from_adapted

        def counting(self, v):
            calls.append(v)
            return real(self, v)

        monkeypatch.setattr(AdaptedChart, "field_from_adapted", counting)
        verdict = analyze(acad, acad_chart)
        assert verdict.flat is True and verdict.duality_ok is True
        assert calls == []

    def test_dimension_mismatch_is_an_internal_error(self, acad, acad_chart,
                                                     monkeypatch):
        # without rho-forms nothing is annihilated and D keeps both input
        # directions, one more than the certificate allows
        monkeypatch.setattr(ProjectabilityReport, "added_forms",
                            lambda self, chart: [])
        e0 = Distribution(acad.chart, [VectorField.unit(acad.chart, u)
                                       for u in acad.input_names])
        with pytest.raises(InternalInvariantError,
                           match="projectable dimension on"):
            largest_projectable_subdistribution(e0, acad_chart)

    def test_rank_zero_keeps_the_input_basis(self, acad, acad_chart):
        ch = acad.chart
        d = Distribution(ch, [field6(ch, ("x2", -3), ("x4", 1)),
                              field6(ch, ("u1", 2)), field6(ch, ("u2", 1))])
        sub, _, rep = largest_projectable_subdistribution(d, acad_chart)
        assert rep.rank == 0
        assert sub.basis == Distribution.span(ch, d.basis).basis


class TestScalingFamilies:
    """Flat by construction, with distribution dims [1..n+1] and
    codistribution dims [n..0]; every certificate has rank 0, so each
    D_{k-1} is E_{k-1} itself."""

    @pytest.mark.parametrize("system", [rat_n(n) for n in range(3, 7)]
                             + [nlchain_n(n) for n in range(3, 7)],
                             ids=lambda s: s.name)
    def test_flat_with_known_dims(self, system):
        n = system.n
        verdict = analyze(system)
        assert verdict.flat is True
        assert verdict.distribution.dims == list(range(1, n + 2))
        assert verdict.codistribution.dims == list(range(n, -1, -1))
        assert verdict.duality_ok is True
        for st in verdict.distribution.steps:
            assert st.D.basis == st.E_prev.basis

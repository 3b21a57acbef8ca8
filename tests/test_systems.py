"""System model, adapted charts, shift operators, transport."""

from fractions import Fraction
from functools import partial

import pytest

from corpus import mk, nonflat2, rat_n
from dtflat.decompose import decompose_step
from dtflat.errors import (
    EquilibriumMismatch,
    HintInvalid,
    InvalidVariables,
    InversionFailed,
    NotProjectable,
    NotShiftable,
    SubmersivityFailed,
    UnsupportedShift,
)
from dtflat.exprs import ONE, ZERO, Scalar, parse_scalar
from dtflat.flatness import analyze
from dtflat.geometry import (
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    interior_product,
    same_span,
)
from dtflat.systems import (
    AdaptedChartHint,
    DiscreteSystem,
    backward_shift_codistribution,
    build_adapted_chart,
    pullback_f,
    pullback_pi,
    pushforward_projectable,
    triangular_solve,
    _rank_at_point,
)
from test_transport import (
    distribution_from_adapted,
    distribution_to_adapted,
    reference_field_to_adapted,
)


def hinted(s: DiscreteSystem, **hint) -> DiscreteSystem:
    """s with an adapted-chart hint, carried on the system as the CLI
    carries it."""
    return DiscreteSystem(s.state_names, s.input_names, s.f, s.equilibrium,
                          name=s.name, hints=AdaptedChartHint(**hint))


class TestConstruction:
    def test_academic_is_submersive(self, acad):
        assert acad.differentials.dim == acad.n

    def test_autonomous_submersive(self):
        s = mk(["x1"], ["u1"], ["x1"], name="autonomous")
        assert s.differentials.dim == s.n

    def test_update_kernel_computed_once_when_asked(self, monkeypatch):
        import dtflat.systems as systems
        calls = []
        real = systems.annihilator

        def counting(span):
            calls.append(span)
            return real(span)

        monkeypatch.setattr(systems, "annihilator", counting)
        s = nonflat2()
        analyze(s, test="distribution")
        assert "update_kernel" not in vars(s)
        analyze(s, test="codistribution")
        assert [c for c in calls if c is s.differentials] == [s.differentials]
        assert s.update_kernel.dim == s.m
        assert all(interior_product(v, w).is_zero()
                   for v in s.update_kernel.basis
                   for w in s.differentials.basis)

    def test_rank_deficient_rejected(self):
        with pytest.raises(SubmersivityFailed):
            mk(["x1", "x2", "x3"], ["u1", "u2"], ["u1", "u2", "u1*u2"])

    def test_rank_deficient_ranked_once(self, rref_calls):
        with pytest.raises(SubmersivityFailed, match="rank .* is 1 < n = 2"):
            mk(["x1", "x2"], ["u1"], ["u1", "u1^2"])
        assert len(rref_calls) == 1

    def test_equilibrium_mismatch(self):
        with pytest.raises(EquilibriumMismatch):
            DiscreteSystem(["x1"], ["u1"], [parse_scalar("x1 + u1 + 1")],
                           {"x1": Fraction(0), "u1": Fraction(0)})

    def test_nonzero_equilibrium(self):
        s = DiscreteSystem(["x1"], ["u1"], [parse_scalar("x1*u1")],
                           {"x1": Fraction(2), "u1": Fraction(1)})
        assert s.equilibrium["x1"] == 2

    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            mk(["th1"], ["u1"], ["th1 + u1"])

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            mk(["x1"], ["u1"], ["x1 + w"])

    def test_equilibrium_missing_variable_rejected(self):
        with pytest.raises(InvalidVariables, match="'u1'"):
            DiscreteSystem(["x1"], ["u1"], [parse_scalar("x1 + u1")],
                           {"x1": Fraction(0)})

    def test_point_rank_drop_warns(self):
        # Jacobian rank drops to 0 at the origin but is 1 generically
        s = mk(["x1"], ["u1"], ["x1*u1 + x1*x1"])
        assert any("equilibrium" in w for w in s.warnings)

    def test_rank_at_singular_point_is_none(self):
        inv = ONE / Scalar.var("x1")
        assert _rank_at_point([[inv]], {"x1": Fraction(0)}) is None
        assert _rank_at_point([[inv]], {"x1": Fraction(1)}) == 1


class TestAdaptedChart:
    def test_academic_selection_and_inverse(self, acad, acad_chart):
        assert acad_chart.h_names == ("x1", "x3")
        th = {f"th{i}": Scalar.var(f"th{i}") for i in range(1, 5)}
        xi1, xi2 = Scalar.var("xi1"), Scalar.var("xi2")
        th1, th2, th3, th4 = (th[f"th{i}"] for i in range(1, 5))
        assert acad_chart.inverse["u2"] == th4 - xi1 * (xi2 + 1)
        assert acad_chart.inverse["u1"] == th3 - 2 * (th4 - xi1 * (xi2 + 1))
        assert acad_chart.inverse["x4"] == th2 + 3 * th4 - xi1 * (xi2 + 1) * th3

    def test_round_trip_exact(self, acad, acad_chart):
        for v in acad.chart.names:
            assert acad_chart.inverse[v].subs(acad_chart.forward) == Scalar.var(v)

    def test_two_state_example(self):
        s = nonflat2()
        chart = build_adapted_chart(s)
        assert chart.h_names == ("x1",)
        # th1 = u1, th2 = x1 + x2*u1, xi1 = x1
        assert chart.inverse["u1"] == Scalar.var("th1")
        assert chart.inverse["x2"] == \
            (Scalar.var("th2") - Scalar.var("xi1")) / Scalar.var("th1")

    def test_spec_example_with_hint(self):
        chart = build_adapted_chart(hinted(nonflat2(), h_vars=("x2",)))
        assert chart.inverse["x1"] == \
            Scalar.var("th2") - Scalar.var("xi1") * Scalar.var("th1")
        assert chart.inverse["u1"] == Scalar.var("th1")

    def test_hint_with_explicit_inverse(self):
        s = mk(["x1"], ["u1"], ["x1 + u1"])
        inverse = {"x1": parse_scalar("xi1"), "u1": parse_scalar("th1 - xi1")}
        chart = build_adapted_chart(hinted(s, h_vars=("x1",),
                                           inverse=inverse))
        assert chart.inverse["u1"] == parse_scalar("th1 - xi1")

    def test_invalid_inverse_hint(self):
        s = mk(["x1"], ["u1"], ["x1 + u1"])
        bad = {"x1": parse_scalar("xi1"), "u1": parse_scalar("th1 + xi1")}
        with pytest.raises(HintInvalid):
            build_adapted_chart(hinted(s, h_vars=("x1",), inverse=bad))

    def test_inversion_failure_reports(self):
        # cubic in whichever coordinate remains unknown: the greedy solver
        # must give up and ask for a hint
        s = mk(["x1"], ["u1"], ["x1^3 + u1^3"])
        with pytest.raises(InversionFailed) as err:
            build_adapted_chart(s)
        assert err.value.hint is not None

    def test_wrong_local_solution_fails_the_build(self, monkeypatch):
        import dtflat.systems as systems
        real = systems.solve_linear_in
        monkeypatch.setattr(systems, "solve_linear_in",
                            lambda lhs, rhs, name: real(lhs, rhs, name) + ONE)
        with pytest.raises(InversionFailed):
            build_adapted_chart(rat_n(3))

    def test_corrupted_inverse_component_fails_the_point_check(self,
                                                               monkeypatch):
        # every solve checks out; only the expansion is wrong
        import dtflat.systems as systems
        real = systems.triangular_solve

        def corrupted(equations, unknowns):
            out = dict(real(equations, unknowns))
            out["x3"] = out["x3"] + Scalar.var("th1") ** 2
            return out

        monkeypatch.setattr(systems, "triangular_solve", corrupted)
        with pytest.raises(InversionFailed, match="rational point"):
            build_adapted_chart(rat_n(3))

    def test_wrong_local_solution_fails_decompose_step(self, acad,
                                                       acad_verdict,
                                                       monkeypatch):
        # both inverses of the step (states, then inputs) solve through
        # triangular_solve, so a wrong solution raises before any cascade
        import dtflat.systems as systems
        real = systems.solve_linear_in
        p2 = acad_verdict.codistribution.sequence[1]
        monkeypatch.setattr(systems, "solve_linear_in",
                            lambda lhs, rhs, name: real(lhs, rhs, name) + ONE)
        with pytest.raises(InversionFailed, match="does not solve"):
            decompose_step(acad, p2)

    def test_chart_map_built_once(self, monkeypatch):
        # the point check reads the chart's own forward map, and the
        # forward Jacobian is the system's plus the xi unit rows
        import dtflat.systems as systems
        calls = []
        real = systems._forward_map

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(systems, "_forward_map", spy)
        chart = build_adapted_chart(rat_n(3))
        assert calls == [chart.h_names]
        assert chart._jac_forward == [
            [chart.forward[a].diff(b) for b in chart.sys.chart.names]
            for a in chart.chart.names]

    def test_hinted_chart_map_built_once(self, monkeypatch):
        # the hinted inverse's round trip reads the built chart's forward
        # map
        import dtflat.systems as systems
        calls = []
        real = systems._forward_map

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(systems, "_forward_map", spy)
        s = mk(["x1"], ["u1"], ["x1 + u1"])
        inverse = {"x1": parse_scalar("xi1"), "u1": parse_scalar("th1 - xi1")}
        chart = build_adapted_chart(hinted(s, h_vars=("x1",), inverse=inverse))
        assert calls == [("x1",)]
        assert chart.inverse == inverse

    @pytest.mark.parametrize("inverse, problem", [
        ({"x1": "xi1"}, "missing inverse expression for u1"),
        ({"x1": "xi1", "u1": "th1 - u1"}, r"inverse for u1 mentions \['u1'\]"),
        ({"x1": "xi1", "u1": "th1 + xi1"}, "round trip fails for u1"),
    ])
    def test_inverse_hint_names_its_fault(self, inverse, problem):
        s = mk(["x1"], ["u1"], ["x1 + u1"])
        inverse = {v: parse_scalar(e) for v, e in inverse.items()}
        with pytest.raises(HintInvalid, match="hinted inverse fails "
                           f"verification: {problem}$"):
            build_adapted_chart(hinted(s, h_vars=("x1",), inverse=inverse))

    def test_only_a_hinted_inverse_is_composed(self, monkeypatch):
        import dtflat.systems as systems
        calls = []
        real = systems._verify_inverse

        def spy(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(systems, "_verify_inverse", spy)
        s = mk(["x1"], ["u1"], ["x1 + u1"])
        build_adapted_chart(s)
        build_adapted_chart(rat_n(3))
        assert calls == []
        inverse = {"x1": parse_scalar("xi1"), "u1": parse_scalar("th1 - xi1")}
        build_adapted_chart(hinted(s, h_vars=("x1",), inverse=inverse))
        assert calls == [("x1",)]

    def test_rank_test_starts_from_span_df(self, rref_calls):
        # x1+ = u1, x2+ = x1: xi = x1 lies in span{df} = span{du1, dx1}, so
        # the first candidate is singular and xi = x2 is chosen.  The rank
        # tests load the reduced basis of span{df} and reduce the unit
        # rows of xi against it; no Jacobian is reduced again
        s = mk(["x1", "x2"], ["u1"], ["u1", "x1"])
        before = len(rref_calls)
        chart = build_adapted_chart(s)
        assert chart.h_names == ("x2",)
        assert len(rref_calls) == before

    def test_integrator_chart(self):
        s = mk(["x1"], ["u1"], ["u1"])
        chart = build_adapted_chart(s)
        assert chart.h_names == ("x1",)
        assert chart.inverse["u1"] == Scalar.var("th1")


class TestTransport:
    def test_field_round_trip(self, acad, acad_chart):
        v = VectorField(acad.chart, [Scalar.var("x2"), ONE, ZERO,
                                     Scalar.var("u1"), ZERO, ONE])
        span = Distribution(acad.chart, [v])
        back = distribution_from_adapted(
            acad_chart, distribution_to_adapted(acad_chart, span))
        assert type(back) is Distribution
        assert back.basis == Distribution.span(acad.chart, [v]).basis

    def test_form_round_trip(self, acad, acad_chart):
        w = OneForm(acad.chart, [ONE, Scalar.var("x1"), ZERO, ZERO,
                                 Scalar.var("u2"), ZERO])
        back = acad_chart.form_from_adapted(acad_chart.form_to_adapted(w))
        assert all((a - b).is_zero() for a, b in zip(back.coeffs, w.coeffs))

    def test_pairing_preserved(self, acad, acad_chart):
        from dtflat.geometry import interior_product
        v = VectorField(acad.chart, [Scalar.var("x2"), ONE, ZERO,
                                     Scalar.var("u1"), ZERO, ONE])
        w = OneForm(acad.chart, [ONE, Scalar.var("x1"), ZERO, ZERO,
                                 Scalar.var("u2"), ZERO])
        lhs = interior_product(v, w)
        rhs = interior_product(
            reference_field_to_adapted(acad_chart, v),
            acad_chart.form_to_adapted(w)).subs(acad_chart.forward)
        assert lhs == rhs

    def test_E0_to_adapted_matches_display(self, acad, acad_chart):
        E0 = Distribution(acad.chart, [VectorField.unit(acad.chart, "u1"),
                                       VectorField.unit(acad.chart, "u2")])
        got = distribution_to_adapted(acad_chart, E0)
        v1 = VectorField(acad.chart_adapted, [
            ONE, ZERO, parse_scalar("-(th3+1)/th1"),
            parse_scalar("-xi1*(xi2+1)*(th3+1)/(3*th1)"), ZERO, ZERO])
        v2 = VectorField(acad.chart_adapted,
                         [ZERO, ONE, ZERO, parse_scalar("-1/3"), ZERO, ZERO])
        assert same_span(got, Distribution(acad.chart_adapted, [v1, v2]))

    def test_P1_to_adapted_matches_display(self, acad, acad_chart):
        P1 = Codistribution(acad.chart, [OneForm.unit(acad.chart, x)
                                         for x in acad.state_names])
        got = acad_chart.to_adapted(P1)
        ch = acad.chart_adapted
        w1 = OneForm(ch, [parse_scalar("(th3+1)/th1"), ZERO, ONE,
                          ZERO, ZERO, ZERO])
        w2 = OneForm(ch, [parse_scalar("xi1*(xi2+1)*(th3+1)/(3*th1)"),
                          parse_scalar("1/3"), ZERO, ONE, ZERO, ZERO])
        w3 = OneForm.unit(ch, "xi1")
        w4 = OneForm.unit(ch, "xi2")
        assert same_span(got, Codistribution(ch, [w1, w2, w3, w4]))

    @pytest.mark.parametrize("span_cls", [Distribution, Codistribution])
    def test_empty_span_keeps_kind_and_target_chart(self, acad, acad_chart,
                                                   span_cls):
        if span_cls is Distribution:
            to_adapted = partial(distribution_to_adapted, acad_chart)
            from_adapted = partial(distribution_from_adapted, acad_chart)
        else:
            to_adapted, from_adapted = (acad_chart.to_adapted,
                                        acad_chart.from_adapted)
        into = to_adapted(span_cls(acad.chart, []))
        assert type(into) is span_cls and into.dim == 0
        assert into.chart == acad.chart_adapted
        back = from_adapted(span_cls(acad.chart_adapted, []))
        assert type(back) is span_cls and back.dim == 0
        assert back.chart == acad.chart

    def test_scalar_identity_chart(self):
        s = mk(["x1"], ["u1"], ["u1"])
        chart = build_adapted_chart(s)
        g = parse_scalar("x1 + 1")
        assert g.subs(chart.inverse).subs(chart.forward) == g


class TestPushPull:
    def test_projectable_pushforward(self, acad):
        ch = acad.chart_adapted
        v = VectorField(ch, [ZERO, Scalar(-3), ZERO, ONE, ZERO, ZERO])
        img = pushforward_projectable(v, acad)
        assert img == VectorField(acad.chart_plus,
                                  [ZERO, Scalar(-3), ZERO, ONE])

    def test_xi_direction_projects_to_zero(self, acad):
        v = VectorField.unit(acad.chart_adapted, "xi1")
        assert pushforward_projectable(v, acad).is_zero()

    def test_not_projectable(self, acad):
        v = VectorField(acad.chart_adapted, [
            ONE, ZERO, parse_scalar("-(th3+1)/th1"),
            parse_scalar("-xi1*(xi2+1)*(th3+1)/(3*th1)"), ZERO, ZERO])
        with pytest.raises(NotProjectable):
            pushforward_projectable(v, acad)

    def test_pullback_adds_inputs(self, acad):
        delta = Distribution(acad.chart_plus, [
            VectorField(acad.chart_plus, [ZERO, Scalar(-3), ZERO, ONE])])
        E1 = pullback_pi(delta, acad)
        expect = Distribution(acad.chart, [
            VectorField(acad.chart, [ZERO, Scalar(-3), ZERO, ONE, ZERO, ZERO]),
            VectorField.unit(acad.chart, "u1"),
            VectorField.unit(acad.chart, "u2")])
        assert same_span(E1, expect)

    def test_pullback_of_zero(self, acad):
        E = pullback_pi(Distribution(acad.chart_plus, []), acad)
        expect = Distribution(acad.chart, [VectorField.unit(acad.chart, u)
                                           for u in acad.input_names])
        assert same_span(E, expect)

    def test_pullback_of_full(self, acad):
        full = Distribution(acad.chart_plus,
                            [VectorField.unit(acad.chart_plus, n)
                             for n in acad.chart_plus.names])
        assert pullback_pi(full, acad).dim == 6

    def test_push_then_pull_preserves_coefficients(self, acad):
        ch = acad.chart_adapted
        v = VectorField(ch, [Scalar.var("th2"), ONE, ZERO, Scalar(2),
                             ZERO, ZERO])
        img = pushforward_projectable(v, acad)
        back = pullback_pi(Distribution(acad.chart_plus, [img]), acad)
        lifted = VectorField(acad.chart,
                             [Scalar.var("x2").rename({"x2": "x2"}), ONE,
                              ZERO, Scalar(2), ZERO, ZERO])
        assert back.contains(lifted)


class TestShifts:
    def check_shift(self, acad, g: Scalar, g_shifted: Scalar) -> None:
        # f^*(dx3 + g dx4) = df3 + g(f) df4, with df3 = du1 + 2 du2 and
        # df4 = (x3 + 1) dx1 + x1 dx3 + du2.  A span of one form fixes the
        # form up to a factor, and du1 keeps the factor 1, so the span
        # fixes the shifted coefficient g(f)
        ch = acad.chart
        x1, x3 = Scalar.var("x1"), Scalar.var("x3")
        w = OneForm(ch, [ZERO, ZERO, ONE, g, ZERO, ZERO])
        expect = OneForm(ch, [g_shifted * (x3 + 1), ZERO, g_shifted * x1,
                              ZERO, ONE, g_shifted + 2])
        got = pullback_f(Codistribution(ch, [w]), acad)
        assert same_span(got, Codistribution(ch, [expect]))

    def test_pullback_f_shifts_third_component(self, acad):
        self.check_shift(acad, Scalar.var("x3"), parse_scalar("u1 + 2*u2"))

    def test_pullback_f_constant_coefficient(self, acad):
        c = Scalar(Fraction(5, 2))
        self.check_shift(acad, c, c)

    def test_pullback_f_product_collapses(self, acad):
        g = Scalar.var("x1") * (Scalar.var("x3") + 1)
        self.check_shift(acad, g, parse_scalar("x2 + x3 + 3*x4"))

    def test_pullback_f_rejects_inputs(self, acad):
        ch = acad.chart
        # reduced, so the coefficient in u1 is not scaled away
        w = OneForm(ch, [ONE, Scalar.var("u1"), ZERO, ZERO, ZERO, ZERO])
        with pytest.raises(UnsupportedShift):
            pullback_f(Codistribution(ch, [w]), acad)

    @pytest.mark.parametrize("name", ["academic4", "rat4", "nonflat3"])
    def test_pullback_f_of_each_p_next_is_its_pplus(self, name):
        # f^* P_{k+1} = P_{k+1}^+ at every step of the codistribution test:
        # the backward shift undone by substitution alone, with no chart
        from corpus import academic4, nonflat3, rat_n
        system = {"academic4": academic4, "rat4": lambda: rat_n(4),
                  "nonflat3": nonflat3}[name]()
        for st in analyze(system, test="codistribution").codistribution.steps:
            assert same_span(pullback_f(st.P_next, system), st.Pplus_xu)

    def test_pullback_f_known_value(self, acad):
        # d(x1*x3 + x1) pulls back to d(x2 + x3 + 3*x4)
        ch = acad.chart
        x1, x3 = Scalar.var("x1"), Scalar.var("x3")
        w = OneForm(ch, [x3 + 1, ZERO, x1, ZERO, ZERO, ZERO])
        got = pullback_f(Codistribution(ch, [w]), acad)
        expect = OneForm(ch, [ZERO, ONE, ONE, Scalar(3), ZERO, ZERO])
        assert same_span(got, Codistribution(ch, [expect]))

    def test_shift_built_once_per_system(self, monkeypatch):
        import dtflat.exprs as exprs
        s = mk(["x1", "x2"], ["u1"], ["x1*x2", "u1"])
        builds = []
        real = exprs.Substitution.__init__

        def spy(self, bindings):
            builds.append(dict(bindings))
            real(self, bindings)

        monkeypatch.setattr(exprs.Substitution, "__init__", spy)
        p = Codistribution(s.chart, [OneForm(s.chart,
                                             [ONE, Scalar.var("x1"), ZERO])])
        assert same_span(pullback_f(p, s), pullback_f(p, s))
        assert builds == [dict(zip(s.state_names, s.f))]
        assert s.shift is s.shift

    def test_pullback_f_rejects_input_differentials(self, acad):
        ch = acad.chart
        with pytest.raises(ValueError, match="span"):
            pullback_f(Codistribution(ch, [OneForm.unit(ch, "u1")]), acad)

    def test_backward_shift_known_value(self, acad):
        ch = acad.chart_adapted
        pplus = Codistribution(ch, [
            OneForm.unit(ch, "th1"), OneForm.unit(ch, "th3"),
            OneForm(ch, [ZERO, ONE, ZERO, Scalar(3), ZERO, ZERO])])
        P2 = backward_shift_codistribution(pplus, acad)
        expect = Codistribution(acad.chart, [
            OneForm.unit(acad.chart, "x1"), OneForm.unit(acad.chart, "x3"),
            OneForm(acad.chart, [ZERO, ONE, ZERO, Scalar(3), ZERO, ZERO])])
        assert same_span(P2, expect)

    def test_backward_shift_of_zero(self, acad):
        P = backward_shift_codistribution(
            Codistribution(acad.chart_adapted, []), acad)
        assert P.dim == 0

    def test_backward_shift_xi_dependence_rejected(self, acad):
        ch = acad.chart_adapted
        w = OneForm(ch, [ONE, Scalar.var("xi1"), ZERO, ZERO, ZERO, ZERO])
        with pytest.raises(NotShiftable):
            backward_shift_codistribution(Codistribution(ch, [w]), acad)

    def test_backward_shift_dxi_rejected(self, acad):
        ch = acad.chart_adapted
        w = OneForm(ch, [ONE, ZERO, ZERO, ZERO, ONE, ZERO])
        with pytest.raises(NotShiftable):
            backward_shift_codistribution(Codistribution(ch, [w]), acad)

    def test_backward_shift_in_analysis_ranks_nothing(self, acad, acad_chart,
                                                      monkeypatch,
                                                      row_operations):
        # the step hands over Pplus with its reduced basis, so the shift
        # only renames: its echelon form makes no row operation
        import dtflat.flatness as flatness
        shifts, ranked = [], []
        real_shift = flatness.backward_shift_codistribution

        def shift(pplus, sys):
            before = len(row_operations)
            shifts.append(1)
            try:
                return real_shift(pplus, sys)
            finally:
                ranked.extend(row_operations[before:])

        monkeypatch.setattr(flatness, "backward_shift_codistribution", shift)
        assert analyze(acad, acad_chart).flat is True
        assert len(shifts) == 4
        assert row_operations and ranked == []

    def test_backward_shift_reduces_a_basis_given_unreduced(self, acad):
        # dth1 + xi1*dth2 depends on xi, but the span has the xi-free
        # reduced basis dth1, dth2
        ch = acad.chart_adapted
        pplus = Codistribution(ch, [
            OneForm(ch, [ONE, Scalar.var("xi1"), ZERO, ZERO, ZERO, ZERO]),
            OneForm.unit(ch, "th2")])
        P = backward_shift_codistribution(pplus, acad)
        assert P.basis == (OneForm.unit(acad.chart, "x1"),
                           OneForm.unit(acad.chart, "x2"))

    def test_shift_round_trip(self, acad, acad_chart):
        # forward-substituting a backward-shifted basis lands inside the
        # original codistribution expressed on (x, u)
        ch = acad.chart_adapted
        pplus = Codistribution(ch, [
            OneForm.unit(ch, "th1"), OneForm.unit(ch, "th3"),
            OneForm(ch, [ZERO, ONE, ZERO, Scalar(3), ZERO, ZERO])])
        P2 = backward_shift_codistribution(pplus, acad)
        pplus_xu = acad_chart.from_adapted(pplus)
        shift = dict(zip(acad.state_names, acad.f))
        for w in P2.basis:
            # map dx_i -> df_i with coefficients shifted forward
            coeffs = [ZERO] * acad.chart.dim
            for i, x in enumerate(acad.state_names):
                ci = w.coeffs[i].subs(shift)
                if ci.is_zero():
                    continue
                for b in range(acad.chart.dim):
                    coeffs[b] = coeffs[b] + ci * acad.jacobian[i][b]
            assert pplus_xu.contains(OneForm(acad.chart, coeffs))


class TestTriangularSolve:
    def test_chain_of_solves(self):
        a, b = Scalar.var("a"), Scalar.var("b")
        t1, t2 = Scalar.var("t1"), Scalar.var("t2")
        sol = triangular_solve([(a + b, t1), (b, t2)], ["a", "b"])
        assert sol["b"] == t2
        assert sol["a"] == t1 - t2

    def test_stuck_system_returns_none(self):
        a, b = Scalar.var("a"), Scalar.var("b")
        t1, t2 = Scalar.var("t1"), Scalar.var("t2")
        assert triangular_solve([(a * b, t1), (a + b, t2)], ["a", "b"]) is None

    def test_target_mentioning_an_unknown_is_rejected(self):
        a, b = Scalar.var("a"), Scalar.var("b")
        with pytest.raises(ValueError, match="mentions an unknown"):
            triangular_solve([(a, b), (b, Scalar.var("t"))], ["a", "b"])

    def test_solutions_come_in_solve_order(self):
        # the second equation is solved for b with a kept as a symbol, and
        # b = t2/t1^2 is the chain a = t1, b = t2/a^2 composed
        a, b = Scalar.var("a"), Scalar.var("b")
        t1, t2 = Scalar.var("t1"), Scalar.var("t2")
        sol = triangular_solve([(a, t1), (a * a * b, t2)], ["a", "b"])
        assert list(sol) == ["a", "b"]
        assert sol["b"] == t2 / (t1 * t1)

    def test_pick_after_an_unknown_cancels(self):
        # c drops out of the second equation once a = t1 is composed into
        # it, so it solves b before the third equation solves c, as it does
        # when every equation is composed before it is read
        a, b, c = Scalar.var("a"), Scalar.var("b"), Scalar.var("c")
        t1, t2, t3 = Scalar.var("t1"), Scalar.var("t2"), Scalar.var("t3")
        sol = triangular_solve(
            [(a, t1), (c * (a - t1) + b, t2), (c, t3)], ["a", "b", "c"])
        assert list(sol) == ["a", "b", "c"]
        assert sol == {"a": t1, "b": t2, "c": t3}

    @pytest.mark.parametrize("expr", [
        "(a - t1)*b - t2",       # c1 = a - t1 is the solution's denominator
        "(a - t1)*(b - t2)",     # c1 = a - t1 is a common factor with c0
    ])
    def test_coefficient_vanishing_once_composed_does_not_pick(self, expr):
        # with a = t1 the second equation no longer determines b, so the
        # third one solves it
        a, b = Scalar.var("a"), Scalar.var("b")
        t1, t3 = Scalar.var("t1"), Scalar.var("t3")
        eq = parse_scalar(expr)
        sol = triangular_solve([(a, t1), (eq, ZERO), (b, t3)], ["a", "b"])
        assert sol == {"a": t1, "b": t3}


class TestSubmersivityInvariance:
    def test_invariant_under_input_mix(self, acad):
        # compose with u -> (u1 + u2, u2): still submersive
        mix = {"u1": parse_scalar("u1 + u2"), "u2": parse_scalar("u2")}
        f2 = [g.subs(mix) for g in acad.f]
        s2 = DiscreteSystem(acad.state_names, acad.input_names, f2,
                            acad.equilibrium, name="mixed")
        assert s2.differentials.dim == s2.n

    def test_span_df_dimension(self, acad):
        # span{df} is the row space of the Jacobian, as 1-forms
        assert acad.differentials.dim == acad.n
        for row in acad.jacobian:
            assert acad.differentials.contains(OneForm(acad.chart, row))

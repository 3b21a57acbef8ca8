"""First integrals, one decomposition step, and the full cascade."""

from pathlib import Path

import pytest

from corpus import (
    academic4,
    chain2,
    integrator1,
    mimo3,
    mk,
    nonflat2,
    random_flat_corpus,
)
from dtflat.cli import parse_system
from dtflat.decompose import (
    CascadeResult,
    FirstIntegralSet,
    TriangularDecomposition,
    _carry,
    _check_straightened,
    decompose_cascade,
    decompose_step,
    find_first_integrals,
)
from dtflat.errors import (
    HintInvalid,
    IntegralsNotFound,
    InternalInvariantError,
    NormalizationFailed,
)
from dtflat.exprs import ZERO, Scalar, parse_scalar
from dtflat.flatness import (
    analyze,
    largest_projectable_subdistribution,
    run_codistribution_test,
    run_distribution_test,
)
from dtflat.geometry import (
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    _clear_denominators,
    d_scalar,
    generic_rank,
    is_closed,
    is_integrable,
    same_span,
)
from dtflat.systems import DiscreteSystem, build_adapted_chart

DATA = Path(__file__).parent / "data"


def step_of(system, **kwargs):
    """One decomposition step, given P_2 from the system's analysis."""
    return decompose_step(
        system, analyze(system).codistribution.steps[0].P_next, **kwargs)


def cascade_of(system):
    return decompose_cascade(system, analyze(system))


def form(chart, *pairs):
    coeffs = [ZERO] * chart.dim
    for name, c in pairs:
        coeffs[chart.index(name)] = Scalar.of(c)
    return OneForm(chart, coeffs)


class TestFirstIntegrals:
    def test_constant_combination(self, acad):
        ch = acad.chart
        p2 = Codistribution(ch, [form(ch, ("x1", 1)), form(ch, ("x3", 1)),
                                 form(ch, ("x2", 1), ("x4", 3))])
        got = find_first_integrals(p2, acad)
        assert {str(g) for g in got.functions} == {"x1", "x3", "x2 + 3*x4"}
        diffs = [d_scalar(ch, g) for g in got.functions]
        assert same_span(Codistribution.span(ch, diffs), p2)

    def test_single_coordinate(self, acad):
        ch = acad.chart
        got = find_first_integrals(
            Codistribution(ch, [form(ch, ("x1", 1))]), acad)
        assert got.method == "coordinate-pick"
        assert [str(g) for g in got.functions] == ["x1"]

    def test_integrating_factor_route(self, acad):
        ch = acad.chart
        p3 = Codistribution(ch, [form(ch, ("x1", parse_scalar("(x3+1)/x1")),
                                      ("x3", 1))])
        got = find_first_integrals(p3, acad)
        assert got.method == "integrating-factor"
        assert len(got.functions) == 1
        g = got.functions[0]
        # the differential spans the target, and the integral is the
        # expected product up to scaling
        assert same_span(Codistribution(ch, [d_scalar(ch, g)]), p3)
        x1x3 = parse_scalar("x1*x3 + x1")
        ratio = g / x1x3
        assert ratio.is_const()

    def test_monomial_integrating_factor(self):
        # neither the form nor its cleared form is closed, so only the
        # monomial integrating-factor loop can integrate it: 1/x2 does
        s = mk(["x1", "x2"], ["u1"], ["x2", "u1"], name="chain")
        ch = s.chart
        w = form(ch, ("x1", 1), ("x2", parse_scalar("-x1/x2")))
        assert not is_closed(w)
        assert not is_closed(OneForm(ch, _clear_denominators(w.coeffs)))
        got = find_first_integrals(Codistribution(ch, [w]), s)
        assert got.method == "integrating-factor"
        assert got.functions == [parse_scalar("x1/x2")]

    def test_nonintegrable_rejected(self):
        # the Frobenius test runs once the search leaves a form over, and
        # before hints: with or without them, the same error
        s = mk(["x", "y", "z"], ["u1"], ["y", "z", "u1"], name="contact")
        ch = s.chart
        p = Codistribution(ch, [form(ch, ("x", Scalar.var("y") * -1),
                                     ("z", 1))])
        raised = []
        for hints in (None, [parse_scalar("x")], [parse_scalar("z - x*y")]):
            with pytest.raises(IntegralsNotFound) as err:
                find_first_integrals(p, s, hints=hints)
            raised.append((type(err.value), str(err.value), err.value.hint))
        assert raised == [(IntegralsNotFound,
                           "codistribution fails the Frobenius condition; "
                           "no first integrals exist", None)] * 3

    def test_frobenius_runs_only_on_a_residual(self, acad, monkeypatch):
        import dtflat.decompose as decompose
        calls = []

        def spy(p):
            calls.append(p)
            return is_integrable(p)

        monkeypatch.setattr(decompose, "is_integrable", spy)
        p2 = analyze(acad).codistribution.steps[0].P_next
        find_first_integrals(p2, acad)
        decompose_step(acad, p2)
        assert calls == []
        s = mk(["x1", "x2"], ["u1"], ["x2", "u1"], name="chain")
        w = form(s.chart, ("x1", parse_scalar("1/x1")), ("x2", 1))
        with pytest.raises(IntegralsNotFound):
            find_first_integrals(Codistribution(s.chart, [w]), s)
        assert len(calls) == 1

    def test_input_component_rejected(self, acad):
        ch = acad.chart
        with pytest.raises(ValueError):
            find_first_integrals(
                Codistribution(ch, [form(ch, ("u1", 1))]), acad)

    def test_hints_unused_when_heuristic_succeeds(self):
        s = mk(["x1", "x2"], ["u1"], ["x2", "u1"], name="chain")
        ch = s.chart
        p = Codistribution(ch, [form(ch, ("x1", 1))])
        got = find_first_integrals(p, s, hints=[parse_scalar("x1")])
        assert got.method == "coordinate-pick"

    def test_clearing_denominators_integrates(self):
        # coefficients with different denominators, but clearing them
        # exposes an exact form
        s = mk(["x1", "x2"], ["u1"], ["x2", "u1"], name="chain")
        ch = s.chart
        w = form(ch, ("x1", parse_scalar("1/(x1 + x2)")),
                 ("x2", parse_scalar("1/(x1 + x2 + 1)")))
        got = find_first_integrals(Codistribution(ch, [w]), s)
        assert got.method == "integrating-factor"
        g = got.functions[0]
        assert same_span(Codistribution(ch, [d_scalar(ch, g)]),
                         Codistribution(ch, [w]))

    def test_bad_hint_rejected(self):
        s = mk(["x1", "x2"], ["u1"], ["x2", "u1"], name="chain")
        ch = s.chart
        # closed form whose potential is logarithmic: no rational integral
        w = form(ch, ("x1", parse_scalar("1/x1")), ("x2", 1))
        p = Codistribution(ch, [w])
        with pytest.raises(HintInvalid):
            find_first_integrals(p, s, hints=[parse_scalar("x1*x2")])

    def rescue_p2(self):
        """(system, P_2): x2*(x1 + 1)^2 is a first integral of P_2, but the
        search finds none, as its integrating factor x2*(x1 + 1) is no
        monomial."""
        s = mk(["x1", "x2"], ["u1"], ["u1", "x1/(u1 + 1)^2"], name="rescue")
        return s, analyze(s).codistribution.sequence[1]

    def test_hints_rescue_a_residual_form(self):
        s, p2 = self.rescue_p2()
        with pytest.raises(IntegralsNotFound, match="heuristic search"):
            find_first_integrals(p2, s)
        got = find_first_integrals(p2, s, hints=[parse_scalar("x2*(x1 + 1)^2")])
        assert got.method == "user-hint"
        assert got.functions == [parse_scalar("x2*(x1 + 1)^2")]
        cascade = decompose_cascade(s, analyze(s), integral_hints=got.functions)
        assert cascade.blocked is None and cascade.depth == 2
        assert cascade.steps[0].integrals.method == "user-hint"

    @pytest.mark.parametrize("hints, problem", [
        (["u1"], "integrals must be functions of the states: u1"),
        (["x2*(x1 + 1)^2", "x1"],
         "2 integrals for a 1-dimensional codistribution"),
        (["1"], "integrals are functionally dependent"),
    ], ids=["off-the-states", "count", "dependent"])
    def test_rejected_hints(self, hints, problem):
        s, p2 = self.rescue_p2()
        with pytest.raises(HintInvalid) as err:
            find_first_integrals(p2, s, hints=[parse_scalar(h) for h in hints])
        assert str(err.value) == f"integral hints rejected: {problem}"

    def test_zero_codistribution_has_no_integrals(self, acad):
        got = find_first_integrals(Codistribution(acad.chart, []), acad)
        assert (got.functions, got.method) == ([], "coordinate-pick")

    def test_log_type_failure_is_reported(self):
        s = mk(["x1", "x2"], ["u1"], ["x2", "u1"], name="chain")
        ch = s.chart
        w = form(ch, ("x1", parse_scalar("1/x1")), ("x2", 1))
        with pytest.raises(IntegralsNotFound) as err:
            find_first_integrals(Codistribution(ch, [w]), s)
        assert err.value.hint is not None


class TestDecomposeStep:
    def test_academic_step(self, acad):
        step = step_of(acad)
        assert step.dims == (3, 1, 1, 1)
        assert {str(g) for g in step.integrals.functions} == \
            {"x1", "x3", "x2 + 3*x4"}
        # normalized equation reads state+ = input, exactly
        nm, g = step.subsystem_f2[step.normalized_indices[0]]
        assert g == Scalar.var("ub1")
        # feedback input rank equals the feedback dimension
        u1_names = [nm for nm, _ in step.input_transform][step.dims[2]:]
        fb = [g for _, g in step.feedback_f1]
        jac = [[g.diff(u) for u in u1_names] for g in fb]
        assert generic_rank(jac) == step.dims[1] == 1

    def test_subsystem_free_of_unnormalized_inputs(self, acad):
        step = step_of(acad)
        u1_names = [nm for nm, _ in step.input_transform][step.dims[2]:]
        for _, g in step.subsystem_f2:
            for u in u1_names:
                assert not g.depends_on(u)

    def test_transformations_invertible(self, acad):
        step = step_of(acad)
        # state round trip
        for nm, g in step.state_transform:
            assert g.subs(step.state_inverse) == Scalar.var(nm)
        # input round trip: express ubar in (xbar, u), then substitute the
        # u-inverse and check identity
        for nm, g in step.input_transform:
            expr = g.subs(step.state_inverse).subs(step.input_inverse)
            assert expr == Scalar.var(nm)

    def test_subsystem_tail_dims(self, acad):
        step = step_of(acad)
        sub = step.subsystem
        pres = run_codistribution_test(sub)
        assert pres.dims == [3, 1, 0]
        assert pres.flat is True
        dres = run_distribution_test(sub)
        assert dres.flat is True
        assert dres.kbar == pres.kbar == 3

    def test_one_step_system_is_terminal(self):
        step = step_of(integrator1())
        assert step.terminal
        assert step.dims == (0, 1, 0, 1)
        assert step.subsystem is None
        assert [str(g) for _, g in step.feedback_f1] == ["ub1 + xb1"]

    def test_chain_step(self):
        step = step_of(chain2())
        assert step.dims == (1, 1, 0, 1)
        assert [str(g) for g in step.integrals.functions] == ["x1"]
        # subsystem is driven by the feedback state alone
        assert step.subsystem.input_names == ("xb2",)

    def test_nonflat_rejected(self):
        with pytest.raises(NormalizationFailed):
            step_of(nonflat2())

    def test_input_rank_deficiency_rejected(self):
        # two inputs enter only through their sum: rank d_u f = 1 < m
        s = mk(["x1", "x2"], ["u1", "u2"],
               ["x2 + u1 + u2", "u1 + u2"], name="rankdef")
        with pytest.raises(NormalizationFailed):
            step_of(s)

    def test_p2_checked_and_reduced_once(self, acad, monkeypatch):
        # codistribution_step has passed P_2 through the Frobenius test and
        # built its basis reduced, so the first-integral search repeats
        # neither the test nor the reduction: it reads P_2's basis, and
        # decompose_step runs no rref of its own
        import dtflat.decompose as decompose
        import dtflat.flatness as flatness
        import dtflat.geometry as geometry
        frobenius, reductions = [], []

        def counting(real, calls):
            def wrapped(arg):
                calls.append(1)
                return real(arg)
            return wrapped

        frobenius_test = counting(geometry.is_integrable, frobenius)
        for module in (geometry, flatness, decompose):
            monkeypatch.setattr(module, "is_integrable", frobenius_test)
        monkeypatch.setattr(decompose, "rref",
                            counting(geometry.rref, reductions))
        P1 = Codistribution(acad.chart, [OneForm.unit(acad.chart, x)
                                         for x in acad.state_names])
        p2 = flatness.codistribution_step(
            acad, build_adapted_chart(acad), 1, P1).P_next
        decompose_step(acad, p2)
        assert len(frobenius) == 1
        assert reductions == []


def _corrupt_input_inverse(monkeypatch, system, sub):
    """triangular_solve with sub applied to every solution when it solves
    for system's inputs (the input inverse of decompose_step)."""
    import dtflat.decompose as decompose
    real = decompose.triangular_solve

    def solve(equations, unknowns):
        out = real(equations, unknowns)
        if unknowns == list(system.input_names):
            out = {u: g.subs(sub) for u, g in out.items()}
        return out
    monkeypatch.setattr(decompose, "triangular_solve", solve)


class TestStepChecksFire:
    """Each check decompose_step makes of its transformed dynamics fires on
    a fault in the transformation.  At level 1 of academic4 ub1 is
    normalized and ub2 is the feedback input."""

    def test_normalized_row_checked(self, acad, acad_verdict, monkeypatch):
        _corrupt_input_inverse(monkeypatch, acad,
                               {"ub1": Scalar.var("ub1") * 2})
        with pytest.raises(InternalInvariantError, match="normalized equation "
                           "0 does not read state\\+ = input"):
            decompose_step(acad, acad_verdict.codistribution.sequence[1])

    def test_feedback_rank_checked(self, acad, acad_verdict, monkeypatch):
        _corrupt_input_inverse(monkeypatch, acad, {"ub2": ZERO})
        with pytest.raises(InternalInvariantError, match="feedback input rank "
                           "does not match the feedback dimension"):
            decompose_step(acad, acad_verdict.codistribution.sequence[1])

    def test_subsystem_inputs_checked(self, acad, acad_verdict, monkeypatch):
        # the pick of the rows to normalize comes back empty, so every
        # input is a completing one and the subsystem row that reads ub1
        # is left to an unnormalized input
        import dtflat.decompose as decompose
        real, skipped = decompose._raise_rank, []

        def no_rows_picked(ech, candidates, target):
            if not ech.rows and not skipped:
                skipped.append(candidates)
                return []
            return real(ech, candidates, target)

        monkeypatch.setattr(decompose, "_raise_rank", no_rows_picked)
        with pytest.raises(InternalInvariantError, match="subsystem row 0 "
                           "depends on unnormalized input ub1"):
            decompose_step(acad, acad_verdict.codistribution.sequence[1])
        assert len(skipped) == 1


def assert_straightened_by_reference(step):
    """The chart route: on an adapted chart of the transformed system, the
    distribution test's largest projectable subdistribution of the input
    directions is exactly span{d/du1}."""
    t = step.transformed
    u1_names = [nm for nm, _ in step.input_transform][step.dims[2]:]
    E0 = Distribution(t.chart, [VectorField.unit(t.chart, u)
                                for u in t.input_names])
    d0 = largest_projectable_subdistribution(E0, build_adapted_chart(t))[0]
    target = Distribution(t.chart, [VectorField.unit(t.chart, u)
                                    for u in u1_names])
    assert d0.dim == target.dim and same_span(d0, target), t.name


class TestProp9:
    def test_forward_direction_on_corpus(self):
        # every step the decomposition accepted (its check works by
        # duality on (x, u), with no chart) agrees with the chart route
        mixed2 = parse_system(DATA / "mixed2.sys")[0]
        systems = [academic4(), mixed2, mimo3(), chain2(), integrator1(),
                   *random_flat_corpus()]
        steps = [st for system in systems
                 for st in cascade_of(system).steps]
        assert len(steps) >= len(systems)
        for step in steps:
            assert_straightened_by_reference(step)

    def test_reverse_direction_via_reparameterization(self, acad):
        # compose the normalized input transformation with an invertible
        # reparameterization of the normalized block; re-normalizing the
        # chosen equations must again straighten the input directions
        step = step_of(acad)
        t = step.transformed
        # new input vb1 = 2*ub1 + xb1^2 (invertible in ub1), vb2 = ub2
        ren = {"ub1": (Scalar.var("vb1") - Scalar.var("xb1") ** 2) / 2,
               "ub2": Scalar.var("vb2")}
        f_re = [g.subs(ren) for g in t.f]
        s_re = DiscreteSystem(list(t.state_names), ["vb1", "vb2"], f_re,
                              None, name="reparam")
        step2 = step_of(s_re, state_prefix="yb", input_prefix="wb")
        assert_straightened_by_reference(step2)
        nm, g = step2.subsystem_f2[step2.normalized_indices[0]]
        assert g == Scalar.var("wb1")

    @pytest.mark.parametrize("u1", ["all", "none"])
    def test_wrong_split_is_an_internal_error(self, acad, u1):
        # at level 1 of academic4 D_0 is span{d/dub2}: neither all input
        # directions nor none of them
        t = step_of(acad).transformed
        u1_names = list(t.input_names) if u1 == "all" else []
        with pytest.raises(InternalInvariantError, match="straighten"):
            _check_straightened(t, u1_names)


class TestCascade:
    def test_academic_depth(self, acad):
        cascade = cascade_of(acad)
        assert cascade.blocked is None
        assert cascade.depth == 3
        assert cascade.steps[0].dims == (3, 1, 1, 1)
        assert cascade.steps[1].dims[0] == 1
        assert cascade.steps[2].terminal

    def test_academic_mirrors_P_dims(self, acad, acad_verdict):
        cascade = cascade_of(acad)
        # depth equals the stall index minus one
        assert cascade.depth == acad_verdict.kbar - 1
        # subsystem state dimensions mirror the codistribution dimensions
        sub_dims = [st.dims[0] for st in cascade.steps]
        assert sub_dims == acad_verdict.codistribution.dims[1:]

    def test_integrator_single_trivial_step(self):
        cascade = cascade_of(integrator1())
        assert cascade.depth == 1
        assert cascade.steps[0].terminal

    def test_chain_depth(self):
        cascade = cascade_of(chain2())
        assert cascade.depth == 2
        assert cascade.steps[0].dims == (1, 1, 0, 1)
        assert cascade.steps[1].terminal

    def test_second_step_integral_value(self, acad):
        cascade = cascade_of(acad)
        integrals = cascade.steps[1].integrals
        assert integrals.method == "integrating-factor"
        g = integrals.functions[0]
        # xb1*(xb3 + 1) in the step-one names
        expected = parse_scalar("xb1*xb3 + xb1")
        assert (g / expected).is_const()

    def test_each_subsystem_flat(self, acad):
        cascade = cascade_of(acad)
        for st in cascade.steps[:-1]:
            v = run_distribution_test(st.subsystem)
            assert v.flat is True

    def test_reuses_p2_of_the_analysis(self, acad, acad_verdict, monkeypatch):
        # level 1 takes P_2 from the analysis and every level below takes
        # the next member of its parent's sequence, so no level runs a step
        # of either test
        import dtflat.decompose as decompose
        import dtflat.flatness as flatness
        calls = {"distribution_step": 0, "codistribution_step": 0}

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        for name in calls:
            for module in (flatness, decompose):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counting(name, getattr(module, name)))
        cascade = decompose_cascade(acad, acad_verdict)
        assert cascade.blocked is None and cascade.depth == 3
        assert calls == {"distribution_step": 0, "codistribution_step": 0}

    def test_disagreeing_closure_stops_a_sub_level(self, acad, acad_verdict,
                                                    monkeypatch):
        # every level below the first checks the P_2 it was handed against
        # the closure P_2^+ of its subsystem, so a closure that disagrees
        # stops the cascade there.  The first closure taken is level 1's
        # straightening check and is left alone; the second is level 2's
        # check, and the wrong closure drops every form
        import dtflat.decompose as decompose
        real = decompose.invariant_closure
        charts = []

        def closure(p0, d):
            charts.append(p0.chart)
            return real(p0, d) if len(charts) == 1 else \
                Codistribution(p0.chart, [])

        monkeypatch.setattr(decompose, "invariant_closure", closure)
        with pytest.raises(InternalInvariantError, match="carried to level 2 "
                           "fails"):
            decompose_cascade(acad, acad_verdict)
        assert len(charts) == 2

    def test_carried_p2_is_the_subsystems(self):
        # the P_2 each level below the first receives is the P_2 that the
        # analysis of its subsystem finds: the integrals of the next step
        # span it
        mixed2 = parse_system(DATA / "mixed2.sys")[0]
        for system in [academic4(), mixed2, mimo3(), chain2(),
                       *random_flat_corpus()]:
            steps = cascade_of(system).steps
            for step, nxt in zip(steps, steps[1:]):
                sub = step.subsystem
                p2 = analyze(sub).codistribution.sequence[1]
                diffs = [d_scalar(sub.chart, g)
                         for g in nxt.integrals.functions]
                assert same_span(Codistribution.span(sub.chart, diffs), p2)

    @pytest.mark.parametrize("path, most", [
        (DATA / "academic4.sys", 13),
        (DATA / "mixed2.sys", 6),
        (DATA / "golden" / "rat4.sys", 18),
        (DATA / "golden" / "nlchain5.sys", 24),
    ], ids=["academic4", "mixed2", "rat4", "nlchain5"])
    def test_each_map_gets_one_substitution(self, monkeypatch, path, most):
        # per step: one for the state inverse and one for the input
        # inverse, besides the two triangular solves' and _carry's; the
        # forward shift is one per system, shared with pullback_f.  A step
        # that builds one per expression goes far over (35/11/42/62)
        import dtflat.exprs as exprs
        system = parse_system(path)[0]
        verdict = analyze(system)
        real, builds = exprs.Substitution.__init__, []

        def spy(self, bindings):
            builds.append(1)
            real(self, bindings)

        monkeypatch.setattr(exprs.Substitution, "__init__", spy)
        cascade = decompose_cascade(system, verdict)
        assert cascade.blocked is None
        assert len(builds) <= most

    @pytest.mark.parametrize("path", [
        DATA / "academic4.sys",
        DATA / "mixed2.sys",
        DATA / "golden" / "rat4.sys",
        DATA / "golden" / "nlchain5.sys",
    ], ids=["academic4", "mixed2", "rat4", "nlchain5"])
    def test_completion_from_p2_is_the_integrals_lowest(self, monkeypatch,
                                                         path):
        # a rank completion depends only on the span, and the integrals'
        # differentials span P_2: the completion seeded with P_2's echelon
        # form is the lowest-index completion of the differentials, found
        # here by ranks alone, at every level of the cascade
        import dtflat.decompose as decompose
        real, levels = decompose._complete_states, []

        def spy(p2, sys, integrals, names):
            levels.append((p2, sys, integrals))
            return real(p2, sys, integrals, names)

        monkeypatch.setattr(decompose, "_complete_states", spy)
        system = parse_system(path)[0]
        cascade = decompose_cascade(system, analyze(system))
        assert cascade.blocked is None
        assert len(levels) == cascade.depth - 1
        for (p2, sys, integrals), step in zip(levels, cascade.steps):
            rows = [d_scalar(sys.chart, g).coeffs[:sys.n]
                    for g in integrals.functions]
            lowest = []
            for i in range(sys.n):
                unit = [Scalar(int(j == i)) for j in range(sys.n)]
                if generic_rank(rows + [unit]) > generic_rank(rows):
                    rows.append(unit)
                    lowest.append(i)
            assert next(decompose._state_completions(p2, sys)) == \
                tuple(lowest)
            assert [g for _, g in step.state_transform[p2.dim:]] == \
                [Scalar.var(sys.state_names[i]) for i in lowest]

    def test_every_completion_is_tried_before_blocking(self, acad,
                                                       acad_verdict,
                                                       monkeypatch):
        # P_2 = span{dx1, dx2 + 3 dx4, dx3} is completed by x2 or by x4,
        # and by neither x1 nor x3; when no map inverts, both are tried,
        # lowest first, and the cascade blocks at level 1
        import dtflat.decompose as decompose
        tried = []

        def no_inverse(equations, unknowns):
            tried.append([str(g) for g, _ in equations[3:]])

        monkeypatch.setattr(decompose, "triangular_solve", no_inverse)
        cascade = decompose_cascade(acad, acad_verdict)
        assert cascade.depth == 0
        assert cascade.blocked == ("could not invert the state "
                                   "transformation by triangular linear "
                                   "solves")
        assert tried == [["x2"], ["x4"]]

    @pytest.mark.parametrize("n", [23, 24])
    def test_no_depth_limit(self, n):
        # a chain of n states decomposes in n levels: 22 one-letter tags
        # b..z, then bb, bc
        states = [f"x{i}" for i in range(1, n + 1)]
        system = mk(states, ["u1"], states[1:] + ["u1"], name=f"chain{n}")
        cascade = cascade_of(system)
        assert cascade.blocked is None and cascade.depth == n
        assert cascade.steps[-1].terminal
        assert [st.state_transform[0][0] for st in cascade.steps[20:24]] == \
            ["xy1", "xz1", "xbb1", "xbc1"][:n - 20]

    def test_coordinates_singular_at_the_equilibrium(self):
        # the integral x1/x2 of P_2 is singular at the equilibrium 0, so
        # the derived systems carry none and each says so
        system = mk(["x1", "x2"], ["u1"], ["x2*u1", "u1"], name="singular")
        cascade = cascade_of(system)
        assert cascade.blocked is None and cascade.depth == 2
        assert cascade.steps[0].integrals.functions == [parse_scalar("x1/x2")]
        assert cascade.steps[0].transformed.equilibrium is None
        assert cascade.steps[0].subsystem.equilibrium is None
        assert cascade.steps[0].warnings == [
            "transformed coordinates are singular at the original "
            "equilibrium; the derived system carries no equilibrium and is "
            "analyzed generically"] * 2

    def test_not_flat_verdict_rejected(self):
        system = nonflat2()
        with pytest.raises(ValueError, match="forward-flat"):
            decompose_cascade(system, analyze(system))


class TestCarryFaults:
    def test_wrong_subspace_caught_by_the_pullback_check(self, acad,
                                                         acad_verdict,
                                                         monkeypatch):
        # the move hands level 2 another coordinate subspace of the same
        # dimension; it is integrable and inside span{dx}, so only the
        # chart-free pullback check can tell
        import dtflat.decompose as decompose
        real = decompose._carry

        def wrong(tail, parent, step):
            carried = real(tail, parent, step)
            sub = step.subsystem
            other = Codistribution(sub.chart, [
                OneForm.unit(sub.chart, x)
                for x in sub.state_names[sub.n - carried[0].dim:]])
            assert not same_span(other, carried[0])
            return [other] + carried[1:]

        monkeypatch.setattr(decompose, "_carry", wrong)
        with pytest.raises(InternalInvariantError, match="carried to level 2 "
                           "fails"):
            decompose_cascade(acad, acad_verdict)

    @pytest.mark.parametrize("coeffs", [
        [("x2", 1)],                       # dx2 lands on the feedback state
        [("x1", 1), ("u1", 1)],            # an input differential
        [("x1", 1), ("x3", Scalar.var("x2"))],  # a coefficient in x2 = xb4
    ])
    def test_leak_is_an_internal_error(self, acad, acad_verdict, coeffs):
        # at level 1 of academic4 the feedback state xb4 is x2, so each
        # parent form here leaves span{dxb1, dxb2, dxb3} or, after reduction,
        # keeps a coefficient in xb4
        step = decompose_step(acad, acad_verdict.codistribution.sequence[1])
        assert step.state_transform[3] == ("xb4", Scalar.var("x2"))
        bad = Codistribution(acad.chart, [form(acad.chart, *coeffs)])
        with pytest.raises(InternalInvariantError, match="does not carry"):
            _carry([bad], acad, step)
        # the analysis's own P_3 carries over
        assert _carry(acad_verdict.codistribution.sequence[2:3], acad,
                      step)[0].dim == 1

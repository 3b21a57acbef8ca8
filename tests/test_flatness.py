"""Both flatness tests and the duality verifier against the worked
example, hand-derived fixtures, scaling families, and randomized
systems."""

import random
from pathlib import Path
from types import SimpleNamespace

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
    random_small_system,
    rat_n,
)
from dtflat.cli import parse_system
from dtflat.errors import DualityViolation, InternalInvariantError
from dtflat.exprs import ONE, ZERO, Scalar, parse_scalar
from dtflat.flatness import (
    ProjectabilityReport,
    _xi_derivative_closure,
    adapted_certificate,
    analyze,
    codistribution_step,
    distribution_step,
    largest_projectable_subdistribution,
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
    meet_kernel,
    rref,
    same_span,
    sum_codistributions,
)
from dtflat.systems import build_adapted_chart, pushforward_projectable
from oracles import intersect
from test_transport import distribution_to_adapted

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

def assert_duality_recorded(system, checks, dres, pres):
    """The verifier returned one check per step, and each records the
    dimensions of that step: complementary, and recomputed here."""
    n_plus_m = system.n + system.m
    assert checks is not None, system.name
    assert [c.k for c in checks] == [st.k for st in dres.steps], system.name
    assert len(checks) == len(pres.steps) == dres.kbar, system.name
    for c, estep, pstep in zip(checks, dres.steps, pres.steps):
        union = sum_codistributions(pstep.Pplus_xu, pstep.P)
        assert (c.E_dim, c.P_dim, c.D_dim, c.sum_dim) == (
            estep.E_prev.dim, pstep.P.dim, estep.D.dim, union.dim), system.name
        assert c.E_dim + c.P_dim == n_plus_m, system.name
        assert c.D_dim + c.sum_dim == n_plus_m, system.name


class TestDuality:
    def test_academic_full_pass(self, acad, acad_verdict):
        checks = acad_verdict.duality
        assert_duality_recorded(acad, checks, acad_verdict.distribution,
                                acad_verdict.codistribution)
        assert [(c.k, c.E_dim, c.P_dim, c.D_dim, c.sum_dim)
                for c in checks] == [(1, 2, 4, 1, 5), (2, 3, 3, 3, 3),
                                     (3, 5, 1, 5, 1), (4, 6, 0, 6, 0)]

    def test_first_step_dims(self, acad_verdict):
        c = acad_verdict.duality[0]
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
            checks = verify_duality(system, dres, pres)
            assert_duality_recorded(system, checks, dres, pres)

    def test_random_flat_corpus(self):
        for system in random_flat_corpus():
            verdict = analyze(system)
            assert verdict.flat is True, system.name
            assert_duality_recorded(system, verdict.duality,
                                    verdict.distribution,
                                    verdict.codistribution)


def replace(record, **changes):
    """A copy of a result record with the given fields changed.  Each
    record's constructor takes its fields, the names in __slots__, so an
    unknown field raises TypeError."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    return type(record)(**{**fields, **changes})


def _mutate_step(seq, k, **changes):
    """A copy of the sequence result with step k replaced field by field."""
    steps = list(seq.steps)
    steps[k - 1] = replace(steps[k - 1], **changes)
    return replace(seq, steps=steps)


def _vectors(chart, *names):
    return Distribution(chart, [VectorField.unit(chart, x) for x in names])


# one mutation per duality check: (dres, pres) -> (dres, pres), with the
# check and the step it must be caught at; academic4's P_1 is
# span{dx1..dx4} and P_2+ + P_1 adds du1 + 2 du2
DUALITY_MUTATIONS = {
    "agreement-flat": (lambda d, p: (replace(d, flat=not d.flat), p),
                       "agreement", 0),
    "agreement-kbar": (lambda d, p: (d, replace(p, kbar=p.kbar - 1)),
                       "agreement", 0),
    "pairing": (lambda d, p: (_mutate_step(
        d, 1, E_prev=_vectors(d.steps[0].E_prev.chart, "x1", "u1")), p),
        "pairing", 1),
    "dims": (lambda d, p: (_mutate_step(
        d, 1, E_prev=_vectors(d.steps[0].E_prev.chart, "u1")), p),
        "dims", 1),
    "projectable-pairing": (lambda d, p: (_mutate_step(
        d, 1, D=_vectors(d.steps[0].D.chart, "u1")), p),
        "projectable-pairing", 1),
    "projectable-dims": (lambda d, p: (_mutate_step(
        d, 1, D=_vectors(d.steps[0].D.chart)), p),
        "projectable-dims", 1),
    "dim-formula-E": (lambda d, p: (_mutate_step(
        d, 2, E=d.steps[1].E_prev), p),
        "dim-formula-E", 2),
    "dim-formula-P": (lambda d, p: (d, _mutate_step(
        p, 3, P_next=p.steps[2].P)),
        "dim-formula-P", 3),
    "certificates": (lambda d, p: (d, _mutate_step(
        p, 1, report=replace(p.steps[0].report, independent_rows=[]))),
        "certificates", 1),
}


class TestDualityViolations:
    @pytest.mark.parametrize("name", list(DUALITY_MUTATIONS))
    def test_every_check_fires(self, acad, acad_verdict, name):
        mutate, check, k = DUALITY_MUTATIONS[name]
        dres, pres = mutate(acad_verdict.distribution,
                            acad_verdict.codistribution)
        with pytest.raises(DualityViolation) as exc:
            verify_duality(acad, dres, pres)
        assert (exc.value.check, exc.value.k) == (check, k)

    @pytest.mark.parametrize("stalled", ["run_distribution_test",
                                         "run_codistribution_test"])
    def test_one_converged_test_is_a_disagreement(self, acad, acad_chart,
                                                  monkeypatch, stalled):
        # when only one test converges the verdict must not silently
        # follow the other: the agreement check sees the kbar mismatch
        import dtflat.flatness as flatness
        real = getattr(flatness, stalled)

        def unconverged(*args, **kwargs):
            return replace(real(*args, **kwargs), kbar=None, flat=None)

        monkeypatch.setattr(flatness, stalled, unconverged)
        with pytest.raises(DualityViolation,
                           match="the two tests disagree") as exc:
            analyze(acad, acad_chart)
        assert (exc.value.check, exc.value.k) == ("agreement", 0)


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


def _doubled(coeffs):
    """The entries with every one other than 0 and 1 doubled: a reduced
    row stays reduced, so only the comparison with the input can tell."""
    return [c if c.is_zero() or c == ONE else c + c for c in coeffs]


class TestShiftsAreRenamings:
    """Each step renames what its shift produced back onto the adapted
    chart and compares it with the input entry for entry, so a shift that
    changes an entry fails the run instead of changing its report."""

    def test_backward_shift_fault_is_caught(self, monkeypatch):
        import dtflat.flatness as flatness
        real = flatness.backward_shift_codistribution

        def faulty(pplus, sys):
            P = real(pplus, sys)
            return Codistribution.reduced(
                P.chart, [_doubled(w.coeffs) for w in P.basis])

        monkeypatch.setattr(flatness, "backward_shift_codistribution", faulty)
        system = parse_system(DATA / "mixed2.sys")[0]
        with pytest.raises(InternalInvariantError,
                           match="backward shift .* is not a renaming"):
            analyze(system, test="codistribution")

    @pytest.mark.parametrize("name", ["academic4", "mixed2"])
    def test_pushforward_fault_is_caught(self, monkeypatch, name):
        import dtflat.flatness as flatness
        real = flatness.pushforward_projectable

        def faulty(v, sys):
            img = real(v, sys)
            return VectorField(img.chart, _doubled(img.coeffs))

        monkeypatch.setattr(flatness, "pushforward_projectable", faulty)
        system = parse_system(DATA / f"{name}.sys")[0]
        with pytest.raises(InternalInvariantError,
                           match="push-forward .* is not its th-part"):
            analyze(system, test="distribution")


def _faulty_kernel(fault):
    """An _xi_derivative_closure whose echelon form hands
    projectability_report fault(kernel, ncols, xi_names) as its kernel."""
    def closure(block, xi_names):
        rows, ech = _xi_derivative_closure(block, xi_names)
        return rows, SimpleNamespace(
            rows=ech.rows,
            kernel=lambda ncols: fault(ech.kernel(ncols), ncols, xi_names))
    return closure


def _escaping_meet_kernel(dist, rows):
    """meet_kernel with d/d(first coordinate) added, which E_0 =
    span{d/du} does not hold."""
    ch = dist.chart
    return Distribution.span(ch, list(meet_kernel(dist, rows).basis)
                             + [VectorField.unit(ch, ch.names[0])])


# one fault per internal check of the two tests that the corpus never
# fires: (the flatness name it replaces, its replacement, the message)
STEP_FAULTS = {
    "kernel-depends-on-xi": (
        "_xi_derivative_closure", _faulty_kernel(
            lambda basis, ncols, xi: [[c * Scalar.var(xi[0]) for c in vec]
                                      for vec in basis]),
        "kernel of the derivative matrix depends on xi"),
    "kernel-bookkeeping": (
        "_xi_derivative_closure", _faulty_kernel(
            lambda basis, ncols, xi: basis + [[ZERO] * ncols]),
        "kernel dimension bookkeeping is off"),
    "core-dimension": (
        "combine", lambda vec, rows: [ZERO] * len(rows[0]),
        r"projectable dimension \d+ does not match"),
    "escaped-input-span": (
        "meet_kernel", _escaping_meet_kernel,
        "projectable subdistribution escaped the input span"),
    "intersection-dims": (
        "meet_annihilator", lambda P, kernel: Codistribution(P.chart, []),
        "intersection dimensions disagree between charts"),
    "not-integrable": (
        "is_integrable", lambda P: False, "P_2 is not integrable"),
}


class TestStepChecksFire:
    """Each internal check of the two tests fires on a fault injected
    into what it checks; on its own chart, as the fixture's keeps
    certificates computed without the fault."""

    @pytest.mark.parametrize("name", list(STEP_FAULTS))
    def test_fault_is_caught(self, acad, monkeypatch, name):
        import dtflat.flatness as flatness
        attr, replacement, message = STEP_FAULTS[name]
        monkeypatch.setattr(flatness, attr, replacement)
        with pytest.raises(InternalInvariantError, match=f"^{message}"):
            analyze(acad, build_adapted_chart(acad))

    def test_nesting_checked(self):
        # handed P = span{dx2} of chain2, which is no member of its
        # sequence, the step finds P_+ = span{dx2} = span{dth1}, and its
        # backward shift span{dx1} is not inside P
        s = chain2()
        P = Codistribution(s.chart, [OneForm.unit(s.chart, "x2")])
        with pytest.raises(InternalInvariantError,
                           match="nesting fails: P_2 not in P_1"):
            codistribution_step(s, build_adapted_chart(s), 1, P)

    def test_report_is_frozen(self, acad, acad_verdict):
        report = acad_verdict.codistribution.steps[0].report
        with pytest.raises(AttributeError, match="ProjectabilityReport is "
                           "frozen: cannot assign rank"):
            report.rank = 0


class TestIntersectionStep:
    """Each codistribution step takes P_k meet span{df} as the forms of P_k
    that annihilate ker df; the reference solves the stacked system of
    both bases.  The reduced bases must be identical."""

    SYSTEMS = {
        "academic4": academic4, "integrator1": integrator1, "chain2": chain2,
        "mimo3": mimo3, "nonflat2": nonflat2, "nonflat3": nonflat3,
        "mixed2": lambda: parse_system(DATA / "mixed2.sys")[0],
        "rat4": lambda: rat_n(4), "nlchain5": lambda: nlchain_n(5),
    }

    @staticmethod
    def shapes(system):
        """(dim P_k, dim of the meet) of every step, each checked against
        the reference."""
        out = []
        for st in run_codistribution_test(system).steps:
            ref = intersect(st.P, system.differentials)
            assert st.intersection.basis == ref.basis
            out.append((st.P.dim, st.intersection.dim))
        return out

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_corpus_systems(self, name):
        assert self.shapes(self.SYSTEMS[name]())

    def test_random_systems(self):
        systems = [random_small_system(random.Random(seed), name=f"small{seed}")
                   for seed in range(20)]
        systems += random_flat_corpus(seed=71, count=20)
        shapes = [s for system in systems for s in self.shapes(system)]
        assert len(systems) == 40
        # proper meets, whole P_k and empty meets all occur
        assert any(0 < m < p for p, m in shapes)
        assert any(0 < m == p for p, m in shapes)
        assert any(m == 0 < p for p, m in shapes)


class TestInvolutivityCheck:
    """distribution_step checks that E_{k-1} nests in E_k and brackets only
    the fields of E_k outside it: a fault there is still caught, with no
    duality verifier behind it (test="distribution")."""

    @staticmethod
    def patch_E(monkeypatch, extra):
        import dtflat.flatness as flatness
        real = flatness.pullback_pi

        def faulty(Delta, sys):
            E = real(Delta, sys)
            return Distribution.span(E.chart, list(E.basis) + extra(E.chart))

        monkeypatch.setattr(flatness, "pullback_pi", faulty)

    @pytest.mark.parametrize("extra", [
        # [d/du1, d/dx1 + u1 d/dx2] = d/dx2: a known field with the new one
        lambda ch: [field6(ch, ("x1", 1), ("x2", Scalar.var("u1")))],
        # [d/dx1, d/dx2 + x1 d/dx3] = d/dx3: two new fields
        lambda ch: [field6(ch, ("x1", 1)),
                    field6(ch, ("x2", 1), ("x3", Scalar.var("x1")))],
    ], ids=["known-with-new", "new-with-new"])
    def test_non_involutive_E_is_caught(self, monkeypatch, extra):
        import dtflat.flatness as flatness
        sys = nlchain_n(4)
        assert analyze(sys, test="distribution").flat
        self.patch_E(monkeypatch, extra)
        # no verifier runs behind the step: calling it would fail the test
        monkeypatch.setattr(flatness, "verify_duality", None)
        with pytest.raises(InternalInvariantError,
                           match="E_1 is not involutive"):
            analyze(sys, test="distribution")

    def test_E_that_loses_E_prev_is_caught(self, monkeypatch):
        import dtflat.flatness as flatness
        real = flatness.pullback_pi
        monkeypatch.setattr(
            flatness, "pullback_pi",
            lambda Delta, sys: Distribution.span(
                sys.chart, [v for v in real(Delta, sys).basis
                            if v != VectorField.unit(sys.chart, "u1")]))
        with pytest.raises(InternalInvariantError,
                           match=r"nesting fails: E_0 not in E_1"):
            analyze(nlchain_n(3), test="distribution")

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_brackets_per_chain(self, monkeypatch, n):
        # step k adds one field to the k fields of E_{k-1}: k brackets, and
        # none at the stall step, n(n+1)/2 in all (all pairs: more)
        import dtflat.flatness as flatness
        import dtflat.geometry as geometry
        calls, per_step = [], []
        bracket, step = geometry.lie_bracket, flatness.distribution_step
        monkeypatch.setattr(geometry, "lie_bracket",
                            lambda v, w: calls.append(1) or bracket(v, w))

        def counted(*args):
            before = len(calls)
            st = step(*args)
            per_step.append(len(calls) - before)
            return st

        monkeypatch.setattr(flatness, "distribution_step", counted)
        result = run_distribution_test(nlchain_n(n))
        assert result.dims == list(range(1, n + 2))
        assert per_step == list(range(1, n + 1)) + [0]
        assert sum(per_step) == n * (n + 1) // 2


class TestFixtures:
    def test_nonflat_stalls(self):
        v = analyze(nonflat2())
        assert v.flat is False
        assert v.kbar == 1
        assert v.distribution.dims == [1]
        assert v.codistribution.dims == [2]
        assert [(c.k, c.E_dim, c.P_dim, c.D_dim, c.sum_dim)
                for c in v.duality] == [(1, 1, 2, 0, 3)]

    def test_nonflat_late_obstruction(self):
        # the projectability certificate is trivial at step 1 and rank 1
        # at step 2, where the sequence stalls
        v = analyze(nonflat3())
        assert v.flat is False
        assert v.kbar == 2
        assert [st.report.rank for st in v.distribution.steps] == [0, 1]
        assert v.distribution.dims == [1, 2]
        assert v.codistribution.dims == [3, 2]
        assert [(c.k, c.E_dim, c.P_dim, c.D_dim, c.sum_dim)
                for c in v.duality] == [(1, 1, 3, 1, 3), (2, 2, 2, 1, 3)]

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
        assert [(c.k, c.E_dim, c.P_dim, c.D_dim, c.sum_dim)
                for c in v.duality] == [(1, 2, 3, 2, 3), (2, 4, 1, 4, 1),
                                        (3, 5, 0, 5, 0)]

    def test_max_iterations_truncates(self):
        v = analyze(academic4(), max_iterations=1)
        assert v.flat is None and v.kbar is None
        assert "not converged" in v.witness
        assert v.duality is None
        for res in (v.distribution, v.codistribution):
            assert not res.converged
            assert res.kbar is None and res.flat is None
            assert len(res.steps) == 1
            assert res.dims == [s.dim for s in res.sequence]
        assert v.distribution.dims == [2, 3]
        assert v.codistribution.dims == [4, 3]

    @pytest.mark.parametrize("k", [0, -1])
    def test_max_iterations_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            analyze(academic4(), max_iterations=k)

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
            assert_duality_recorded(s, v.duality, v.distribution,
                                    v.codistribution)
            cascade = decompose_cascade(s, v)
            assert cascade.blocked is None
            assert cascade.depth == kbar - 1


# ------------------------------------- certificates of reduced annihilators

class TestNormalizeBasis:
    """The certificate needs no normalization step: projectability_report
    reads the theta pivots and the mixed block from the canonical reduced
    basis, normalized to 1 at each pivot, that Distribution.span and
    annihilator build."""

    def test_elimination(self, acad):
        ch = acad.chart_adapted
        ann = Distribution.span(ch, [
            field6(ch, ("th1", 1), ("th2", 1)), field6(ch, ("th2", 1)),
            field6(ch, ("th1", 1), ("xi1", 1))])
        rep = projectability_report(ann, acad.n)
        assert rep.theta_pivots == [0, 1] and rep.dbar == 2
        assert rep.dim == 3
        assert same_span(Distribution(ch, ann.basis[:rep.dbar]), Distribution(
            ch, [VectorField.unit(ch, "th1"), VectorField.unit(ch, "th2")]))
        assert ann.basis[rep.dbar:] == (VectorField.unit(ch, "xi1"),)
        # the mixed block holds the non-pivot th-coefficients of the
        # theta-pivot fields: zero here
        assert rep.mixed_block == [[ZERO, ZERO], [ZERO, ZERO]]

    def test_xi_only_field(self, acad):
        ch = acad.chart_adapted
        ann = Distribution.span(ch, [VectorField.unit(ch, "xi1")])
        rep = projectability_report(ann, acad.n)
        assert rep.dbar == 0 and rep.theta_pivots == [] and rep.dim == 1
        assert rep.projectable_dim == 1

    def test_reduced_basis_taken_as_is(self, acad, acad_chart,
                                       row_operations):
        e1 = Distribution(acad.chart, [field6(acad.chart, ("x2", -3), ("x4", 1)),
                                       field6(acad.chart, ("u1", 1)),
                                       field6(acad.chart, ("u2", 1))])
        d = distribution_to_adapted(acad_chart, e1)
        rows, pivots = rref([v.coeffs for v in d.basis])
        assert [v.coeffs for v in d.basis] == [tuple(r) for r in rows]
        del row_operations[:]
        rep = projectability_report(d, acad.n)
        # pivots and the mixed block are read, and the derivative closure
        # adds no rank here, so nothing is eliminated or normalized
        assert row_operations == []
        assert rep.theta_pivots == pivots == [0, 1, 3]
        assert rep.mixed_block == [[d.basis[k].coeffs[2] for k in range(3)]]
        assert rep.rank == 0 and rep.independent_rows == []

    def test_identity_blocks(self, acad, acad_chart):
        # on every step of the worked example, the reduced annihilator's
        # theta-pivot fields carry 1 at their own pivot and 0 at the other
        # pivots, and the trailing fields have no theta components
        xi_only = 0
        for st in run_codistribution_test(acad, acad_chart).steps:
            _, ann, rep = adapted_certificate(acad_chart, st.P)
            assert rep is st.report
            assert rep.dim == ann.dim
            for i in range(rep.dbar):
                for j, q in enumerate(rep.theta_pivots):
                    assert ann.basis[i].coeffs[q] == (ONE if i == j else ZERO)
            for f in ann.basis[rep.dbar:]:
                assert all(c.is_zero() for c in f.coeffs[:acad.n])
                xi_only += 1
        assert xi_only > 0


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
    def reference_field_from_adapted(chart, v):
        """Each component of the pulled-back field, composed with the
        forward map."""
        out = []
        for b in chart.sys.chart.names:
            total = ZERO
            for a, c in zip(chart.chart.names, v.coeffs):
                if not c.is_zero():
                    total = total + c * chart.inverse[b].diff(a)
            out.append(total.subs(chart.forward))
        return VectorField(chart.sys.chart, out)

    def reference_D(self, chart, core):
        return Distribution.span(chart.sys.chart, [
            self.reference_field_from_adapted(chart, v) for v in core.basis])

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_matches_pulled_back_core(self, name):
        system = self.SYSTEMS[name]()
        chart = build_adapted_chart(system)
        verdict = analyze(system, chart)
        assert_duality_recorded(system, verdict.duality,
                                verdict.distribution, verdict.codistribution)
        for st in verdict.distribution.steps:
            assert st.D.basis == self.reference_D(chart, st.D_adapted).basis
        ranked = [st.k for st in verdict.distribution.steps if st.report.rank]
        assert ranked == self.RANKED.get(name, [])

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
                             + [nlchain_n(n) for n in range(3, 13)],
                             ids=lambda s: s.name)
    def test_flat_with_known_dims(self, system):
        n = system.n
        verdict = analyze(system)
        assert verdict.flat is True
        assert verdict.distribution.dims == list(range(1, n + 2))
        assert verdict.codistribution.dims == list(range(n, -1, -1))
        assert_duality_recorded(system, verdict.duality,
                                verdict.distribution, verdict.codistribution)
        for st in verdict.distribution.steps:
            assert st.D.basis == st.E_prev.basis

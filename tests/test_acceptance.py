"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  All comparisons are exact (span equality for
bases, structural equality for scalars); the only tolerances are the
stated runtime budgets and the float cross-check of the derivative.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from corpus import academic4, base_corpus, random_flat_corpus, random_small_system
from dtflat.decompose import decompose_step
from dtflat.errors import EvalSingular
from dtflat.exprs import ZERO, Scalar, parse_scalar
from dtflat.flatness import (
    analyze,
    run_codistribution_test,
    run_distribution_test,
    verify_duality,
)
from dtflat.geometry import (
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    d_scalar,
    generic_rank,
    interior_product,
    is_integrable,
    is_involutive,
    same_span,
    sum_codistributions,
)
from dtflat.systems import build_adapted_chart, pushforward_projectable


def report(criterion: str, started: float, budget: float):
    elapsed = time.time() - started
    line = f"criterion {criterion}: PASS in {elapsed:.2f}s (budget {budget:.0f}s)"
    print(line)
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.2f}s"


def field(chart, *pairs):
    coeffs = [ZERO] * chart.dim
    for name, c in pairs:
        coeffs[chart.index(name)] = Scalar.of(c)
    return VectorField(chart, coeffs)


def form(chart, *pairs):
    coeffs = [ZERO] * chart.dim
    for name, c in pairs:
        coeffs[chart.index(name)] = Scalar.of(c)
    return OneForm(chart, coeffs)


@pytest.fixture(scope="module")
def corpus_results():
    """Both tests plus duality on every corpus system, computed once."""
    out = []
    for system in base_corpus() + random_flat_corpus():
        chart = build_adapted_chart(system)
        dres = run_distribution_test(system, chart)
        pres = run_codistribution_test(system, chart)
        out.append((system, chart, dres, pres))
    return out


def test_criterion_1_golden_distribution():
    t0 = time.time()
    system = academic4()
    chart = build_adapted_chart(system)
    dres = run_distribution_test(system, chart)
    ch = system.chart

    assert dres.dims == [2, 3, 5, 6]
    assert dres.flat is True
    expected_E = [
        Distribution(ch, [field(ch, ("u1", 1)), field(ch, ("u2", 1))]),
        Distribution(ch, [field(ch, ("x2", -3), ("x4", 1)),
                          field(ch, ("u1", 1)), field(ch, ("u2", 1))]),
        Distribution(ch, [field(ch, ("x1", 1),
                                ("x3", parse_scalar("-(x3+1)/x1"))),
                          field(ch, ("x2", 1)), field(ch, ("x4", 1)),
                          field(ch, ("u1", 1)), field(ch, ("u2", 1))]),
        Distribution(ch, [field(ch, (n, 1)) for n in ch.names]),
    ]
    for got, expect in zip(dres.sequence, expected_E):
        assert same_span(got, expect)
    # projectable subdistributions: D0, then D1 = E1 and D2 = E2
    steps = dres.steps
    assert same_span(steps[0].D,
                     Distribution(ch, [field(ch, ("u1", -2), ("u2", 1))]))
    assert same_span(steps[1].D, dres.sequence[1])
    assert same_span(steps[2].D, dres.sequence[2])
    assert dres.sequence[-1].dim == system.n + system.m
    report("1 (golden distribution test)", t0, 1.0)


def test_criterion_2_golden_codistribution():
    t0 = time.time()
    system = academic4()
    chart = build_adapted_chart(system)
    pres = run_codistribution_test(system, chart)
    ch = system.chart
    cha = system.chart_adapted

    assert pres.dims == [4, 3, 1, 0]
    assert pres.flat is True
    expected_P = [
        Codistribution(ch, [form(ch, (x, 1)) for x in system.state_names]),
        Codistribution(ch, [form(ch, ("x1", 1)), form(ch, ("x3", 1)),
                            form(ch, ("x2", 1), ("x4", 3))]),
        Codistribution(ch, [form(ch, ("x1", parse_scalar("(x3+1)/x1")),
                                 ("x3", 1))]),
    ]
    for got, expect in zip(pres.sequence, expected_P):
        assert same_span(got, expect)
    assert pres.sequence[3].dim == 0

    # P2+ + P1 on the original chart
    union = sum_codistributions(chart.from_adapted(pres.steps[0].Pplus),
                                pres.steps[0].P)
    expect_union = Codistribution(
        ch, [form(ch, (x, 1)) for x in system.state_names]
        + [form(ch, ("u1", 1), ("u2", 2))])
    assert same_span(union, expect_union)

    # the added form at step 1 spans dth1
    added = Codistribution.span(cha, pres.steps[0].added_forms)
    assert same_span(added, Codistribution(cha, [OneForm.unit(cha, "th1")]))

    # the independent derivative rows match the worked matrix entrywise
    rep = pres.steps[0].report
    assert rep.independent_rows == [
        [parse_scalar("-(xi2+1)*(th3+1)/(3*th1)"), ZERO],
        [parse_scalar("-xi1*(th3+1)/(3*th1)"), ZERO]]
    report("2 (golden codistribution test)", t0, 1.0)


def test_criterion_3_duality_suite(corpus_results):
    t0 = time.time()
    assert len(corpus_results) >= 6
    for system, chart, dres, pres in corpus_results:
        duality = verify_duality(system, dres, pres)
        assert [c.k for c in duality] == [st.k for st in dres.steps], system.name
        n_plus_m = system.n + system.m
        for estep, pstep, check in zip(dres.steps, pres.steps, duality):
            # (a) annihilation, re-verified here directly
            for v in estep.E_prev.basis:
                for w in pstep.P.basis:
                    assert interior_product(v, w).is_zero()
            # (b) complementary dimensions
            assert estep.E_prev.dim + pstep.P.dim == n_plus_m
            # (c) the projectable-subdistribution identity
            union = sum_codistributions(chart.from_adapted(pstep.Pplus),
                                        pstep.P)
            for v in estep.D.basis:
                for w in union.basis:
                    assert interior_product(v, w).is_zero()
            assert estep.D.dim + union.dim == n_plus_m
            # the dimensions the verifier recorded
            assert (check.E_dim, check.P_dim, check.D_dim, check.sum_dim) == (
                estep.E_prev.dim, pstep.P.dim, estep.D.dim, union.dim)
    report("3 (duality suite)", t0, 10.0)


def test_criterion_4_verdict_agreement(corpus_results):
    t0 = time.time()
    for system, chart, dres, pres in corpus_results:
        assert dres.flat == pres.flat, system.name
        assert dres.kbar == pres.kbar, system.name
    report("4 (verdict agreement)", t0, 10.0)


def test_criterion_5_dimension_formulas(corpus_results):
    t0 = time.time()
    for system, chart, dres, pres in corpus_results:
        for estep, pstep in zip(dres.steps, pres.steps):
            rep = estep.report
            assert estep.D.dim == rep.dim - rep.rank
            assert estep.E.dim == rep.dbar - rep.rank + system.m
            assert pstep.P_next.dim == system.n - rep.dbar + rep.rank
    report("5 (dimension formulas)", t0, 10.0)


def test_criterion_6_structural_invariants(corpus_results):
    t0 = time.time()
    systems = [(s, c, d, p) for s, c, d, p in corpus_results]
    rng = random.Random(55)
    randoms = []
    for _ in range(100):
        system = random_small_system(rng)
        chart = build_adapted_chart(system)
        dres = run_distribution_test(system, chart)
        pres = run_codistribution_test(system, chart)
        assert dres.flat == pres.flat and dres.kbar == pres.kbar
        randoms.append((system, chart, dres, pres))
    for system, chart, dres, pres in systems + randoms:
        for st in dres.steps:
            assert is_involutive(st.E)
            for v in st.D_adapted.basis:
                pushforward_projectable(v, system)  # raises unless projectable
            for v in st.E_prev.basis:
                assert st.E.contains(v)
        for q in pres.sequence:
            assert is_integrable(q)
        for prev, nxt in zip(pres.sequence, pres.sequence[1:]):
            for w in nxt.basis:
                assert prev.contains(w)
    report("6 (structural invariants, corpus + 100 random systems)", t0, 60.0)


def test_criterion_7_decomposition():
    t0 = time.time()
    system = academic4()
    # raises unless the projectable subdistribution of the input
    # directions is exactly span{d/du1} (checked against an adapted chart
    # in test_decompose.py)
    step = decompose_step(system,
                          analyze(system).codistribution.sequence[1])

    assert {str(g) for g in step.integrals.functions} == \
        {"x1", "x3", "x2 + 3*x4"}
    # normalized equations read state+ = input, exactly
    u2_names = [nm for nm, _ in step.input_transform][:step.dims[2]]
    for pos, idx in enumerate(step.normalized_indices):
        assert step.subsystem_f2[idx][1] == Scalar.var(u2_names[pos])
    # feedback input rank equals the feedback dimension (and is >= 1)
    u1_names = [nm for nm, _ in step.input_transform][step.dims[2]:]
    jac = [[g.diff(u) for u in u1_names] for _, g in step.feedback_f1]
    assert generic_rank(jac) == step.dims[1] >= 1
    # the subsystem continues the sequence one step in
    pres = run_codistribution_test(step.subsystem)
    assert pres.dims == [3, 1, 0]
    assert pres.flat is True
    report("7 (decomposition)", t0, 2.0)


def test_criterion_8_symbolic_kernel_soundness():
    t0 = time.time()
    rng = random.Random(314159)
    vars_ = ["x1", "x2", "u1"]

    def rand_scalar(depth=3):
        if depth == 0 or rng.random() < 0.35:
            if rng.random() < 0.5:
                return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            return Scalar.var(rng.choice(vars_))
        op = rng.randrange(4)
        a, b = rand_scalar(depth - 1), rand_scalar(depth - 1)
        if op == 0:
            return a + b
        if op == 1:
            return a - b
        if op == 2:
            return a * b
        return a / b if not b.is_zero() else a

    identities = 0
    while identities < 1000:
        a, b, c = rand_scalar(2), rand_scalar(2), rand_scalar(2)
        v = rng.choice(vars_)
        case = identities % 5
        if case == 0:
            assert ((a + b) * c - (c * b + a * c)).is_zero()
        elif case == 1:
            assert ((a + b) + c - (a + (b + c))).is_zero()
        elif case == 2:
            assert ((a * b) * c - (a * (b * c))).is_zero()
        elif case == 3:
            leib = (a * b).diff(v) - (a.diff(v) * b + a * b.diff(v))
            assert leib.is_zero()
        else:
            try:
                g = {w: rand_scalar(1) for w in vars_}
                h = {w: rand_scalar(1) for w in vars_}
                composed = {w: g[w].subs(h) for w in vars_}
                assert (a.subs(g).subs(h) - a.subs(composed)).is_zero()
            except Exception as exc:
                from dtflat.errors import SubstitutionSingular
                if not isinstance(exc, SubstitutionSingular):
                    raise
        identities += 1

    # derivative vs exact central finite differences at regular rational
    # points, with a rational step
    step_h = Fraction(1, 10 ** 4)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 4000:
        attempts += 1
        a = rand_scalar(3)
        v = rng.choice(vars_)
        da = a.diff(v)
        if da.is_zero():
            continue
        d3 = da.diff(v).diff(v)
        pt = {w: Fraction(rng.randint(30, 200), 100) for w in vars_}
        try:
            up = a.eval_at({**pt, v: pt[v] + step_h})
            dn = a.eval_at({**pt, v: pt[v] - step_h})
            exact = da.eval_at(pt)
            third = d3.eval_at(pt)
        except EvalSingular:
            continue
        if abs(exact) < Fraction(1, 10 ** 8):
            continue
        if step_h ** 2 / 6 * abs(third) / abs(exact) > Fraction(1, 10 ** 7):
            continue
        fd = (up - dn) / (2 * step_h)
        assert abs(fd - exact) / abs(exact) < Fraction(1, 10 ** 6)
        checked += 1
    assert checked == 50
    report("8 (symbolic kernel soundness, 1000 identities + derivative "
           "cross-check)", t0, 30.0)

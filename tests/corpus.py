"""Shared system corpus: hand-built fixtures, randomized flat systems
built by wrapping triangular blocks and composing with invertible
polynomial transformations, and randomized small systems for the property
suite.  Every generator is deterministic for a fixed seed."""

from __future__ import annotations

import random
from fractions import Fraction

from dtflat.errors import InversionFailed
from dtflat.exprs import Scalar, parse_scalar
from dtflat.systems import DiscreteSystem, build_adapted_chart


def mk(states, inputs, exprs, name=""):
    eq = {v: Fraction(0) for v in list(states) + list(inputs)}
    f = [parse_scalar(e) if isinstance(e, str) else e for e in exprs]
    return DiscreteSystem(states, inputs, f, eq, name=name)


def academic4() -> DiscreteSystem:
    return mk(
        ["x1", "x2", "x3", "x4"], ["u1", "u2"],
        ["(x2 + x3 + 3*x4)/(u1 + 2*u2 + 1)",
         "x1*(x3 + 1)*(u1 + 2*u2 - 3) + x4 - 3*u2",
         "u1 + 2*u2",
         "x1*(x3 + 1) + u2"],
        name="academic4")


def integrator1() -> DiscreteSystem:
    return mk(["x1"], ["u1"], ["x1 + u1"], name="integrator1")


def chain2() -> DiscreteSystem:
    return mk(["x1", "x2"], ["u1"], ["x2", "u1"], name="chain2")


def chain3() -> DiscreteSystem:
    return mk(["x1", "x2", "x3"], ["u1"], ["x2", "x3", "u1"], name="chain3")


def mimo3() -> DiscreteSystem:
    return mk(["x1", "x2", "x3"], ["u1", "u2"], ["u1", "u2", "x1"],
              name="mimo3")


def nonflat2() -> DiscreteSystem:
    return mk(["x1", "x2"], ["u1"], ["u1", "x1 + x2*u1"], name="nonflat2")


def nonflat3() -> DiscreteSystem:
    """Stalls at the second step: the first grown distribution exists but
    its projectable subdistribution loses a direction there (the
    derivative certificate has rank 1 at step 2, not step 1)."""
    return mk(["x1", "x2", "x3"], ["u1"],
              ["-2*u1 + 2*x1", "-x3^2 - 2*u1 + 2*x2", "-2*u1 - 2*x3"],
              name="nonflat3")


def rat_n(n: int) -> DiscreteSystem:
    """Rational tower x_i+ = x_{i+1}/(1 + x_i^2), x_n+ = u1*(1 + x1).  Each
    equation solves linearly for x_{i+1} (the last for u1), so the tower
    is flat with distribution dims [1..n+1] and codistribution dims
    [n..0]."""
    states = [f"x{i}" for i in range(1, n + 1)]
    return mk(states, ["u1"],
              [f"x{i + 1}/(1 + x{i}^2)" for i in range(1, n)] + ["u1*(1 + x1)"],
              name=f"rat{n}")


def nlchain_n(n: int) -> DiscreteSystem:
    """Polynomial chain x_i+ = x_{i+1} + x1*x_i, x_n+ = u1 + x1^2; flat
    for the same reason as rat_n, with the same dims."""
    states = [f"x{i}" for i in range(1, n + 1)]
    return mk(states, ["u1"],
              [f"x{i + 1} + x1*x{i}" for i in range(1, n)] + ["u1 + x1^2"],
              name=f"nlchain{n}")


def base_corpus() -> list:
    return [academic4(), integrator1(), chain2(), chain3(), mimo3(),
            nonflat2(), nonflat3()]


# ---------------------------------------------------- random constructions

def _small_term(rng: random.Random, vars_: list) -> Scalar:
    """One random term of degree 1 or 2 with a small integer coefficient."""
    c = Scalar(rng.choice([-2, -1, 1, 2]))
    term = c * Scalar.var(rng.choice(vars_))
    if rng.random() < 0.4:
        term = term * Scalar.var(rng.choice(vars_))
    return term


def _small_poly(rng: random.Random, vars_: list) -> Scalar:
    if not vars_ or rng.random() < 0.3:
        return Scalar(0)
    return _small_term(rng, vars_)


def random_flat_system(rng: random.Random, name: str = "") -> DiscreteSystem:
    """Known-flat construction: start from one-step integrators, repeatedly
    wrap in a feedback layer (new states realize some old inputs, new
    inputs drive them with full rank), then hide the structure behind
    unipotent polynomial state and input transformations.  Terms are kept
    small so the exact analysis stays fast."""
    m = rng.randint(1, 2)
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    states = [fresh("s") for _ in range(m)]
    inputs = [fresh("w") for _ in range(m)]
    f = [Scalar.var(u) for u in inputs]

    for _ in range(rng.randint(1, 2)):
        if len(states) >= 4:
            break
        r = rng.randint(1, min(m, 4 - len(states)))
        replaced, kept = inputs[:r], inputs[r:]
        new_states = [fresh("s") for _ in range(r)]
        ren = dict(zip(replaced, new_states))
        f = [g.subs({k: Scalar.var(v) for k, v in ren.items()}) for g in f]
        new_inputs = [fresh("w") for _ in range(r)]
        pool = states + new_states + kept
        for w, z in zip(new_states, new_inputs):
            f.append(Scalar.var(z) + _small_poly(rng, pool))
        states = states + new_states
        inputs = kept + new_inputs

    n = len(states)
    # unipotent elementary moves; kept mild (a state move propagates
    # input-bearing rows upward, which the single-variable greedy chart
    # inversion often cannot untangle, so it is applied only sometimes)
    p = [Scalar(0)] * n
    if n > 1 and rng.random() < 0.4:
        i = rng.randrange(n - 1)
        p[i] = _small_term(rng, states[i + 1:])
    xb = [f"x{i}" for i in range(1, n + 1)]
    s_of_xbar: dict = {}
    for i in range(n - 1, -1, -1):
        s_of_xbar[states[i]] = Scalar.var(xb[i]) - p[i].subs(s_of_xbar)
    q = [Scalar(0)] * len(inputs)
    if rng.random() < 0.7:
        j = rng.randrange(len(inputs))
        q[j] = _small_term(rng, states + inputs[j + 1:])
    ub = [f"u{j}" for j in range(1, len(inputs) + 1)]
    w_of_ubar: dict = {}
    for j in range(len(inputs) - 1, -1, -1):
        w_of_ubar[inputs[j]] = (Scalar.var(ub[j])
                                - q[j].subs(s_of_xbar).subs(w_of_ubar))

    # x+ = Phi(f(Psi(x), Gamma^{-1}(x, u)))
    f_new_coords = [g.subs(s_of_xbar).subs(w_of_ubar) for g in f]
    new_f = []
    for i in range(n):
        pi = p[i].subs({states[k]: f_new_coords[k] for k in range(i + 1, n)})
        new_f.append(f_new_coords[i] + pi)
    return mk(xb, ub, new_f, name=name or "randomflat")


def random_small_system(rng: random.Random, name: str = "") -> DiscreteSystem:
    """Random submersive polynomial system, n <= 3, m <= 2, degree <= 2,
    equilibrium at the origin; regenerates until it is submersive and an
    adapted chart exists (the analysis needs the chart to run at all)."""
    for _ in range(400):
        n = rng.randint(1, 3)
        m = rng.randint(1, 2)
        states = [f"x{i}" for i in range(1, n + 1)]
        inputs = [f"u{j}" for j in range(1, m + 1)]
        pool = states + inputs
        f = []
        for _ in range(n):
            g = Scalar(0)
            for v in pool:
                if rng.random() < 0.55:
                    g = g + Scalar(rng.choice([-2, -1, 1, 2])) * Scalar.var(v)
            if rng.random() < 0.5:
                g = g + (Scalar(rng.choice([-1, 1]))
                         * Scalar.var(rng.choice(pool))
                         * Scalar.var(rng.choice(pool)))
            f.append(g)
        try:
            system = mk(states, inputs, f, name=name or "randomsmall")
            build_adapted_chart(system)
        except Exception:
            continue
        return system
    raise RuntimeError("random system generation kept failing")


def random_flat_corpus(seed: int = 20240817, count: int = 3) -> list:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        for _ in range(50):
            try:
                system = random_flat_system(rng, name=f"randomflat{i}")
                build_adapted_chart(system)
            except InversionFailed:
                continue
            out.append(system)
            break
        else:
            raise RuntimeError("could not build a random flat system")
    return out

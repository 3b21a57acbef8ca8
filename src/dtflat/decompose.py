"""Triangular decomposition of forward-flat systems.

One step straightens the second member of the codistribution sequence into
pure state differentials (via first integrals), completes the remaining
states and inputs from original coordinates, and normalizes as many
subsystem equations as the input rank allows, so they read new-state+ =
new-input.  That input transformation provably straightens the projectable
subdistribution of the input directions, which is re-verified on every
step by duality on (x, u), with no adapted chart.  Repeating on the
subsystem yields a cascade whose depth is one less than the stall index of
the flatness sequences.  The cascade carries the analysis's sequence P_k
down its levels, so it builds no adapted chart and runs no test step.

First integrals are found by a documented heuristic (coordinate picks,
constant combinations, exact forms, monomial integrating factors with
exponents bounded by 2) with a user-hint escape hatch; the theory
guarantees existence, not constructibility by this search.
"""

from __future__ import annotations

import itertools
import math

from .errors import (
    EquilibriumMismatch,
    EvalSingular,
    HintInvalid,
    IntegralsNotFound,
    InternalInvariantError,
    NormalizationFailed,
)
from .exprs import ONE, ZERO, Poly, Scalar, Substitution, _as_uni
from .geometry import (
    Codistribution,
    Echelon,
    OneForm,
    _clear_denominators,
    annihilator,
    d_scalar,
    generic_rank,
    invariant_closure,
    is_closed,
    is_integrable,
    meet_coordinates,
    rref,
    same_span,
    sum_codistributions,
)
from .records import Record
from .systems import DiscreteSystem, pullback, pullback_f, triangular_solve


# --------------------------------------------------------- first integrals

class FirstIntegralSet(Record):
    """First integrals of a codistribution and the method that found them:
    coordinate-pick, constant-combination, integrating-factor or
    user-hint."""

    __slots__ = ("functions", "method")


_METHOD_ORDER = ["coordinate-pick", "constant-combination",
                 "integrating-factor", "user-hint"]


def _rational_antiderivative(c: Scalar, name: str):
    """Antiderivative of c with respect to one variable when c is
    polynomial in that variable over a denominator free of it."""
    if c.den.degree_in(name) > 0:
        return None
    uni = _as_uni(c.num, name)
    # sum_deg coeff * name^(deg+1) / (deg+1), over the lcm k of the deg+1
    k = math.lcm(*(deg + 1 for deg in uni))
    total = Poly({})
    for deg, coeff in uni.items():
        mono_pow = Poly({((name, deg + 1),): 1})
        total = total + coeff.scale(k // (deg + 1)) * mono_pow
    return Scalar(total, c.den.scale(k))


def _potential(w: OneForm):
    """A function g with dg = w for a closed form w, or None when an
    antiderivative is not rational.  dg = w needs no check: the pass over
    z_i adds an A with dA/dz_i the residual, and for an earlier z_j, dA/dz_j
    is free of z_i by closedness and vanishes at z_i = 0, as A does."""
    g = ZERO
    for idx, name in enumerate(w.chart.names):
        residual = w.coeffs[idx] - g.diff(name)
        if residual.is_zero():
            continue
        anti = _rational_antiderivative(residual, name)
        if anti is None:
            return None
        g = g + anti
    return g


def _integral_of_form(w: OneForm, factor_vars: list):
    """Try to integrate one basis form: exactness first, then monomial
    integrating factors with exponents in [-2, 2].  Returns
    (integral, method) or (None, None)."""
    seen = []
    bases = [w]
    cleared = OneForm(w.chart, _clear_denominators(w.coeffs))
    if cleared.coeffs != w.coeffs:
        bases.append(cleared)
    for base in bases:
        if is_closed(base):
            g = _potential(base)
            if g is not None:
                return g, "integrating-factor"
    for exps in itertools.product(range(-2, 3), repeat=len(factor_vars)):
        if all(e == 0 for e in exps):
            continue
        mu = ONE
        for v, e in zip(factor_vars, exps):
            if e:
                mu = mu * Scalar.var(v) ** e
        for base in bases:
            scaled = OneForm(base.chart, [c * mu for c in base.coeffs])
            if scaled.coeffs in seen:
                continue
            seen.append(scaled.coeffs)
            if is_closed(scaled):
                g = _potential(scaled)
                if g is not None:
                    return g, "integrating-factor"
    return None, None


def find_first_integrals(p: Codistribution, sys: DiscreteSystem,
                         hints: list | None = None) -> FirstIntegralSet:
    """Functions of the states whose differentials span p exactly.

    Heuristic cascade per basis form of the canonical echelon basis:
    coordinate differentials, constant-coefficient combinations, exact
    forms (term-by-term rational antiderivative), monomial integrating
    factors; finally user hints.  Fails with the residual forms attached.

    The Frobenius test runs only when a form is left over, before any hint
    is tried: a p that fails it raises IntegralsNotFound there.  When every
    basis form w is integrated, each has a g with dg = mu*w, mu nonzero, so
    p is the span of the dg and is integrable; the search then needs no
    Frobenius test of its own, and repeats none for the P_2 that
    decompose_step passes (codistribution_step tested it already).
    """
    for w in p.basis:
        for j in range(sys.n, sys.n + sys.m):
            if not w.coeffs[j].is_zero():
                raise ValueError("codistribution is not inside span{dx}")
    state_set = set(sys.state_names)
    if not p.basis:
        return FirstIntegralSet(functions=[], method="coordinate-pick")

    integrals: list = []
    methods: list = []
    residual: list = []
    for w in p.basis:
        nonzero = [i for i, c in enumerate(w.coeffs) if not c.is_zero()]
        if len(nonzero) == 1 and w.coeffs[nonzero[0]] == ONE:
            integrals.append(Scalar.var(p.chart.names[nonzero[0]]))
            methods.append("coordinate-pick")
            continue
        if all(w.coeffs[i].is_const() for i in nonzero):
            total = ZERO
            for i in nonzero:
                total = total + w.coeffs[i] * Scalar.var(p.chart.names[i])
            integrals.append(total)
            methods.append("constant-combination")
            continue
        support = sorted({v for i in nonzero for v in w.coeffs[i].vars()}
                         | {p.chart.names[i] for i in nonzero})
        support = [v for v in support if v in state_set]
        g, how = _integral_of_form(w, support)
        if g is not None:
            integrals.append(g)
            methods.append(how)
        else:
            residual.append(w)

    if residual:
        if not is_integrable(p):
            raise IntegralsNotFound(
                "codistribution fails the Frobenius condition; no first "
                "integrals exist")
        if hints:
            return _integrals_from_hints(p, sys, hints)
        raise IntegralsNotFound(
            "heuristic search found no first integrals for: "
            + "; ".join(str(w) for w in residual),
            hint="supply integral hints (functions of the states whose "
                 "differentials span the codistribution)")

    result = FirstIntegralSet(functions=integrals,
                              method=max(methods, key=_METHOD_ORDER.index))
    _verify_integrals(result, p, sys)
    return result


def _integrals_from_hints(p, sys, hints) -> FirstIntegralSet:
    functions = [Scalar.of(h) for h in hints]
    result = FirstIntegralSet(functions=functions, method="user-hint")
    try:
        _verify_integrals(result, p, sys)
    except InternalInvariantError as exc:
        raise HintInvalid(f"integral hints rejected: {exc}") from None
    return result


def _verify_integrals(s: FirstIntegralSet, p: Codistribution,
                      sys: DiscreteSystem):
    bad = [g for g in s.functions if g.vars() - set(sys.state_names)]
    if bad:
        raise InternalInvariantError(
            f"integrals must be functions of the states: {bad[0]}")
    diffs = [d_scalar(p.chart, g) for g in s.functions]
    if len(diffs) != p.dim:
        raise InternalInvariantError(
            f"{len(diffs)} integrals for a {p.dim}-dimensional codistribution")
    span = Codistribution.span(p.chart, diffs)
    if span.dim != len(diffs):
        raise InternalInvariantError("integrals are functionally dependent")
    if p.dim and not same_span(span, p):
        raise InternalInvariantError(
            "differentials of the integrals do not span the codistribution")


# -------------------------------------------------------------- one step

class TriangularDecomposition(Record):
    """One decomposition step in explicit coordinates.

    state_transform / input_transform list (new name, expression) pairs;
    the subsystem rows are those of the new-state block that depend only
    on (new states, feedback states, normalized inputs).

    state_transform: x-bar as functions of x (subsystem block first).
    state_inverse: x as functions of x-bar.
    input_transform: u-bar as functions of (x, u) (normalized first).
    input_inverse: u as functions of (x-bar, u-bar).
    subsystem_f2, feedback_f1: (state name, expression) updates.
    normalized_indices: positions in the subsystem block that read
      new-state+ = input.
    dims: (dim x2, dim x1, dim u2, dim u1).
    """

    __slots__ = ("state_transform", "state_inverse", "input_transform",
                 "input_inverse", "subsystem_f2", "feedback_f1",
                 "normalized_indices", "dims", "integrals", "subsystem",
                 "transformed", "dropped_inputs", "warnings")

    @property
    def terminal(self) -> bool:
        return self.subsystem is None


def _units(k: int) -> list:
    """The k coordinate unit rows of length k."""
    return [[ONE if j == i else ZERO for j in range(k)] for i in range(k)]


def _raise_rank(ech: Echelon, candidates: list, target: int) -> list:
    """Indices of the candidates that, tried in order, raise the generic
    rank of ech by one each, until it reaches target; ech takes them in.
    One reduction step per candidate tried."""
    picks = []
    for i, cand in enumerate(candidates):
        if len(ech.rows) == target:
            break
        if ech.add(cand):
            picks.append(i)
    return picks


def _state_completions(p2: Codistribution, sys: DiscreteSystem):
    """The sets of state coordinates x_i whose dx_i complete p2 to
    span{dx}, as ascending index tuples in lexicographic order.

    A rank completion depends only on the span, so p2's own echelon form
    seeds it.  The completions are the bases of a matroid, and the greedy
    lowest-index pick is the lexicographically least of them: it comes
    first, and no set before it completes p2, so none is tried."""
    units = _units(sys.n + sys.m)[:sys.n]
    first = tuple(_raise_rank(p2.echelon(), units, sys.n))
    yield first
    for picks in itertools.combinations(range(sys.n), len(first)):
        if picks > first:
            ech = p2.echelon()
            if all(ech.add(units[i]) for i in picks):
                yield picks


def _complete_states(p2: Codistribution, sys: DiscreteSystem,
                     integrals: FirstIntegralSet, state_names: list) -> tuple:
    """(state_funcs, state_inverse): the first integrals completed by the
    first state coordinates, in _state_completions' order, whose map a
    triangular linear solve inverts.  The lowest-index completion is tried
    first, so a map it inverts is kept; only when it fails are the other
    sets tried, at worst all C(n, n - dim p2) of them."""
    for picks in _state_completions(p2, sys):
        state_funcs = (list(integrals.functions)
                       + [Scalar.var(sys.state_names[i]) for i in picks])
        state_inverse = triangular_solve(
            [(g, Scalar.var(nm)) for nm, g in zip(state_names, state_funcs)],
            list(sys.state_names))
        if state_inverse is not None:
            return state_funcs, state_inverse
    raise NormalizationFailed(
        "could not invert the state transformation by triangular linear "
        "solves")


def decompose_step(sys: DiscreteSystem, p2: Codistribution,
                   integral_hints: list | None = None,
                   state_prefix: str = "xb",
                   input_prefix: str = "ub") -> TriangularDecomposition:
    """Transform one step into the triangular form: subsystem states from
    first integrals, inputs normalized so the chosen subsystem equations
    read new-state+ = new-input.  p2 is P_2 of sys, as the analysis found
    it (from either test) or as decompose_cascade carried it down.

    The one step path: when P_2 = 0 (the last level) the whole system is
    the feedback part, under identity transformations, and every check
    after the transformations is shared.  The rows g_i(f) come from
    sys.shift, as in pullback_f, and each inverse gets one Substitution."""
    warnings: list = []
    n, m, n2 = sys.n, sys.m, p2.dim

    # flat at this step: by duality dim E_1 + dim P_2 = n + m, so E_1
    # exceeds the span of the input directions exactly when P_2 is smaller
    # than P_1 = span{dx}
    if n2 == n:
        raise NormalizationFailed(
            "system is not forward-flat at this step (the distribution "
            "sequence stalls immediately); decomposition is undefined")

    state_names = [f"{state_prefix}{i}" for i in range(1, n + 1)]
    input_names = [f"{input_prefix}{j}" for j in range(1, m + 1)]
    if n2 == 0:
        integrals = FirstIntegralSet(functions=[], method="coordinate-pick")
        old = [Scalar.var(v) for v in sys.chart.names]
        new = [Scalar.var(v) for v in state_names + input_names]
        state_funcs, input_funcs = old[:n], old[n:]
        state_inverse = dict(zip(sys.state_names, new))
        input_inverse = dict(zip(sys.input_names, new[n:]))
        normalized = []
        ren = dict(zip(sys.chart.names, state_names + input_names))
        f_bar = [g.rename(ren) for g in sys.f]
    else:
        input_rank = generic_rank(row[n:] for row in sys.jacobian)
        if input_rank != m:
            raise NormalizationFailed(
                f"the normalization route requires generic rank m = {m} of "
                f"the input Jacobian; it is {input_rank}")

        # P_2 is integrable (codistribution_step checks it, the annihilator
        # of the involutive E_1 is by Frobenius, and so are their moved
        # tails)
        integrals = find_first_integrals(p2, sys, integral_hints)
        state_funcs, state_inverse = _complete_states(
            p2, sys, integrals, state_names)

        # dynamics of the new states, still with the original inputs: row
        # i is g_i(f) on (x, u), then moved to x-bar
        shifted = [g.subs(sys.shift) for g in state_funcs]
        into = Substitution(state_inverse)
        f_mid = [g.subs(into) for g in shifted]

        # choose the equations to normalize: lowest-index subsystem rows
        # with independent input Jacobian rows
        sub_jac = [[g.diff(u) for u in sys.input_names] for g in f_mid[:n2]]
        ech = Echelon()
        normalized = _raise_rank(ech, sub_jac, m)

        # input transformation: normalized equations first, then original
        # inputs completing an invertible map.  On (x, u) the row f_mid[i]
        # is g_i(f) again, as the state maps are mutually inverse, and its
        # input Jacobian row is sub_jac[i] under that invertible map, so
        # ech, which holds the normalized rows, ranks the completion
        input_funcs = [shifted[i] for i in normalized]
        # the m unit rows span every row of length m, so they complete the
        # independent rows in ech to rank m: input_funcs has m entries
        input_funcs += [Scalar.var(sys.input_names[j])
                        for j in _raise_rank(ech, _units(m), m)]

        # u-bar on (x-bar, u): the normalized rows are f_mid's, and the
        # completing inputs are free of the states
        rows = [f_mid[i] for i in normalized] + input_funcs[len(normalized):]
        input_inverse = triangular_solve(
            [(g, Scalar.var(nm)) for nm, g in zip(input_names, rows)],
            list(sys.input_names))
        if input_inverse is None:
            raise NormalizationFailed(
                "could not invert the input transformation by triangular "
                "linear solves")

        # full transformed dynamics
        out = Substitution(input_inverse)
        f_bar = [g.subs(out) for g in f_mid]

    r2 = len(normalized)
    u2_names = input_names[:r2]
    u1_names = input_names[r2:]

    for pos, i in enumerate(normalized):
        if f_bar[i] != Scalar.var(u2_names[pos]):
            raise InternalInvariantError(
                f"normalized equation {i} does not read state+ = input")

    for i in range(n2):
        for u1 in u1_names:
            if f_bar[i].depends_on(u1):
                raise InternalInvariantError(
                    f"subsystem row {i} depends on unnormalized input {u1}")

    fb_jac = [[f_bar[i].diff(u1) for u1 in u1_names] for i in range(n2, n)]
    if generic_rank(fb_jac) != n - n2:
        raise InternalInvariantError(
            "feedback input rank does not match the feedback dimension")

    value_map = dict(zip(state_names + input_names,
                         state_funcs + input_funcs))
    transformed, equilibrium_note = _derived_system(
        state_names, input_names, f_bar, sys, value_map)
    if equilibrium_note:
        warnings.append(equilibrium_note)

    _check_straightened(transformed, u1_names)

    subsystem, dropped = None, []
    if n2:
        sub_inputs = state_names[n2:] + u2_names
        dropped = [w for w in sub_inputs
                   if all(not f_bar[i].depends_on(w) for i in range(n2))]
        sub_inputs = [w for w in sub_inputs if w not in dropped]
        subsystem, sub_note = _derived_system(
            state_names[:n2], sub_inputs, f_bar[:n2], sys, value_map)
        if sub_note:
            warnings.append(sub_note)

    return TriangularDecomposition(
        state_transform=list(zip(state_names, state_funcs)),
        state_inverse=state_inverse,
        input_transform=list(zip(input_names, input_funcs)),
        input_inverse=input_inverse,
        subsystem_f2=list(zip(state_names[:n2], f_bar[:n2])),
        feedback_f1=list(zip(state_names[n2:], f_bar[n2:])),
        normalized_indices=normalized,
        dims=(n2, n - n2, r2, m - r2),
        integrals=integrals,
        subsystem=subsystem,
        transformed=transformed,
        dropped_inputs=dropped,
        warnings=warnings,
    )


def _derived_system(state_names, input_names, f, parent: DiscreteSystem,
                    value_map):
    """Construct a coordinate-transformed system; falls back to no
    equilibrium when the transformation or the transformed dynamics are
    singular at the parent's point.  value_map holds every new name, and a
    system built without an equilibrium evaluates nothing, so only one
    built with one can raise EvalSingular or EquilibriumMismatch."""
    equilibrium = None
    note = None
    if parent.equilibrium is not None:
        try:
            equilibrium = {nm: value_map[nm].eval_at(parent.equilibrium)
                           for nm in list(state_names) + list(input_names)}
        except EvalSingular:
            note = ("transformed coordinates are singular at the original "
                    "equilibrium; the derived system carries no equilibrium "
                    "and is analyzed generically")
    try:
        return DiscreteSystem(state_names, input_names, f, equilibrium,
                              name=f"{parent.name}/derived"), note
    except (EvalSingular, EquilibriumMismatch):
        note = ("transformed dynamics are singular at the image of the "
                "equilibrium; the derived system is analyzed generically")
        return DiscreteSystem(state_names, input_names, f, None,
                              name=f"{parent.name}/derived"), note


def _check_straightened(transformed: DiscreteSystem, u1_names: list):
    """Raise unless the projectable subdistribution D_0 of the input
    directions of the transformed system is exactly span{d/du1}.

    Duality at k = 1 (verify_duality's check (c)) makes D_0 the annihilator
    of U = P_1 + P_2^+, with P_1 = span{dx} and P_2^+ the closure of the
    intersection of P_1 with span{df} under ker df.  So D_0 = span{d/du1}
    exactly when no basis form of U has a u1 coefficient (the unit fields
    d/du1 annihilate U) and dim U = n + m - len(u1) (they span all of
    D_0).  No adapted chart is needed."""
    t = transformed
    U = sum_codistributions(*_p2_plus(t))
    cols = [t.chart.index(u) for u in u1_names]
    if (U.dim != t.n + t.m - len(cols)
            or any(not w.coeffs[c].is_zero() for w in U.basis for c in cols)):
        raise InternalInvariantError(
            "normalization did not straighten the projectable "
            "subdistribution of the input directions")


def _p2_plus(sys: DiscreteSystem) -> tuple:
    """P_1 = span{dx} and P_2^+, the ker-df closure of P_1 meet span{df}."""
    P1 = Codistribution.reduced(sys.chart, _units(sys.n + sys.m)[:sys.n])
    return P1, invariant_closure(meet_coordinates(sys.differentials,
                                                  range(sys.n)),
                                 sys.update_kernel)


# --------------------------------------------------------------- cascade

class CascadeResult(Record):
    """The decomposition steps taken, and why the cascade stopped early
    (None when it reached a terminal step)."""

    __slots__ = ("steps", "blocked")

    @property
    def depth(self) -> int:
        return len(self.steps)


# no i or p: the prefixes xi and xp would generate reserved chart names
_LEVEL_LETTERS = "bcdefghjklmnoqrstuvwyz"


def _level_tags():
    """The names of the cascade's levels, without end: b, ..., z, then
    bb, bc, ..., zz, then bbb, and so on."""
    for size in itertools.count(1):
        yield from map("".join,
                       itertools.product(_LEVEL_LETTERS, repeat=size))


def _carry(tail, parent: DiscreteSystem, step: TriangularDecomposition):
    """The members in tail on step's subsystem: sum a_i dz_i on z = (x, u)
    becomes sum a_i(phi) dphi_i, phi the inverse maps, in dx_sub alone."""
    t, sub = step.transformed, step.subsystem
    phi = {**step.state_inverse, **step.input_inverse}
    jac = [[phi[z].diff(v) for v in t.chart.names] for z in parent.chart.names]
    phi = Substitution(phi)
    own, carried = set(sub.state_names), []
    for P in tail:
        rows, _ = rref(pullback(w.coeffs, phi, jac) for w in P.basis)
        if len(rows) != P.dim or any(
                c.vars() - own or (j >= sub.n and not c.is_zero())
                for r in rows for j, c in enumerate(r)):
            raise InternalInvariantError(f"P_k does not carry to {sub.name}")
        carried.append(Codistribution.reduced(
            sub.chart, [r[:sub.n] + [ZERO] * sub.m for r in rows]))
    return carried


def decompose_cascade(sys: DiscreteSystem, verdict,
                      integral_hints: list | None = None) -> CascadeResult:
    """Repeated decomposition of a system the verdict found forward-flat,
    down to an empty subsystem state, dropping the inputs a subsystem does
    not use.  Best effort: a failing step returns the partial cascade.

    Level 1 takes P_2 from the test that ran, each level below the next
    member of its parent's sequence, moved into its states (_carry): the
    transformed system is triangular and P_2 = span{dxbar_sub}, so for
    k >= 2 the integrable P_k in P_2 is spanned by differentials of
    functions of xbar_sub alone, and the subsystem's sequence is the tail
    of its parent's.  Each carried P_2 must pass f_sub^* P_2 = P_2^+.

    Every level but the last has fewer states than the one above it
    (decompose_step refuses dim P_2 = n), so the cascade ends after at most
    n levels and needs no depth limit."""
    if not verdict.flat:
        raise ValueError("only a system found forward-flat decomposes")
    tail = (verdict.codistribution.sequence[1:]
            if verdict.codistribution is not None
            else [annihilator(E) for E in verdict.distribution.sequence[1:]])
    steps: list = []
    current = sys
    for level, tag in enumerate(_level_tags()):
        if level and not same_span(pullback_f(tail[0], current),
                                   _p2_plus(current)[1]):
            raise InternalInvariantError(
                f"the P_2 carried to level {level + 1} fails f^* P_2 = P_2^+")
        try:
            step = decompose_step(current, tail[0],
                                  integral_hints=integral_hints,
                                  state_prefix=f"x{tag}",
                                  input_prefix=f"u{tag}")
        except (IntegralsNotFound, NormalizationFailed) as exc:
            return CascadeResult(steps=steps, blocked=str(exc))
        steps.append(step)
        if step.terminal:
            return CascadeResult(steps=steps, blocked=None)
        tail = _carry(tail[1:], current, step)
        current, integral_hints = step.subsystem, None

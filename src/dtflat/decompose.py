"""Triangular decomposition of forward-flat systems.

One step straightens the second member of the codistribution sequence into
pure state differentials (via first integrals), completes the remaining
states and inputs from original coordinates, and normalizes as many
subsystem equations as the input rank allows, so they read new-state+ =
new-input.  That input transformation provably straightens the projectable
subdistribution of the input directions, which is re-verified on every
step.  Repeating on the subsystem yields a cascade whose depth is one less
than the stall index of the flatness sequences.

First integrals are found by a documented heuristic (coordinate picks,
constant combinations, exact forms, monomial integrating factors with
exponents bounded by 2) with a user-hint escape hatch; the theory
guarantees existence, not constructibility by this search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    HintInvalid,
    IntegralsNotFound,
    InternalInvariantError,
    NormalizationFailed,
)
from .exprs import ONE, ZERO, Poly, Scalar, _as_uni
from .flatness import codistribution_step
from .geometry import (
    Codistribution,
    Distribution,
    Echelon,
    OneForm,
    VectorField,
    d_scalar,
    generic_rank,
    is_closed,
    is_integrable,
    rref,
    same_span,
)
from .systems import DiscreteSystem, build_adapted_chart, triangular_solve


# --------------------------------------------------------- first integrals

@dataclass
class FirstIntegralSet:
    functions: list
    method: str  # coordinate-pick | constant-combination | integrating-factor | user-hint


_METHOD_ORDER = ["coordinate-pick", "constant-combination",
                 "integrating-factor", "user-hint"]


def _rational_antiderivative(c: Scalar, name: str):
    """Antiderivative of c with respect to one variable when c is
    polynomial in that variable over a denominator free of it."""
    if c.den.degree_in(name) > 0:
        return None
    uni = _as_uni(c.num, name)
    total = Poly({})
    for deg, coeff in uni.items():
        mono_pow = Poly({((name, deg + 1),): Fraction(1)})
        total = total + coeff.scale(Fraction(1, deg + 1)) * mono_pow
    return Scalar(total, c.den)


def _potential(w: OneForm):
    """A function g with dg = w, or None; assumes the form is closed."""
    chart = w.chart
    g = ZERO
    for idx, name in enumerate(chart.names):
        residual = w.coeffs[idx] - g.diff(name)
        if residual.is_zero():
            continue
        anti = _rational_antiderivative(residual, name)
        if anti is None:
            return None
        g = g + anti
    check = d_scalar(chart, g)
    if all((a - b).is_zero() for a, b in zip(check.coeffs, w.coeffs)):
        return g
    return None


def _clear_denominators(w: OneForm) -> OneForm:
    """Multiply a form by the least common multiple of the coefficient
    denominators, yielding polynomial coefficients with the same span."""
    from .exprs import poly_divexact, poly_gcd

    lcm = Poly.const(1)
    for c in w.coeffs:
        if c.is_zero():
            continue
        g = poly_gcd(lcm, c.den)
        lcm = poly_divexact(lcm, g) * c.den
    if lcm == Poly.const(1):
        return w
    factor = Scalar(lcm)
    return OneForm(w.chart, [c * factor for c in w.coeffs])


def _integral_of_form(w: OneForm, factor_vars: list):
    """Try to integrate one basis form: exactness first, then monomial
    integrating factors with exponents in [-2, 2].  Returns
    (integral, method) or (None, None)."""
    seen = []
    bases = [w]
    cleared = _clear_denominators(w)
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
    """
    for w in p.basis:
        for j in range(sys.n, sys.n + sys.m):
            if not w.coeffs[j].is_zero():
                raise ValueError("codistribution is not inside span{dx}")
    if not is_integrable(p):
        raise IntegralsNotFound(
            "codistribution fails the Frobenius condition; no first "
            "integrals exist")
    return _first_integrals(p, sys, hints)


def _first_integrals(p: Codistribution, sys: DiscreteSystem,
                     hints: list | None) -> FirstIntegralSet:
    """find_first_integrals for a p already known to lie in span{dx} and
    to pass the Frobenius test, as P_2 does."""
    state_set = set(sys.state_names)
    if not p.basis:
        return FirstIntegralSet([], "coordinate-pick")

    rows, _ = rref(w.coeffs for w in p.basis)
    forms = [OneForm(p.chart, r) for r in rows]
    integrals: list = []
    methods: list = []
    residual: list = []
    for w in forms:
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
        if hints:
            return _integrals_from_hints(p, sys, hints)
        raise IntegralsNotFound(
            "heuristic search found no first integrals for: "
            + "; ".join(str(w) for w in residual),
            hint="supply integral hints (functions of the states whose "
                 "differentials span the codistribution)")

    result = FirstIntegralSet(integrals,
                              max(methods, key=_METHOD_ORDER.index))
    _verify_integrals(result, p, sys)
    return result


def _integrals_from_hints(p, sys, hints) -> FirstIntegralSet:
    functions = [Scalar.of(h) for h in hints]
    result = FirstIntegralSet(functions, "user-hint")
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

@dataclass
class TriangularDecomposition:
    """One decomposition step in explicit coordinates.

    state_transform / input_transform list (new name, expression) pairs;
    the subsystem rows are those of the new-state block that depend only
    on (new states, feedback states, normalized inputs).
    """

    state_transform: list       # x-bar as functions of x (subsystem block first)
    state_inverse: dict         # x as functions of x-bar
    input_transform: list       # u-bar as functions of (x, u) (normalized first)
    input_inverse: dict         # u as functions of (x-bar, u-bar)
    subsystem_f2: list          # (state name, expression) updates
    feedback_f1: list
    normalized_indices: list    # positions in the subsystem block read new-state+ = input
    dims: tuple                 # (dim x2, dim x1, dim u2, dim u1)
    integrals: FirstIntegralSet
    subsystem: DiscreteSystem | None
    transformed: DiscreteSystem
    straightened_ok: bool
    dropped_inputs: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.subsystem is None or self.subsystem.n == 0


def _units(k: int) -> list:
    """The k coordinate unit rows of length k."""
    return [[ONE if j == i else ZERO for j in range(k)] for i in range(k)]


def _raise_rank(rows: list, candidates: list, target: int) -> list:
    """Indices of the candidates that, tried in order, raise the generic
    rank of rows by one each, until it reaches target.  One reduction step
    per candidate tried."""
    ech = Echelon(rows)
    picks = []
    for i, cand in enumerate(candidates):
        if len(ech.rows) == target:
            break
        if ech.add(cand):
            picks.append(i)
    return picks


def _complete_states(diffs: list, sys: DiscreteSystem) -> list:
    """Lowest-index completion of a partial state transformation by
    original state coordinates, keeping the Jacobian at full generic rank."""
    rows = [d.coeffs[:sys.n] for d in diffs]
    picks = _raise_rank(rows, _units(sys.n), sys.n)
    if len(rows) + len(picks) != sys.n:
        raise NormalizationFailed(
            "no coordinate completion of the state transformation found")
    return [sys.state_names[i] for i in picks]


def decompose_step(sys: DiscreteSystem, p2: Codistribution | None = None,
                   integral_hints: list | None = None,
                   state_prefix: str = "xb",
                   input_prefix: str = "ub") -> TriangularDecomposition:
    """Transform one step into the triangular form: subsystem states from
    first integrals, inputs normalized so the chosen subsystem equations
    read new-state+ = new-input.  p2 is P_2 of sys as the analysis found
    it (from either test), computed here when not given."""
    if p2 is None:
        P1 = Codistribution(sys.chart, [OneForm.unit(sys.chart, x)
                                        for x in sys.state_names])
        p2 = codistribution_step(sys, build_adapted_chart(sys), 1, P1).P_next
    warnings: list = []

    # flat at this step: by duality dim E_1 + dim P_2 = n + m, so E_1
    # exceeds the span of the input directions exactly when P_2 is smaller
    # than P_1 = span{dx}
    if p2.dim == sys.n:
        raise NormalizationFailed(
            "system is not forward-flat at this step (the distribution "
            "sequence stalls immediately); decomposition is undefined")

    n, m = sys.n, sys.m
    if p2.dim == 0:
        return _terminal_step(sys, state_prefix, input_prefix)

    input_jac = [[g.diff(u) for u in sys.input_names] for g in sys.f]
    input_rank = generic_rank(input_jac)
    if input_rank != m:
        raise NormalizationFailed(
            f"the normalization route requires generic rank m = {m} of the "
            f"input Jacobian; it is {input_rank}")

    # P_2 is integrable (codistribution_step checks it; the annihilator of
    # the involutive E_1 is integrable by Frobenius), and its basis is
    # reduced
    integrals = _first_integrals(p2, sys, integral_hints)
    n2 = p2.dim
    completion = _complete_states(
        [d_scalar(sys.chart, g) for g in integrals.functions], sys)
    state_funcs = list(integrals.functions) + [Scalar.var(x) for x in completion]
    state_names = [f"{state_prefix}{i}" for i in range(1, n + 1)]
    state_inverse = triangular_solve(
        [(g, Scalar.var(nm)) for nm, g in zip(state_names, state_funcs)],
        list(sys.state_names))
    if state_inverse is None:
        raise NormalizationFailed(
            "could not invert the state transformation by triangular "
            "linear solves")

    # dynamics of the new states, still with the original inputs
    f_mid = []
    for g in state_funcs:
        f_mid.append(g.subs(dict(zip(sys.state_names, sys.f))).subs(state_inverse))

    # choose the equations to normalize: lowest-index subsystem rows with
    # independent input Jacobian rows
    sub_rows = f_mid[:n2]
    sub_jac = [[g.diff(u) for u in sys.input_names] for g in sub_rows]
    normalized = _raise_rank([], sub_jac, m)
    r2 = len(normalized)

    # input transformation: normalized equations first, then original
    # inputs completing an invertible map
    input_names = [f"{input_prefix}{j}" for j in range(1, m + 1)]
    input_funcs = [sub_rows[i].subs({nm: g for nm, g in
                                     zip(state_names, state_funcs)})
                   for i in normalized]
    jac_rows = [[g.diff(u) for u in sys.input_names] for g in input_funcs]
    input_funcs += [Scalar.var(sys.input_names[j])
                    for j in _raise_rank(jac_rows, _units(m), m)]
    if len(input_funcs) != m:
        raise NormalizationFailed(
            "no invertible completion of the input transformation among "
            "the coordinate inputs",
            hint="the input Jacobian may be singular; check rank(df/du)")

    input_inverse = triangular_solve(
        [(g.subs(state_inverse), Scalar.var(nm))
         for nm, g in zip(input_names, input_funcs)],
        list(sys.input_names))
    if input_inverse is None:
        raise NormalizationFailed(
            "could not invert the input transformation by triangular "
            "linear solves")

    # full transformed dynamics
    f_bar = [g.subs(input_inverse) for g in f_mid]
    u2_names = input_names[:r2]
    u1_names = input_names[r2:]
    x1_names = state_names[n2:]

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

    value_map = {nm: g for nm, g in zip(state_names, state_funcs)}
    value_map.update({nm: g for nm, g in zip(input_names, input_funcs)})
    transformed, equilibrium_note = _derived_system(
        state_names, input_names, f_bar, sys, value_map)
    if equilibrium_note:
        warnings.append(equilibrium_note)

    straightened = _check_straightened(transformed, u1_names)
    if straightened is False:
        raise InternalInvariantError(
            "normalization did not straighten the projectable "
            "subdistribution of the input directions")
    if straightened is None:
        warnings.append("could not rebuild an adapted chart for the "
                        "transformed system; the straightening claim was "
                        "not re-verified")

    sub_inputs = list(x1_names) + list(u2_names)
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
        straightened_ok=straightened,
        dropped_inputs=dropped,
        warnings=warnings,
    )


def _terminal_step(sys: DiscreteSystem, state_prefix: str,
                   input_prefix: str) -> TriangularDecomposition:
    """The whole system is the feedback part: identity transformations,
    no subsystem equations, every input unnormalized."""
    n, m = sys.n, sys.m
    state_names = [f"{state_prefix}{i}" for i in range(1, n + 1)]
    input_names = [f"{input_prefix}{j}" for j in range(1, m + 1)]
    ren_states = dict(zip(sys.state_names, state_names))
    ren_inputs = dict(zip(sys.input_names, input_names))
    f_bar = [g.rename({**ren_states, **ren_inputs}) for g in sys.f]
    fb_jac = [[g.diff(u) for u in input_names] for g in f_bar]
    if generic_rank(fb_jac) != n:
        raise InternalInvariantError(
            "terminal step: feedback input rank is below the state count")
    value_map = {nm: Scalar.var(x)
                 for nm, x in zip(state_names, sys.state_names)}
    value_map.update({nm: Scalar.var(u)
                      for nm, u in zip(input_names, sys.input_names)})
    transformed, note = _derived_system(state_names, input_names, f_bar,
                                        sys, value_map)
    straightened = _check_straightened(transformed, input_names)
    if straightened is False:
        raise InternalInvariantError(
            "terminal step: the input directions are not all projectable")
    return TriangularDecomposition(
        state_transform=[(nm, Scalar.var(x))
                         for nm, x in zip(state_names, sys.state_names)],
        state_inverse={x: Scalar.var(nm)
                       for x, nm in zip(sys.state_names, state_names)},
        input_transform=[(nm, Scalar.var(u))
                         for nm, u in zip(input_names, sys.input_names)],
        input_inverse={u: Scalar.var(nm)
                       for u, nm in zip(sys.input_names, input_names)},
        subsystem_f2=[],
        feedback_f1=list(zip(state_names, f_bar)),
        normalized_indices=[],
        dims=(0, n, 0, m),
        integrals=FirstIntegralSet([], "coordinate-pick"),
        subsystem=None,
        transformed=transformed,
        straightened_ok=straightened,
        warnings=[note] if note else [],
    )


def _derived_system(state_names, input_names, f, parent: DiscreteSystem,
                    value_map):
    """Construct a coordinate-transformed system; falls back to no
    equilibrium when the transformation or the transformed dynamics are
    singular at the parent's point."""
    from .errors import EquilibriumMismatch, EvalSingular

    equilibrium = None
    note = None
    if parent.equilibrium is not None:
        try:
            equilibrium = {nm: value_map[nm].eval_at(parent.equilibrium)
                           for nm in list(state_names) + list(input_names)}
        except (EvalSingular, KeyError):
            note = ("transformed coordinates are singular at the original "
                    "equilibrium; the derived system carries no equilibrium "
                    "and is analyzed generically")
    try:
        return DiscreteSystem(state_names, input_names, f, equilibrium,
                              name=f"{parent.name}/derived"), note
    except (EvalSingular, EquilibriumMismatch):
        if equilibrium is None:
            raise
        note = ("transformed dynamics are singular at the image of the "
                "equilibrium; the derived system is analyzed generically")
        return DiscreteSystem(state_names, input_names, f, None,
                              name=f"{parent.name}/derived"), note


def _check_straightened(transformed: DiscreteSystem, u1_names: list):
    """The projectable subdistribution of the input directions of the
    transformed system must be exactly the span of the unnormalized input
    directions.  Returns True/False, or None when no adapted chart could
    be rebuilt for the verification."""
    from .errors import InversionFailed
    from .flatness import largest_projectable_subdistribution

    try:
        chart = build_adapted_chart(transformed)
    except InversionFailed:
        return None
    e0 = Distribution(transformed.chart,
                      [VectorField.unit(transformed.chart, u)
                       for u in transformed.input_names])
    d0, _, _ = largest_projectable_subdistribution(e0, chart)
    target = Distribution(transformed.chart,
                          [VectorField.unit(transformed.chart, u)
                           for u in u1_names])
    if d0.dim != target.dim:
        return False
    return same_span(d0, target)


# --------------------------------------------------------------- cascade

@dataclass
class CascadeResult:
    steps: list
    blocked: str | None = None

    @property
    def depth(self) -> int:
        return len(self.steps)


# no i or p: the prefixes xi and xp would generate reserved chart names
_LEVEL_LETTERS = "bcdefghjklmnoqrstuvwyz"


def decompose_cascade(sys: DiscreteSystem, p2: Codistribution | None = None,
                      integral_hints: list | None = None) -> CascadeResult:
    """Repeated decomposition down to an empty subsystem state.  p2 is
    P_2 of sys, when the analysis has it.
    Redundant subsystem inputs (inputs the subsystem does not depend on)
    are dropped between steps.  Best effort: a failing step returns the
    partial cascade with the blocking diagnosis."""
    steps: list = []
    current = sys
    hints = integral_hints
    for level in range(len(_LEVEL_LETTERS)):
        if current.n == 0:
            break
        letter = _LEVEL_LETTERS[level]
        try:
            step = decompose_step(current, p2, integral_hints=hints,
                                  state_prefix=f"x{letter}",
                                  input_prefix=f"u{letter}")
        except (IntegralsNotFound, NormalizationFailed) as exc:
            return CascadeResult(steps=steps, blocked=str(exc))
        steps.append(step)
        if step.terminal:
            return CascadeResult(steps=steps)
        current = step.subsystem
        p2 = None
        hints = None
    return CascadeResult(steps=steps,
                         blocked="cascade exceeded the supported depth")

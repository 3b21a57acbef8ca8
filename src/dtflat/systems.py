"""Discrete-time system model and coordinate machinery: submersivity,
adapted charts, forward and backward shifts, and transport of forms and
codistributions between the original and the adapted chart.

The adapted chart takes the images of the state map as its first block of
coordinates and a selection of m existing coordinates as the second block.
In that chart projectability and backward shifts become renamings, which
keeps both forward-flatness tests exact.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping, Sequence
from functools import cached_property
from fractions import Fraction

from .errors import (
    CoefficientVanishes,
    EquilibriumMismatch,
    EvalSingular,
    HintInvalid,
    InternalInvariantError,
    InvalidVariables,
    InversionFailed,
    NotLinearInVariable,
    NotProjectable,
    NotShiftable,
    SubmersivityFailed,
    SubstitutionSingular,
    UnsupportedShift,
)
from .exprs import (
    ONE,
    ZERO,
    Scalar,
    Substitution,
    poly_divexact,
    solve_linear_in,
    solves_linear,
)
from .geometry import (
    Chart,
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    annihilator,
    combine,
    generic_rank,
    same_span,
)


class AdaptedChartHint:
    """Optional user guidance for the adapted chart: which m coordinates to
    keep, and optionally the full inverse map (verified before use)."""

    __slots__ = ("h_vars", "inverse")

    def __init__(self, h_vars: tuple = (),
                 inverse: Mapping[str, Scalar] | None = None):
        self.h_vars = h_vars
        self.inverse = inverse


class DiscreteSystem:
    """x+ = f(x, u) with generic submersivity and an exact equilibrium.

    equilibrium may be None for systems derived internally by coordinate
    transformations, whose dynamics can be singular at the original point;
    every analysis step is generic and never evaluates there.
    """

    def __init__(self, state_names: Sequence[str], input_names: Sequence[str],
                 f: Sequence[Scalar], equilibrium: Mapping[str, Fraction] | None,
                 name: str = "", hints: AdaptedChartHint | None = None):
        self.name = name
        self.state_names = tuple(state_names)
        self.input_names = tuple(input_names)
        self.n = len(self.state_names)
        self.m = len(self.input_names)
        if len(f) != self.n:
            raise ValueError("need one update expression per state")
        self.f = tuple(Scalar.of(g) for g in f)
        self.hints = hints

        self.chart = Chart(self.state_names + self.input_names)
        # the generated chart names: every other module zips these charts'
        # names, and none spells them again
        th = tuple(f"th{i}" for i in range(1, self.n + 1))
        xi = tuple(f"xi{j}" for j in range(1, self.m + 1))
        xp = tuple(f"xp{i}" for i in range(1, self.n + 1))
        clash = set(th + xi + xp) & set(self.chart.names)
        if clash:
            raise InvalidVariables(
                f"variable names {sorted(clash)} collide with generated "
                f"chart names (th*/xi*/xp* are reserved)")
        declared = set(self.chart.names)
        for g in self.f:
            extra = g.vars() - declared
            if extra:
                raise InvalidVariables(
                    f"undeclared variables in dynamics: {sorted(extra)}")

        self.chart_plus = Chart(xp)
        self.chart_adapted = Chart(th + xi)

        self.jacobian = [[g.diff(v) for v in self.chart.names] for g in self.f]
        # span{df}: the row space of the update-map Jacobian as 1-forms
        self.differentials = Codistribution.span(
            self.chart, [OneForm(self.chart, row) for row in self.jacobian])
        if self.differentials.dim != self.n:
            raise SubmersivityFailed(
                f"rank of the update-map Jacobian is "
                f"{self.differentials.dim} < n = {self.n}; the system "
                f"is not submersive")

        if equilibrium is None:
            self.equilibrium = None
        else:
            missing = [v for v in self.chart.names if v not in equilibrium]
            if missing:
                raise InvalidVariables(
                    f"equilibrium has no value for {missing}")
            self.equilibrium = {v: Fraction(equilibrium[v])
                                for v in self.chart.names}
            for name_i, g in zip(self.state_names, self.f):
                try:
                    value = g.eval_at(self.equilibrium)
                except EvalSingular:
                    raise EquilibriumMismatch(
                        f"the update of {name_i} is singular at the declared "
                        f"equilibrium") from None
                if value != self.equilibrium[name_i]:
                    raise EquilibriumMismatch(
                        f"f does not fix the equilibrium: component {name_i}")

    @cached_property
    def warnings(self) -> list:
        """What holds generically but not at the equilibrium: computed on
        first read, so a derived system whose warnings no report reads
        never evaluates its Jacobian there."""
        if self.equilibrium is None:
            return []
        point_rank = _rank_at_point(self.jacobian, self.equilibrium)
        if point_rank is None or point_rank == self.n:
            return []
        return [f"submersivity holds generically but the Jacobian rank "
                f"drops to {point_rank} at the equilibrium; proceeding "
                f"with generic ranks"]

    @cached_property
    def update_kernel(self) -> Distribution:
        """ker df, the annihilator of span{df}: computed on first use, once
        per system (only the codistribution test asks for it)."""
        return annihilator(self.differentials)

    @cached_property
    def shift(self) -> Substitution:
        """x -> f(x, u), one Substitution per system: pullback_f and
        decompose_step share the powers of f it builds."""
        return Substitution(dict(zip(self.state_names, self.f)))


def _rank_at_point(matrix, point) -> int | None:
    """Rank of a Scalar matrix evaluated at an exact point, or None when
    some entry is singular there."""
    try:
        rows = [[Scalar(c.eval_at(point)) for c in row] for row in matrix]
    except EvalSingular:
        return None
    return generic_rank(rows)


class AdaptedChart:
    """Invertible chart (th1..thn, xi1..xim) with th = f(x, u) and xi a
    selection of m original coordinates."""

    def __init__(self, sys: DiscreteSystem, h_names: tuple,
                 inverse: Mapping[str, Scalar]):
        self.sys = sys
        self.h_names = h_names
        self.chart = sys.chart_adapted
        # forward map: each adapted coordinate as a function on (x, u)
        self.forward = _forward_map(sys, h_names)
        # inverse map: each original coordinate as a function on (th, xi)
        self.inverse = dict(inverse)
        # both maps are fixed, so their powers are built once per chart
        self._into = Substitution(self.inverse)
        self._out = Substitution(self.forward)
        # flatness.adapted_certificate keeps what it computes for a
        # codistribution here, keyed by its basis: the chart is fixed, so
        # the result is too, and it lives as long as the chart
        self.certificates: dict = {}
        # one coefficient row per map component: row a is d(forward_a) on
        # (x, u), the system's df_i or the unit row of h_j; row b is
        # d(inverse_b) on (th, xi); forms move with them
        self._jac_forward = list(sys.jacobian) + [
            [ONE if v == h else ZERO for v in sys.chart.names]
            for h in h_names]
        self._jac_inverse = [
            [self.inverse[b].diff(a) for a in self.chart.names]
            for b in sys.chart.names]

    # -------------------------------------------------------------- forms

    def form_to_adapted(self, w: OneForm) -> OneForm:
        if w.chart != self.sys.chart:
            raise ValueError("form is not on the system chart")
        return OneForm(self.chart,
                       pullback(w.coeffs, self._into, self._jac_inverse))

    def form_from_adapted(self, w: OneForm) -> OneForm:
        if w.chart != self.chart:
            raise ValueError("form is not on the adapted chart")
        return OneForm(self.sys.chart,
                       pullback(w.coeffs, self._out, self._jac_forward))

    # -------------------------------------------------------------- spans

    def to_adapted(self, span: Codistribution) -> Codistribution:
        """A codistribution on (x, u), written on the adapted chart form by
        form with form_to_adapted.  Only codistributions move: a
        distribution raises ValueError, and a caller moves its annihilator
        instead."""
        return self._transport(span, True)

    def from_adapted(self, span: Codistribution) -> Codistribution:
        return self._transport(span, False)

    def _transport(self, span: Codistribution, into: bool) -> Codistribution:
        """Every move into the chart is checked by moving the result back,
        which runs the forward-map code against the inverse-map code."""
        if not isinstance(span, Codistribution):
            raise ValueError("only codistributions move between charts")
        target = self.chart if into else self.sys.chart
        move = self.form_to_adapted if into else self.form_from_adapted
        out = Codistribution.span(target, [move(w) for w in span.basis])
        if out.dim != span.dim:
            raise InternalInvariantError(
                "coordinate change did not preserve rank")
        if into and not same_span(span, Codistribution.span(
                span.chart, [self.form_from_adapted(w) for w in out.basis])):
            raise InternalInvariantError(
                "moving into the adapted chart and back changed the span")
        return out


def build_adapted_chart(sys: DiscreteSystem) -> AdaptedChart:
    """Select m coordinates as xi (lowest-index admissible subset first,
    honoring sys.hints) and invert th = f by a greedy pass of single-variable
    linear solves.

    The inverse G of the chart map F = (f, h) is proved from its solves,
    with no symbolic composition G o F:
    - triangular_solve checks each solution s_v against its own equation,
      the unknowns solved before it kept as symbols: the numerator
      c1*v + c0 of the equation vanishes at v = s_v, and c1 stays nonzero
      once the earlier solutions are composed into it;
    - the chart Jacobian J_F has full generic rank (checked below for each
      selection), so F is dominant, and a nonzero rational function stays
      nonzero composed with F.
    Then G o F = id as rational maps.  Take a generic point p and
    (th, xi) = F(p), and go along the solve order, with the unknowns solved
    so far already known to take their values at p.  Equation i holds at p
    (so does an equation composed before it was solved), and its c1 is
    nonzero there (c1 composed with G is nonzero, and stays so composed
    with F), so its one root v = s_v, evaluated at the earlier values, is
    p_v: G_v(F(p)) = p_v.  So F o G = id on the dense image of F as well.
    Two guards decide nothing but catch a faulty kernel:
    - the chain is expanded into G by Scalar.subs; one exact evaluation of
      G o F at a seeded rational point where no denominator vanishes checks
      the expansion (by Schwartz-Zippel a wrong one almost never passes);
    - the transport moves every span into the chart and back.
    A hinted inverse has no solves behind it, so _verify_inverse composes
    it with F symbolically."""
    hint = sys.hints
    names = sys.chart.names
    if hint is not None and hint.inverse is not None and not hint.h_vars:
        raise HintInvalid("an inverse hint requires the xi selection hint "
                          "(the inverse is expressed in th/xi coordinates)")
    if hint is not None and hint.h_vars:
        missing = set(hint.h_vars) - set(names)
        if missing:
            raise HintInvalid(f"hinted xi variables not declared: {sorted(missing)}")
        if len(hint.h_vars) != sys.m:
            raise HintInvalid(f"need exactly m = {sys.m} xi variables")
        candidates = [tuple(hint.h_vars)]
    else:
        candidates = [tuple(names[i] for i in combo)
                      for combo in itertools.combinations(range(len(names)), sys.m)]

    failures = []
    for h_names in candidates:
        # rank of span{df} + span{dh}: the reduced basis of span{df} loads
        # with no arithmetic, so only the m unit rows are reduced
        ech = sys.differentials.echelon()
        for h in h_names:
            ech.add([ONE if v == h else ZERO for v in names])
        if len(ech.rows) != sys.n + sys.m:
            failures.append((h_names, "chart Jacobian is generically singular"))
            continue
        if hint is not None and hint.inverse is not None:
            inverse = {k: Scalar.of(v) for k, v in hint.inverse.items()}
            return _verify_inverse(sys, h_names, inverse)
        inverse = _invert_greedy(sys, h_names)
        if inverse is None:
            failures.append((h_names, "no triangular linear solve order"))
            continue
        chart = AdaptedChart(sys, h_names, inverse)
        _check_at_point(chart)
        return chart

    detail = "; ".join(f"xi={list(h)}: {why}" for h, why in failures[:6])
    raise InversionFailed(
        f"could not build an adapted chart automatically ({detail})",
        hint="provide a chart hint, e.g.: xi = x1, x3")


def triangular_solve(equations, unknowns):
    """Solve expr_i = target_i for the unknowns by a greedy triangular
    pass: repeatedly pick an equation that contains exactly one unsolved
    variable and is linear in it after clearing denominators.

    equations: list of (expr, target) Scalars; targets must be free of the
    unknowns (ValueError otherwise).  Returns {unknown: Scalar} with
    solutions free of every unknown, in solve order, or None when the
    greedy pass gets stuck.

    Each equation e = expr - target is solved where it stands, with the
    unknowns solved before it kept as symbols, and its solution is checked
    against e (InversionFailed when it fails); the chain of these local
    solutions is composed, in solve order, into the returned ones.  The
    picks are those of solving the composed equations, as long as no
    equation's denominator vanishes once composed (it cannot for a dominant
    map, see build_adapted_chart).  The numerator of e is c1*v + c0, and
    its composition (c1*v + c0) o G is linear in v exactly when c1 o G is
    nonzero; with v not in e's denominator, that composed denominator is
    free of v, so the composed equation picks v too, with the root s_v o G.
    Every other local outcome can differ from the composed one, so an
    equation that mentions a solved unknown is then composed and decided
    as it reads composed.
    """
    names = set(unknowns)
    work = []
    for expr, target in equations:
        if target.vars() & names:
            raise ValueError(f"target {target} mentions an unknown")
        work.append(expr - target)
    unsolved = list(unknowns)
    solved = Substitution({})
    progress = True
    while unsolved and progress:
        progress = False
        for i, e in enumerate(work):
            if e is None:
                continue
            step = _solve_one(e, unsolved, solved)
            if step is None and not e.vars().isdisjoint(solved.bindings):
                e = work[i] = e.subs(solved)
                step = _solve_one(e, unsolved, solved)
            if step is None:
                continue
            v, value = step
            solved.bind(v, value)
            unsolved.remove(v)
            work[i] = None
            progress = True
    if unsolved:
        return None
    return solved.bindings


def _solve_one(e: Scalar, unsolved: list, solved: Substitution):
    """(v, s_v o G) when e = 0 determines its one unsolved unknown v
    linearly, with the solved unknowns kept as symbols and the pick the same
    as on e o G (see triangular_solve); None otherwise."""
    names = e.vars()
    present = [v for v in unsolved if v in names]
    if len(present) != 1:
        return None
    v = present[0]
    composes = not names.isdisjoint(solved.bindings)
    if composes and v in e.den.vars():
        return None
    try:
        s = solve_linear_in(e, ZERO, v)
    except (NotLinearInVariable, CoefficientVanishes):
        return None
    if not solves_linear(e, v, s):
        raise InversionFailed(
            f"internal: the solution for {v} does not solve its equation")
    if not composes:
        return v, s
    # c1 is h*den(s) for h = gcd(c0, c1); den(s) o G is nonzero when the
    # composition below succeeds, so only h needs a test
    c1 = e.num.diff(v)
    if not c1.is_const():
        h = poly_divexact(c1, s.den)
        if not h.is_const() and Scalar(h).subs(solved).is_zero():
            return None
    try:
        return v, s.subs(solved)
    except SubstitutionSingular:
        return None


def _invert_greedy(sys: DiscreteSystem, h_names: tuple):
    """Adapted-chart inversion: express every original coordinate in
    (th, xi).  Returns the inverse map or None."""
    adapted = sys.chart_adapted.names
    xi_of = dict(zip(h_names, adapted[sys.n:]))
    unknowns = [v for v in sys.chart.names if v not in xi_of]
    equations = [(g.rename(xi_of), Scalar.var(th))
                 for g, th in zip(sys.f, adapted)]
    solved = triangular_solve(equations, unknowns)
    if solved is None:
        return None
    inverse = dict(solved)
    for h, xi in xi_of.items():
        inverse[h] = Scalar.var(xi)
    return inverse


def _forward_map(sys: DiscreteSystem, h_names: tuple) -> dict:
    """The chart map F = (f, h): each adapted coordinate th_i, xi_j as a
    function on (x, u)."""
    return dict(zip(sys.chart_adapted.names,
                    sys.f + tuple(Scalar.var(h) for h in h_names)))


# seed of the rational points at which _check_at_point evaluates G o F
_POINT_SEED = 20240817
_POINT_TRIES = 8


def _check_at_point(chart: AdaptedChart) -> None:
    """G o F = id at one seeded rational point where no denominator of f
    or of the inverse vanishes, in exact Fraction arithmetic: the guard on
    the expansion of the chart's inverse (see build_adapted_chart)."""
    sys = chart.sys
    rng = random.Random(_POINT_SEED)
    for _ in range(_POINT_TRIES):
        p = {v: Fraction(rng.randint(-999, 999)) for v in sys.chart.names}
        try:
            q = {a: g.eval_at(p) for a, g in chart.forward.items()}
            back = {v: g.eval_at(q) for v, g in chart.inverse.items()}
        except EvalSingular:
            continue
        wrong = [v for v in sys.chart.names if back[v] != p[v]]
        if wrong:
            raise InversionFailed(
                f"internal: computed inverse fails at a rational point for "
                f"{wrong}")
        return
    raise InversionFailed(
        f"internal: computed inverse is singular at {_POINT_TRIES} rational "
        f"points")


def _verify_inverse(sys: DiscreteSystem, h_names: tuple,
                    inverse: Mapping[str, Scalar]) -> AdaptedChart:
    """The chart of a hinted inverse, once its round trip holds:
    substituting th = f(x,u), xi = h(x,u) into it must return each
    original coordinate exactly.  The inverse must give every original
    coordinate in (th, xi) alone before the chart is built, and the round
    trip reads the built chart's forward map."""
    adapted = set(sys.chart_adapted.names)
    for v in sys.chart.names:
        expr = inverse.get(v)
        if expr is None:
            raise _hint_fails(f"missing inverse expression for {v}")
        extra = expr.vars() - adapted
        if extra:
            raise _hint_fails(f"inverse for {v} mentions {sorted(extra)}")
    chart = AdaptedChart(sys, h_names, inverse)
    for v in sys.chart.names:
        if inverse[v].subs(chart._out) != Scalar.var(v):
            raise _hint_fails(f"round trip fails for {v}")
    return chart


def _hint_fails(problem: str) -> HintInvalid:
    return HintInvalid(f"hinted inverse fails verification: {problem}")


# -------------------------------------------------------------- transport

def pushforward_projectable(v: VectorField, sys: DiscreteSystem) -> VectorField:
    """Drop the xi-components of a projectable field on the adapted chart
    and rename th -> xp; errors if any th-coefficient depends on xi."""
    if v.chart != sys.chart_adapted:
        raise ValueError("field is not on the adapted chart")
    th_names = sys.chart_adapted.names[:sys.n]
    xi_names = sys.chart_adapted.names[sys.n:]
    for th, c in zip(th_names, v.coeffs):
        for xi in xi_names:
            if c.depends_on(xi):
                raise NotProjectable(f"coefficient of d/d{th} depends on {xi}")
    ren = dict(zip(th_names, sys.chart_plus.names))
    return VectorField(sys.chart_plus,
                       [v.coeffs[i].rename(ren) for i in range(sys.n)])


def pullback_pi(delta: Distribution, sys: DiscreteSystem) -> Distribution:
    """Preimage under the projection x+ = x: rename xp -> x and append the
    input coordinate fields."""
    if delta.chart != sys.chart_plus:
        raise ValueError("distribution is not on the successor chart")
    ren = dict(zip(sys.chart_plus.names, sys.state_names))
    fields = []
    for v in delta.basis:
        coeffs = [c.rename(ren) for c in v.coeffs] + [ZERO] * sys.m
        fields.append(VectorField(sys.chart, coeffs))
    fields.extend(VectorField.unit(sys.chart, u) for u in sys.input_names)
    return Distribution.span(sys.chart, fields)


def backward_shift_codistribution(pplus: Codistribution,
                                  sys: DiscreteSystem) -> Codistribution:
    """Backward shift of a codistribution inside span{dth} with a
    xi-independent basis: rename th -> x.  The reduced echelon basis is
    canonical, so a xi-free basis exists exactly when that basis is
    xi-free.  Renaming th -> x keeps its pivot columns and its 1/0
    entries, so the shifted basis is reduced as well."""
    if pplus.chart != sys.chart_adapted:
        raise ValueError("codistribution is not on the adapted chart")
    rows = [w.coeffs for w in pplus.basis]
    xi_names = sys.chart_adapted.names[sys.n:]
    for row in rows:
        for j in range(sys.n, sys.n + sys.m):
            if not row[j].is_zero():
                raise NotShiftable(
                    "codistribution is not contained in span{dth}")
        for c in row[:sys.n]:
            for xi in xi_names:
                if c.depends_on(xi):
                    raise NotShiftable(
                        f"no xi-free basis: coefficient {c} depends on {xi}")
    ren = dict(zip(sys.chart_adapted.names, sys.state_names))
    return Codistribution.reduced(sys.chart, [
        [c.rename(ren) for c in row[:sys.n]] + [ZERO] * sys.m
        for row in rows])


def pullback(coeffs: Sequence[Scalar], phi: Substitution,
             jac: Sequence[Sequence[Scalar]]) -> list:
    """The coefficients of the pullback of the form sum_a coeffs[a] dy_a
    through a map y = phi(z): sum_a coeffs[a](phi) dphi_a, where row a of
    jac is dphi_a on z.  Zero coefficients are not substituted."""
    return combine([c if c.is_zero() else c.subs(phi) for c in coeffs], jac)


def pullback_f(p: Codistribution, sys: DiscreteSystem) -> Codistribution:
    """f^* p on (x, u) for p in span{dx} with coefficients in the states:
    sum a_i dx_i to sum a_i(f) df_i, that is, each a_i forward-shifted."""
    if any(w.coeffs[sys.n:] != (ZERO,) * sys.m for w in p.basis):
        raise ValueError("codistribution is not inside span{dx}")
    states = set(sys.state_names)
    for w in p.basis:
        for c in w.coeffs[:sys.n]:
            bad = c.vars() - states
            if bad:
                raise UnsupportedShift(
                    f"forward shift is only modeled for state functions; "
                    f"{sorted(bad)} are not states")
    return Codistribution.span(sys.chart, [
        OneForm(sys.chart, pullback(w.coeffs[:sys.n], sys.shift, sys.jacobian))
        for w in p.basis])

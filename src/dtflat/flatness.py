"""Both geometric forward-flatness tests and the machine check that they
annihilate each other.

The distribution test grows a nested sequence of involutive distributions
starting from the input directions; the codistribution test shrinks a
nested sequence of integrable codistributions starting from the state
differentials.  Each iteration of either test also produces a
projectability certificate: the largest projectable subdistribution is the
kernel of the matrix stacking all xi-derivatives of the mixed coefficient
block of a reduced basis, and the same independent derivative rows give
the 1-forms that extend the intersection step of the dual test.  The
verifier pairs the two sequences step by step: interior products must
vanish identically and the dimensions must be complementary.
"""

from __future__ import annotations

from .errors import DualityViolation, InternalInvariantError
from .exprs import ZERO
from .geometry import (
    Chart,
    Codistribution,
    Distribution,
    Echelon,
    OneForm,
    VectorField,
    annihilator,
    combine,
    interior_product,
    invariant_closure,
    is_integrable,
    is_involutive,
    meet_annihilator,
    meet_coordinates,
    meet_kernel,
    same_span,
    sum_codistributions,
)
from .systems import (
    AdaptedChart,
    DiscreteSystem,
    backward_shift_codistribution,
    build_adapted_chart,
    pullback_pi,
    pushforward_projectable,
)


# ------------------------------------------------ projectability certificate

class ProjectabilityReport:
    """Certificate from one projectable-subdistribution computation.
    Frozen, as both tests' steps hold the one the chart keeps.

    dbar: number of theta-pivot fields in the reduced annihilator.
    dim: dimension of the annihilator.
    theta_pivots: the pivot columns of those fields.
    mixed_block: non-pivot th-coefficients of the theta-pivot fields, one
      row per non-pivot th-coordinate, one column per theta-pivot field.
    independent_rows: the distinct nonzero xi-derivatives of the mixed
      block, stacked level by level until a level stops adding rank
      (first occurrence order).
    rank: generic rank of independent_rows over the function field.
    kernel_basis: column vectors spanning the kernel; coefficients are
      free of all xi variables.
    """

    __slots__ = ("dbar", "dim", "theta_pivots", "mixed_block",
                 "independent_rows", "rank", "kernel_basis")

    def __init__(self, dbar: int, dim: int, theta_pivots: list,
                 mixed_block: list, independent_rows: list, rank: int,
                 kernel_basis: list):
        put = object.__setattr__
        put(self, "dbar", dbar)
        put(self, "dim", dim)
        put(self, "theta_pivots", theta_pivots)
        put(self, "mixed_block", mixed_block)
        put(self, "independent_rows", independent_rows)
        put(self, "rank", rank)
        put(self, "kernel_basis", kernel_basis)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"ProjectabilityReport is frozen: cannot assign {name}")

    @property
    def projectable_dim(self) -> int:
        return self.dim - self.rank

    def added_forms(self, chart: Chart) -> list:
        """The rho-forms on the adapted chart, one per independent row:
        -sum_col row[col] dth_{theta_pivots[col]}.  The codistribution test
        adds them to the intersection to reach P_{k+1}^+."""
        forms = []
        for row in self.independent_rows:
            coeffs = [ZERO] * chart.dim
            for col, c in enumerate(row):
                if not c.is_zero():
                    pivot_col = self.theta_pivots[col]
                    coeffs[pivot_col] = coeffs[pivot_col] - c
            forms.append(OneForm(chart, coeffs))
        return forms


def _xi_derivative_closure(mixed_block: list, xi_names: tuple) -> tuple:
    """Stack xi-derivative levels of the mixed block until a level adds no
    rank; returns the stacked rows and their reduced echelon form."""
    rows: list = []
    ech = Echelon()
    level = mixed_block
    while True:
        nxt = [[c.diff(xi) for c in row] for xi in xi_names for row in level]
        nonzero = [r for r in nxt if any(not c.is_zero() for c in r)]
        grew = False
        for r in nonzero:
            if ech.add(r):
                grew = True
        if not grew:
            return rows, ech
        rows += nonzero
        level = nxt


def projectability_report(ann: Distribution,
                          n_states: int) -> ProjectabilityReport:
    """Build the derivative-row certificate for ann, a distribution on the
    adapted chart.  The pivots of its reduced basis ascend, so the fields
    with a th pivot come first, each with 1 at its own pivot and 0 at the
    other pivots, and the fields after them have xi-components only."""
    xi_names = ann.chart.names[n_states:]
    theta_pivots = [p for p in ann.pivots if p < n_states]
    dbar = len(theta_pivots)
    nonpivot_theta = [i for i in range(n_states) if i not in theta_pivots]
    theta_fields = ann.basis[:dbar]
    mixed_block = [[theta_fields[k].coeffs[i] for k in range(dbar)]
                   for i in nonpivot_theta]
    rows, ech = _xi_derivative_closure(mixed_block, xi_names)
    independent = []
    for row in rows:
        if row not in independent:
            independent.append(row)
    kernel = ech.kernel(dbar)
    for vec in kernel:
        for c in vec:
            for xi in xi_names:
                if c.depends_on(xi):
                    raise InternalInvariantError(
                        "kernel of the derivative matrix depends on xi")
    report = ProjectabilityReport(
        dbar=dbar, dim=ann.dim, theta_pivots=theta_pivots,
        mixed_block=mixed_block, independent_rows=independent,
        rank=len(ech.rows),
        kernel_basis=kernel)
    if report.rank + len(kernel) != dbar:
        raise InternalInvariantError("kernel dimension bookkeeping is off")
    return report


def adapted_certificate(chart: AdaptedChart, P: Codistribution) -> tuple:
    """P on the adapted chart, its annihilator there and the
    projectability certificate of that annihilator.

    Step k of both tests needs this for the same span: the distribution
    test for the annihilator of E_{k-1}, which by duality is P_k with the
    same canonical reduced basis, and the codistribution test for P_k.
    So it is computed once per chart and span and kept on the chart,
    keyed by the canonical basis."""
    cert = chart.certificates.get(P.basis)
    if cert is None:
        P_adapted = chart.to_adapted(P)
        ann = annihilator(P_adapted)
        cert = (P_adapted, ann, projectability_report(ann, chart.sys.n))
        chart.certificates[P.basis] = cert
    return cert


def _projectable_core(ann: Distribution, report: ProjectabilityReport,
                      chart: AdaptedChart) -> Distribution:
    """Largest projectable subdistribution on the adapted chart: kernel
    combinations of the theta-pivot fields of the reduced annihilator
    joined with its xi-only fields."""
    theta_rows = [v.coeffs for v in ann.basis[:report.dbar]]
    fields = [VectorField(chart.chart, combine(vec, theta_rows))
              for vec in report.kernel_basis]
    fields.extend(ann.basis[report.dbar:])
    dbar_dist = Distribution.span(chart.chart, fields)
    if dbar_dist.dim != report.projectable_dim:
        raise InternalInvariantError(
            f"projectable dimension {dbar_dist.dim} does not match "
            f"dim - rank = {report.projectable_dim}")
    return dbar_dist


def largest_projectable_subdistribution(dist: Distribution,
                                        chart: AdaptedChart):
    """Largest projectable subdistribution of a distribution given on the
    original chart; returns it on the original chart, on the adapted chart,
    and the certificate.

    The adapted chart is used for the certificate and the core only; the
    subdistribution on (x, u) is built on (x, u), as the part of dist that
    the rho-forms of the certificate annihilate.  On the adapted chart the
    reduced basis of dist has theta-pivot fields theta_k, which carry 1 at
    their own pivot and 0 at the other pivots, and xi-only fields.  A
    rho-form lives on the theta-pivot columns, so rho_j(theta_k) =
    -row_j[k] and rho_j vanishes on the xi-only fields: a field
    sum_k c_k theta_k + (xi-only part) pairs to zero with every rho_j
    exactly when c lies in the kernel of the derivative rows, i.e. exactly
    on the core.  The interior product does not depend on the chart, so on
    (x, u) the core is meet_kernel of dist with the pairing rows
    [rho_j(v_i)], and its reduced basis is the canonical one that pulling
    the core back through the chart would give.  Without derivative rows
    nothing is annihilated and the subdistribution is dist itself."""
    _, ann, report = adapted_certificate(chart, annihilator(dist))
    core = _projectable_core(ann, report, chart)
    rhos = [chart.form_from_adapted(w)
            for w in report.added_forms(chart.chart)]
    D = meet_kernel(dist, ([interior_product(v, rho) for v in dist.basis]
                           for rho in rhos))
    inside = dist.echelon()
    for v in D.basis:
        if not inside.contains(v.coeffs):
            raise InternalInvariantError(
                "projectable subdistribution escaped the input span")
    if D.dim != report.projectable_dim:
        raise InternalInvariantError(
            f"projectable dimension on (x, u) {D.dim} does not match "
            f"dim - rank = {report.projectable_dim}")
    return D, core, report


# ---------------------------------------------------- the sequence driver

class SequenceResult:
    """One run of either test: the steps taken and the members of the
    sequence up to the stall (E_0 .. E_{kbar-1} or P_1 .. P_kbar).  kbar
    and flat are None when the iteration budget ran out first."""

    __slots__ = ("steps", "sequence", "kbar", "flat")

    def __init__(self, steps: list, sequence: list, kbar: int | None,
                 flat: bool | None):
        self.steps = steps
        self.sequence = sequence
        self.kbar = kbar
        self.flat = flat

    @property
    def dims(self) -> list:
        return [s.dim for s in self.sequence]

    @property
    def converged(self) -> bool:
        return self.kbar is not None


def _iterate(sys: DiscreteSystem, chart: AdaptedChart | None, first, step,
             next_member, flat_dim: int,
             max_iterations: int | None) -> SequenceResult:
    """Apply step(sys, chart, k, member) from the first member until the
    dimension stagnates; the system is flat exactly when the last member
    has dimension flat_dim.  Each step checks that its next member nests
    with the current one, so equal dims mean equal spans."""
    if max_iterations is None:
        max_iterations = sys.n + sys.m + 1
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, "
                         f"not {max_iterations}")
    if chart is None:
        chart = build_adapted_chart(sys)
    member = first
    steps: list = []
    sequence = [member]
    for k in range(1, max_iterations + 1):
        steps.append(step(sys, chart, k, member))
        nxt = next_member(steps[-1])
        if nxt.dim == member.dim:
            return SequenceResult(steps=steps, sequence=sequence, kbar=k,
                                  flat=member.dim == flat_dim)
        member = nxt
        sequence.append(member)
    return SequenceResult(steps=steps, sequence=sequence, kbar=None,
                          flat=None)


# ------------------------------------------------------ distribution test

def _renames_to(row, ren: dict, target) -> bool:
    """Whether row, renamed by ren, equals target entry for entry, as far
    as the shorter goes; a constant entry is compared as it is."""
    return all((c if c.is_const() else c.rename(ren)) == t
               for c, t in zip(row, target))


class DistributionStep:
    """Step k of the distribution test.

    E_prev: E_{k-1} on (x, u).
    D: D_{k-1}, its largest projectable subdistribution, on (x, u).
    D_adapted: D_{k-1} on the adapted chart.
    Delta: the push-forward of D_{k-1}, on the successor chart.
    E: E_k on (x, u).
    report: the projectability certificate of D_{k-1}.
    """

    __slots__ = ("k", "E_prev", "D", "D_adapted", "Delta", "E", "report")

    def __init__(self, k: int, E_prev: Distribution, D: Distribution,
                 D_adapted: Distribution, Delta: Distribution,
                 E: Distribution, report: ProjectabilityReport):
        self.k = k
        self.E_prev = E_prev
        self.D = D
        self.D_adapted = D_adapted
        self.Delta = Delta
        self.E = E
        self.report = report


def distribution_step(sys: DiscreteSystem, chart: AdaptedChart, k: int,
                      E_prev: Distribution) -> DistributionStep:
    D, D_adapted, report = largest_projectable_subdistribution(E_prev, chart)
    # the push-forward is a rename th -> xp: renamed back, each image is
    # the th-part of its field
    back = dict(zip(sys.chart_plus.names, sys.chart_adapted.names))
    images = []
    for v in D_adapted.basis:
        img = pushforward_projectable(v, sys)
        if not _renames_to(img.coeffs, back, v.coeffs):
            raise InternalInvariantError(
                f"the push-forward of a field of D_{k-1} is not its th-part")
        if not img.is_zero():
            images.append(img)
    Delta = Distribution.span(sys.chart_plus, images)
    E = pullback_pi(Delta, sys)
    # E_{k-1} is involutive: step k-1 proved it, and E_0 has constant
    # fields.  is_involutive checks first that it nests in E_k, then forms
    # only the brackets with a field of E_k outside it.
    try:
        involutive = is_involutive(E, known=E_prev)
    except ValueError:
        raise InternalInvariantError(
            f"nesting fails: E_{k-1} not in E_{k}") from None
    if not involutive:
        raise InternalInvariantError(f"E_{k} is not involutive")
    return DistributionStep(k=k, E_prev=E_prev, D=D, D_adapted=D_adapted,
                            Delta=Delta, E=E, report=report)


def run_distribution_test(sys: DiscreteSystem, chart: AdaptedChart | None = None,
                          max_iterations: int | None = None) -> SequenceResult:
    """Iterate from span of the input directions until the dimension
    stagnates; flat exactly when the last strictly growing member spans
    everything."""
    first = Distribution(sys.chart, [VectorField.unit(sys.chart, u)
                                     for u in sys.input_names])
    return _iterate(sys, chart, first, distribution_step, lambda st: st.E,
                    sys.n + sys.m, max_iterations)


# ---------------------------------------------------- codistribution test

class CodistributionStep:
    """Step k of the codistribution test.

    P: P_k on (x, u).
    intersection: P_k intersected with span{df}, on (x, u).
    added_forms: the rho-forms on the adapted chart.
    Pplus: P_{k+1}^+ on the adapted chart.
    Pplus_xu: P_{k+1}^+ on (x, u).
    P_next: P_{k+1} on (x, u).
    report: the projectability certificate from the annihilator of P_k.
    """

    __slots__ = ("k", "P", "intersection", "added_forms", "Pplus",
                 "Pplus_xu", "P_next", "report")

    def __init__(self, k: int, P: Codistribution,
                 intersection: Codistribution, added_forms: list,
                 Pplus: Codistribution, Pplus_xu: Codistribution,
                 P_next: Codistribution, report: ProjectabilityReport):
        self.k = k
        self.P = P
        self.intersection = intersection
        self.added_forms = added_forms
        self.Pplus = Pplus
        self.Pplus_xu = Pplus_xu
        self.P_next = P_next
        self.report = report


def codistribution_step(sys: DiscreteSystem, chart: AdaptedChart, k: int,
                        P: Codistribution) -> CodistributionStep:
    # P_k meet span{df}, as the forms of P_k that annihilate ker df (the
    # closure below needs ker df too).  That is exact: ker df is
    # ann(span{df}), so ann(ker df) contains span{df}; the system's
    # construction checks that span{df} has rank n, and ann(ker df) has
    # dimension n + m - m = n, so the two are equal.
    inter = meet_annihilator(P, sys.update_kernel)

    # Adapted-chart route: the reduced annihilator of P_k yields the
    # derivative rows whose span extends the intersection to the smallest
    # xi-invariant codistribution.
    P_adapted, _, report = adapted_certificate(chart, P)
    added = report.added_forms(sys.chart_adapted)

    # on the adapted chart span{df} is span{dth}, the first n columns
    inter_adapted = meet_coordinates(P_adapted, range(sys.n))
    if inter_adapted.dim != inter.dim:
        raise InternalInvariantError(
            "intersection dimensions disagree between charts")
    Pplus = Codistribution.span(sys.chart_adapted,
                                list(inter_adapted.basis) + added)
    Pplus_xu = chart.from_adapted(Pplus)

    # Coordinate-free route: smallest codistribution containing the
    # intersection and invariant under the kernel of the update map.  The
    # chart change maps spans to spans one to one, so comparing on (x, u)
    # is the same check as comparing on the adapted chart.
    closure = invariant_closure(inter, sys.update_kernel)
    if not same_span(closure, Pplus_xu):
        raise InternalInvariantError(
            "adapted-chart closure and coordinate-free closure disagree")

    # the backward shift is a rename th -> x: renamed back, P_{k+1} is
    # P_{k+1}^+ form for form, with zeros in the input columns.  Then
    # f^* P_{k+1} = from_adapted(P_{k+1}^+) = Pplus_xu, which the
    # cross-check above compared with the closure
    P_next = backward_shift_codistribution(Pplus, sys)
    back = dict(zip(sys.state_names, sys.chart_adapted.names))
    if len(P_next.basis) != len(Pplus.basis) or not all(
            _renames_to(w.coeffs, back, wplus.coeffs)
            for w, wplus in zip(P_next.basis, Pplus.basis)):
        raise InternalInvariantError(
            f"the backward shift of P_{k + 1}^+ is not a renaming")
    if not is_integrable(P_next):
        raise InternalInvariantError(f"P_{k + 1} is not integrable")
    inside = P.echelon()
    for w in P_next.basis:
        if not inside.contains(w.coeffs):
            raise InternalInvariantError(f"nesting fails: P_{k+1} not in P_{k}")
    return CodistributionStep(k=k, P=P, intersection=inter,
                              added_forms=added, Pplus=Pplus,
                              Pplus_xu=Pplus_xu, P_next=P_next, report=report)


def run_codistribution_test(sys: DiscreteSystem, chart: AdaptedChart | None = None,
                            max_iterations: int | None = None) -> SequenceResult:
    """Iterate from the span of the state differentials until the sequence
    stagnates; flat exactly when it reaches zero."""
    first = Codistribution(sys.chart, [OneForm.unit(sys.chart, x)
                                       for x in sys.state_names])
    return _iterate(sys, chart, first, codistribution_step,
                    lambda st: st.P_next, 0, max_iterations)


# ------------------------------------------------------------ the verdict

class DualityCheck:
    """Dimensions recorded at one verified step; every check passed, since
    verify_duality raises on the first that fails."""

    __slots__ = ("k", "E_dim", "P_dim", "D_dim", "sum_dim")

    def __init__(self, k: int, E_dim: int, P_dim: int, D_dim: int,
                 sum_dim: int):
        self.k = k
        self.E_dim = E_dim
        self.P_dim = P_dim
        self.D_dim = D_dim
        self.sum_dim = sum_dim


class FlatnessVerdict:
    """The result of analyze.  distribution and codistribution are the
    runs of the tests selected; duality holds one DualityCheck per step
    when the verifier ran, else None."""

    __slots__ = ("flat", "kbar", "witness", "distribution",
                 "codistribution", "duality")

    def __init__(self, flat: bool | None, kbar: int | None, witness: str,
                 distribution: SequenceResult | None,
                 codistribution: SequenceResult | None,
                 duality: list | None):
        self.flat = flat
        self.kbar = kbar
        self.witness = witness
        self.distribution = distribution
        self.codistribution = codistribution
        self.duality = duality


def _certificates_agree(a: ProjectabilityReport, b: ProjectabilityReport) -> bool:
    return (a.dbar == b.dbar and a.rank == b.rank
            and a.theta_pivots == b.theta_pivots
            and a.mixed_block == b.mixed_block
            and a.independent_rows == b.independent_rows)


def verify_duality(sys: DiscreteSystem, dres: SequenceResult,
                   pres: SequenceResult) -> list:
    """Machine check of the annihilation between the two sequences; any
    failure is raised as an implementation bug, never reported as a
    property of the system.  Returns one DualityCheck per step."""
    if (dres.flat, dres.kbar) != (pres.flat, pres.kbar):
        raise DualityViolation(
            f"the two tests disagree: flat={dres.flat}/{pres.flat}, "
            f"kbar={dres.kbar}/{pres.kbar}", k=0, check="agreement")
    checks = []
    n_plus_m = sys.n + sys.m
    for estep, pstep in zip(dres.steps, pres.steps):
        k = estep.k
        # (a) every pairing between E_{k-1} and P_k vanishes identically
        if not all(interior_product(v, w).is_zero()
                   for v in estep.E_prev.basis for w in pstep.P.basis):
            raise DualityViolation(
                f"a basis pairing of E_{k-1} with P_{k} is nonzero",
                k=k, check="pairing")
        # (b) complementary dimensions
        if estep.E_prev.dim + pstep.P.dim != n_plus_m:
            raise DualityViolation(
                f"dim(E_{k-1}) + dim(P_{k}) = "
                f"{estep.E_prev.dim + pstep.P.dim} != {n_plus_m}",
                k=k, check="dims")
        # (c) the projectable subdistribution annihilates Pplus + P
        union = sum_codistributions(pstep.Pplus_xu, pstep.P)
        if not all(interior_product(v, w).is_zero()
                   for v in estep.D.basis for w in union.basis):
            raise DualityViolation(
                f"a basis pairing of D_{k-1} with P_{k+1}+ + P_{k} is nonzero",
                k=k, check="projectable-pairing")
        if estep.D.dim + union.dim != n_plus_m:
            raise DualityViolation(
                f"dim(D_{k-1}) + dim(P_{k+1}+ + P_{k}) = "
                f"{estep.D.dim + union.dim} != {n_plus_m}",
                k=k, check="projectable-dims")
        # (d) dimension formulas against the recorded certificate
        rep = estep.report
        if estep.E.dim != rep.dbar - rep.rank + sys.m:
            raise DualityViolation(
                f"dim(E_{k}) = {estep.E.dim} != dbar - rank + m = "
                f"{rep.dbar - rep.rank + sys.m}", k=k, check="dim-formula-E")
        if pstep.P_next.dim != sys.n - rep.dbar + rep.rank:
            raise DualityViolation(
                f"dim(P_{k+1}) = {pstep.P_next.dim} != n - dbar + rank = "
                f"{sys.n - rep.dbar + rep.rank}", k=k, check="dim-formula-P")
        # the two certificates must agree.  On one chart both steps read
        # the one certificate adapted_certificate keeps for P_k, so this
        # compares it with itself; computing it twice would only run the
        # same deterministic code on identical canonical inputs.  Checks
        # (a) and (b) and the transport's round trip are what catch a
        # faulty shared computation; this one still catches results
        # built on different charts or altered after the fact.
        if not _certificates_agree(estep.report, pstep.report):
            raise DualityViolation(
                "projectability certificates of the two tests differ",
                k=k, check="certificates")
        checks.append(DualityCheck(
            k=k, E_dim=estep.E_prev.dim, P_dim=pstep.P.dim, D_dim=estep.D.dim,
            sum_dim=union.dim))
    return checks


def analyze(sys: DiscreteSystem, chart: AdaptedChart | None = None,
            max_iterations: int | None = None,
            test: str = "both") -> FlatnessVerdict:
    """Run the selected test, "distribution", "codistribution" or "both",
    on one shared adapted chart and assemble the verdict.  When both run
    and either converges, the duality verifier checks that their answers
    agree and checks their sequences against each other."""
    if test not in ("distribution", "codistribution", "both"):
        raise ValueError(f"test must be 'distribution', 'codistribution' "
                         f"or 'both', not {test!r}")
    if chart is None:
        chart = build_adapted_chart(sys)
    dres = pres = None
    if test != "codistribution":
        dres = run_distribution_test(sys, chart, max_iterations)
    if test != "distribution":
        pres = run_codistribution_test(sys, chart, max_iterations)

    duality = None
    if test == "both" and (dres.converged or pres.converged):
        duality = verify_duality(sys, dres, pres)

    primary = dres if dres is not None else pres
    kbar = primary.kbar
    if not primary.converged:
        witness = "not converged within the iteration budget"
    elif test == "both":
        witness = (f"both tests stalled at step {kbar}: "
                   f"dim(E_{kbar-1}) = {dres.sequence[-1].dim} and "
                   f"dim(P_{kbar}) = {pres.sequence[-1].dim}")
    elif dres is not None:
        witness = (f"dimension stagnation at step {kbar} with "
                   f"dim(E_{kbar-1}) = {dres.sequence[-1].dim}")
    else:
        witness = (f"sequence stagnation at step {kbar} with "
                   f"dim(P_{kbar}) = {pres.sequence[-1].dim}")
    return FlatnessVerdict(
        flat=primary.flat, kbar=kbar, witness=witness,
        distribution=dres, codistribution=pres, duality=duality)

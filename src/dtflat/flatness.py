"""Both geometric forward-flatness tests and the machine check that they
annihilate each other.

The distribution test grows a nested sequence of involutive distributions
starting from the input directions; the codistribution test shrinks a
nested sequence of integrable codistributions starting from the state
differentials.  Each iteration of either test also produces a
projectability certificate: the largest projectable subdistribution is the
kernel of the matrix stacking all xi-derivatives of the mixed coefficient
block of a normalized basis, and the same independent derivative rows give
the 1-forms that extend the intersection step of the dual test.  The
verifier pairs the two sequences step by step: interior products must
vanish identically and the dimensions must be complementary.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    intersect,
    invariant_closure,
    is_integrable,
    is_involutive,
    nullspace,
    rref,
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


# ------------------------------------------------------- normalized bases

@dataclass
class NormalizedBasis:
    """Echelon basis of a distribution on the adapted chart: the first
    fields carry an identity block on their pivot th-columns, the trailing
    fields have xi-components only."""

    fields: list
    theta_pivots: list  # pivot columns among the th-block, ascending
    xi_pivots: list     # pivot columns among the xi-block (chart indices)

    @property
    def dbar(self) -> int:
        return len(self.theta_pivots)


def normalize_distribution_basis(dist: Distribution, n_states: int) -> NormalizedBasis:
    """The reduced echelon basis of the distribution: the span is unchanged
    and the output is canonical.  A basis that is already reduced (as
    Span.span, the transport into the adapted chart and annihilator build
    it) costs no arithmetic, only tests for zero."""
    rows, pivots = rref(v.coeffs for v in dist.basis)
    fields = [VectorField(dist.chart, r) for r in rows]
    theta_pivots = [p for p in pivots if p < n_states]
    xi_pivots = [p for p in pivots if p >= n_states]
    return NormalizedBasis(fields, theta_pivots, xi_pivots)


@dataclass
class ProjectabilityReport:
    """Certificate from one projectable-subdistribution computation.

    mixed_block: non-pivot th-coefficients of the theta-pivot fields, one
      row per non-pivot th-coordinate, one column per theta-pivot field.
    independent_rows: the distinct nonzero xi-derivatives of the mixed
      block, stacked level by level until a level stops adding rank
      (first occurrence order).
    rank: generic rank of independent_rows over the function field.
    kernel_basis: column vectors spanning the kernel; coefficients are
      free of all xi variables.
    """

    dbar: int
    dim: int
    theta_pivots: list
    mixed_block: list
    independent_rows: list
    rank: int
    kernel_basis: list

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


def projectability_report(norm: NormalizedBasis, chart: Chart,
                          n_states: int) -> ProjectabilityReport:
    """Build the derivative-row certificate for a normalized basis."""
    xi_names = chart.names[n_states:]
    dbar = norm.dbar
    nonpivot_theta = [i for i in range(n_states) if i not in norm.theta_pivots]
    theta_fields = norm.fields[:dbar]
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
        dbar=dbar, dim=len(norm.fields), theta_pivots=list(norm.theta_pivots),
        mixed_block=mixed_block, independent_rows=independent,
        rank=len(ech.rows),
        kernel_basis=kernel)
    if report.rank + len(kernel) != dbar:
        raise InternalInvariantError("kernel dimension bookkeeping is off")
    return report


def _projectable_core(dist_adapted: Distribution, chart: AdaptedChart):
    """Largest projectable subdistribution on the adapted chart, plus the
    certificate: kernel combinations of the theta-pivot fields joined with
    the xi-only fields."""
    sys = chart.sys
    norm = normalize_distribution_basis(dist_adapted, sys.n)
    report = projectability_report(norm, sys.chart_adapted, sys.n)
    theta_rows = [v.coeffs for v in norm.fields[:norm.dbar]]
    fields = [VectorField(sys.chart_adapted, combine(vec, theta_rows))
              for vec in report.kernel_basis]
    fields.extend(norm.fields[norm.dbar:])
    dbar_dist = Distribution.span(sys.chart_adapted, fields)
    if dbar_dist.dim != report.projectable_dim:
        raise InternalInvariantError(
            f"projectable dimension {dbar_dist.dim} does not match "
            f"dim - rank = {report.projectable_dim}")
    return dbar_dist, report


def largest_projectable_subdistribution(dist: Distribution,
                                        chart: AdaptedChart):
    """Largest projectable subdistribution of a distribution given on the
    original chart; returns it on the original chart, on the adapted chart,
    and the certificate.

    The adapted chart is used for the certificate and the core only; the
    subdistribution on (x, u) is built on (x, u), as the part of dist that
    the rho-forms of the certificate annihilate.  On the adapted chart the
    normalized basis of dist has theta-pivot fields theta_k, which carry 1
    at their own pivot and 0 at the other pivots, and xi-only fields.  A
    rho-form lives on the theta-pivot columns, so rho_j(theta_k) =
    -row_j[k] and rho_j vanishes on the xi-only fields: a field
    sum_k c_k theta_k + (xi-only part) pairs to zero with every rho_j
    exactly when c lies in the kernel of the derivative rows, i.e. exactly
    on the core.  The interior product does not depend on the chart, so on
    (x, u) the combinations sum_i a_i v_i of dist's basis with a in the
    kernel of the pairing matrix [rho_j(v_i)] span the core, and their
    reduced basis is the canonical one that pulling the core back through
    the chart would give.  Without derivative rows nothing is annihilated
    and the subdistribution is dist itself."""
    dist_adapted = chart.to_adapted(dist)
    core, report = _projectable_core(dist_adapted, chart)
    if not report.independent_rows:
        D = Distribution.span(dist.chart, dist.basis)
    else:
        rhos = [chart.form_from_adapted(w)
                for w in report.added_forms(chart.chart)]
        pairing = [[interior_product(v, rho) for v in dist.basis]
                   for rho in rhos]
        rows = [v.coeffs for v in dist.basis]
        D = Distribution.span(dist.chart, [
            VectorField(dist.chart, combine(a, rows))
            for a in nullspace(pairing)])
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

@dataclass
class SequenceResult:
    """One run of either test: the steps taken and the members of the
    sequence up to the stall (E_0 .. E_{kbar-1} or P_1 .. P_kbar).  kbar
    and flat are None when the iteration budget ran out first."""

    steps: list
    sequence: list
    kbar: int | None
    flat: bool | None

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
    if chart is None:
        chart = build_adapted_chart(sys)
    if max_iterations is None:
        max_iterations = sys.n + sys.m + 1
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

@dataclass
class DistributionStep:
    k: int
    E_prev: Distribution          # E_{k-1} on (x, u)
    D: Distribution               # D_{k-1} on (x, u)
    D_adapted: Distribution
    Delta: Distribution           # on the successor chart
    E: Distribution               # E_k on (x, u)
    report: ProjectabilityReport


def distribution_step(sys: DiscreteSystem, chart: AdaptedChart, k: int,
                      E_prev: Distribution) -> DistributionStep:
    D, D_adapted, report = largest_projectable_subdistribution(E_prev, chart)
    images = []
    for v in D_adapted.basis:
        img = pushforward_projectable(v, sys)
        if not img.is_zero():
            images.append(img)
    Delta = Distribution.span(sys.chart_plus, images)
    E = pullback_pi(Delta, sys)
    if not is_involutive(E):
        raise InternalInvariantError(f"E_{k} is not involutive")
    inside = E.echelon()
    for v in E_prev.basis:
        if not inside.contains(v.coeffs):
            raise InternalInvariantError(f"nesting fails: E_{k-1} not in E_{k}")
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

@dataclass
class CodistributionStep:
    k: int
    P: Codistribution             # P_k on (x, u)
    intersection: Codistribution  # P_k intersected with span{df}, on (x, u)
    added_forms: list             # rho-forms on the adapted chart
    Pplus: Codistribution         # P_{k+1}^+ on the adapted chart
    Pplus_xu: Codistribution      # P_{k+1}^+ on (x, u)
    P_next: Codistribution        # P_{k+1} on (x, u)
    report: ProjectabilityReport  # from the annihilator of P_k


def codistribution_step(sys: DiscreteSystem, chart: AdaptedChart, k: int,
                        P: Codistribution) -> CodistributionStep:
    span_df = sys.differentials
    inter = intersect(P, span_df)

    # Adapted-chart route: the annihilator of P_k, normalized, yields the
    # derivative rows whose span extends the intersection to the smallest
    # xi-invariant codistribution.
    P_adapted = chart.to_adapted(P)
    ann = annihilator(P_adapted)
    norm = normalize_distribution_basis(ann, sys.n)
    report = projectability_report(norm, sys.chart_adapted, sys.n)
    added = report.added_forms(sys.chart_adapted)

    span_dtheta = Codistribution.reduced(
        sys.chart_adapted,
        [OneForm.unit(sys.chart_adapted, f"th{i}").coeffs
         for i in range(1, sys.n + 1)])
    inter_adapted = intersect(P_adapted, span_dtheta)
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
    kernel = annihilator(span_df)
    closure = invariant_closure(inter, kernel)
    if not same_span(closure, Pplus_xu):
        raise InternalInvariantError(
            "adapted-chart closure and coordinate-free closure disagree")

    P_next = backward_shift_codistribution(Pplus, sys)
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

@dataclass
class DualityCheck:
    k: int
    pairing_zero: bool
    dims_complementary: bool
    projectable_pairing_zero: bool
    projectable_dims_complementary: bool
    dim_formula_E: bool
    dim_formula_P: bool
    certificates_agree: bool
    E_dim: int
    P_dim: int
    D_dim: int
    sum_dim: int


@dataclass
class DualityReport:
    checks: list
    ok: bool


@dataclass
class FlatnessVerdict:
    flat: bool | None
    kbar: int | None
    witness: str
    duality_ok: bool | None
    distribution: SequenceResult | None
    codistribution: SequenceResult | None
    duality: DualityReport | None
    tests_agree: bool | None


def _certificates_agree(a: ProjectabilityReport, b: ProjectabilityReport) -> bool:
    return (a.dbar == b.dbar and a.rank == b.rank
            and a.theta_pivots == b.theta_pivots
            and a.mixed_block == b.mixed_block
            and a.independent_rows == b.independent_rows)


def verify_duality(sys: DiscreteSystem, dres: SequenceResult,
                   pres: SequenceResult) -> DualityReport:
    """Machine check of the annihilation between the two sequences; any
    failure is raised as an implementation bug, never reported as a
    property of the system."""
    if dres.kbar != pres.kbar:
        raise DualityViolation(
            f"tests stalled at different steps: {dres.kbar} vs {pres.kbar}",
            k=0, check="stagnation")
    checks = []
    n_plus_m = sys.n + sys.m
    for estep, pstep in zip(dres.steps, pres.steps):
        k = estep.k
        # (a) every pairing between E_{k-1} and P_k vanishes identically
        pairing = all(
            interior_product(v, w).is_zero()
            for v in estep.E_prev.basis for w in pstep.P.basis)
        if not pairing:
            raise DualityViolation(
                f"a basis pairing of E_{k-1} with P_{k} is nonzero",
                k=k, check="pairing")
        # (b) complementary dimensions
        dims_ok = estep.E_prev.dim + pstep.P.dim == n_plus_m
        if not dims_ok:
            raise DualityViolation(
                f"dim(E_{k-1}) + dim(P_{k}) = "
                f"{estep.E_prev.dim + pstep.P.dim} != {n_plus_m}",
                k=k, check="dims")
        # (c) the projectable subdistribution annihilates Pplus + P
        union = sum_codistributions(pstep.Pplus_xu, pstep.P)
        proj_pairing = all(
            interior_product(v, w).is_zero()
            for v in estep.D.basis for w in union.basis)
        if not proj_pairing:
            raise DualityViolation(
                f"a basis pairing of D_{k-1} with P_{k+1}+ + P_{k} is nonzero",
                k=k, check="projectable-pairing")
        proj_dims = estep.D.dim + union.dim == n_plus_m
        if not proj_dims:
            raise DualityViolation(
                f"dim(D_{k-1}) + dim(P_{k+1}+ + P_{k}) = "
                f"{estep.D.dim + union.dim} != {n_plus_m}",
                k=k, check="projectable-dims")
        # (d) dimension formulas against the recorded certificate
        rep = estep.report
        formula_E = estep.E.dim == rep.dbar - rep.rank + sys.m
        if not formula_E:
            raise DualityViolation(
                f"dim(E_{k}) = {estep.E.dim} != dbar - rank + m = "
                f"{rep.dbar - rep.rank + sys.m}", k=k, check="dim-formula-E")
        formula_P = pstep.P_next.dim == sys.n - rep.dbar + rep.rank
        if not formula_P:
            raise DualityViolation(
                f"dim(P_{k+1}) = {pstep.P_next.dim} != n - dbar + rank = "
                f"{sys.n - rep.dbar + rep.rank}", k=k, check="dim-formula-P")
        # the two certificates are computed from dual inputs and must agree
        certs = _certificates_agree(estep.report, pstep.report)
        if not certs:
            raise DualityViolation(
                "projectability certificates of the two tests differ",
                k=k, check="certificates")
        checks.append(DualityCheck(
            k=k, pairing_zero=pairing, dims_complementary=dims_ok,
            projectable_pairing_zero=proj_pairing,
            projectable_dims_complementary=proj_dims,
            dim_formula_E=formula_E, dim_formula_P=formula_P,
            certificates_agree=certs,
            E_dim=estep.E_prev.dim, P_dim=pstep.P.dim, D_dim=estep.D.dim,
            sum_dim=union.dim))
    return DualityReport(checks=checks, ok=True)


def analyze(sys: DiscreteSystem, chart: AdaptedChart | None = None,
            max_iterations: int | None = None,
            test: str = "both") -> FlatnessVerdict:
    """Run the selected test, "distribution", "codistribution" or "both",
    on one shared adapted chart and assemble the verdict.  When both run
    and converge, their answers must agree and the duality verifier
    checks their sequences against each other."""
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

    tests_agree = None
    duality = None
    if test == "both" and dres.converged and pres.converged:
        tests_agree = (dres.flat == pres.flat and dres.kbar == pres.kbar)
        if not tests_agree:
            raise DualityViolation(
                f"the two tests disagree: flat={dres.flat}/{pres.flat}, "
                f"kbar={dres.kbar}/{pres.kbar}", k=0, check="agreement")
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
        duality_ok=(duality.ok if duality is not None else None),
        distribution=dres, codistribution=pres,
        duality=duality, tests_agree=tests_agree)

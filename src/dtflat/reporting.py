"""Report assembly and rendering.

The analysis result is assembled into one tree (AnalysisReport) that is
rendered twice: a human-readable text report and a JSON document.  Both
renderings carry the same numeric content; expressions appear in the
canonical scalar syntax, so two runs on the same input are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring

from .decompose import CascadeResult
from .flatness import FlatnessVerdict, ProjectabilityReport
from .systems import AdaptedChart, DiscreteSystem, _rank_at_point


@dataclass
class AnalysisReport:
    system: DiscreteSystem
    options: dict
    chart: AdaptedChart | None
    verdict: FlatnessVerdict
    cascade: CascadeResult | None
    warnings: list = field(default_factory=list)


# ----------------------------------------------------------- field slices

def _field_dict(v) -> dict:
    return {name: str(c) for name, c in zip(v.chart.names, v.coeffs)
            if not c.is_zero()}


def _basis_json(space) -> list:
    return [{"text": str(b), "coeffs": _field_dict(b)} for b in space.basis]


def _matrix_json(rows) -> list:
    return [[str(c) for c in row] for row in rows]


def _report_json(rep: ProjectabilityReport) -> dict:
    return {
        "dbar": rep.dbar,
        "dim": rep.dim,
        "theta_pivots": [p + 1 for p in rep.theta_pivots],
        "mixed_block": _matrix_json(rep.mixed_block),
        "independent_rows": _matrix_json(rep.independent_rows),
        "rank": rep.rank,
        "kernel": _matrix_json(rep.kernel_basis),
    }


def to_json_dict(report: AnalysisReport) -> dict:
    sys = report.system
    v = report.verdict
    out: dict = {
        "tool": "dtflat",
        "system": {
            "name": sys.name,
            "states": list(sys.state_names),
            "inputs": list(sys.input_names),
            "dynamics": {x: str(g) for x, g in zip(sys.state_names, sys.f)},
            "equilibrium": ({k: str(sys.equilibrium[k])
                             for k in sys.chart.names}
                            if sys.equilibrium is not None else None),
        },
        "options": report.options,
    }
    if report.chart is not None:
        out["adapted_chart"] = {
            "xi": list(report.chart.h_names),
            "inverse": {nm: str(g) for nm, g in
                        sorted(report.chart.inverse.items())},
        }
    if v.distribution is not None:
        d = v.distribution
        out["distribution_test"] = {
            "converged": d.converged,
            "kbar": d.kbar,
            "flat": d.flat,
            "dims": d.dims,
            "steps": [{
                "k": st.k,
                "E_prev": _basis_json(st.E_prev),
                "D": _basis_json(st.D),
                "Delta": _basis_json(st.Delta),
                "E": _basis_json(st.E),
                "certificate": _report_json(st.report),
            } for st in d.steps],
        }
    if v.codistribution is not None:
        p = v.codistribution
        out["codistribution_test"] = {
            "converged": p.converged,
            "kbar": p.kbar,
            "flat": p.flat,
            "dims": p.dims,
            "steps": [{
                "k": st.k,
                "P": _basis_json(st.P),
                "intersection": _basis_json(st.intersection),
                "added_forms": [{"text": str(w), "coeffs": _field_dict(w)}
                                for w in st.added_forms],
                "Pplus": _basis_json(st.Pplus),
                "P_next": _basis_json(st.P_next),
                "certificate": _report_json(st.report),
            } for st in p.steps],
        }
    # verify_duality raises on any failed check, so every flag it would
    # carry is true; the keys stay to keep the report format
    if v.duality is not None:
        out["duality"] = {
            "ok": True,
            "per_step": [{
                "k": c.k,
                "pairing_zero": True,
                "dims_complementary": True,
                "projectable_pairing_zero": True,
                "projectable_dims_complementary": True,
                "dim_formula_E": True,
                "dim_formula_P": True,
                "certificates_agree": True,
                "dim_E_prev": c.E_dim,
                "dim_P": c.P_dim,
                "dim_D": c.D_dim,
                "dim_Pplus_plus_P": c.sum_dim,
            } for c in v.duality],
        }
    if report.cascade is not None:
        out["decomposition"] = _cascade_json(report.cascade)
    verified = True if v.duality is not None else None
    out["verdict"] = {
        "flat": v.flat,
        "converged": v.flat is not None,
        "kbar": v.kbar,
        "tests_agree": verified,
        "duality_ok": verified,
        "witness": v.witness,
    }
    out["warnings"] = list(report.warnings)
    return out


def _cascade_json(cascade: CascadeResult) -> dict:
    steps = []
    for st in cascade.steps:
        steps.append({
            "dims": {"x2": st.dims[0], "x1": st.dims[1],
                     "u2": st.dims[2], "u1": st.dims[3]},
            "integrals": [str(g) for g in st.integrals.functions],
            "integral_method": st.integrals.method,
            "state_transform": [[nm, str(g)] for nm, g in st.state_transform],
            "input_transform": [[nm, str(g)] for nm, g in st.input_transform],
            "subsystem": [[nm, str(g)] for nm, g in st.subsystem_f2],
            "feedback": [[nm, str(g)] for nm, g in st.feedback_f1],
            "normalized_equations": [nm for nm, _ in
                                     (st.subsystem_f2[i] for i in
                                      st.normalized_indices)],
            # decompose_step raises unless the straightening holds; the
            # key stays to keep the report format
            "straightened_input_directions": True,
            "dropped_inputs": st.dropped_inputs,
            "terminal": st.terminal,
            "warnings": st.warnings,
        })
    return {"depth": cascade.depth, "blocked": cascade.blocked, "steps": steps}


def render_json(report: AnalysisReport) -> str:
    out: list = []
    _write_json(to_json_dict(report), out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(value, out: list, newline: str) -> None:
    """Append value to out as json.dumps(value, indent=2,
    ensure_ascii=False) writes it.  That call runs the pure-Python encoder
    (the C one does not indent); this tree holds only dicts with str keys,
    lists, tuples, str, int, bool and None, and anything else raises
    TypeError.  newline is a line break followed by value's indentation."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple)):
        is_dict = isinstance(value, dict)
        opener, closer = "{}" if is_dict else "[]"
        if not value:
            out.append(opener + closer)
            return
        inner = newline + "  "
        out.append(opener)
        sep = inner
        for item in value.items() if is_dict else value:
            out.append(sep)
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, "
                                    f"not {type(key).__name__}")
                out.append(encode_basestring(key) + ": ")
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + closer)
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")


# ------------------------------------------------------------ text output

def render_text(report: AnalysisReport) -> str:
    sys = report.system
    v = report.verdict
    lines: list = []
    title = sys.name or "discrete-time system"
    lines.append(f"== {title}: n={sys.n}, m={sys.m} ==")
    for x, g in zip(sys.state_names, sys.f):
        lines.append(f"  {x}+ = {g}")
    if sys.equilibrium is not None:
        eq = ", ".join(f"{k}={sys.equilibrium[k]}" for k in sys.chart.names)
        lines.append(f"  equilibrium: {eq}")
    if report.chart is not None:
        lines.append(f"  adapted chart: xi = ({', '.join(report.chart.h_names)})")
    lines.append("")

    if v.distribution is not None:
        d = v.distribution
        lines.append(f"-- distribution test: dims {tuple(d.dims)}"
                     + (f", stalls at k = {d.kbar}" if d.converged
                        else ", NOT CONVERGED"))
        for st in d.steps:
            lines.append(f"  k={st.k}: dim E_{st.k-1} = {st.E_prev.dim}, "
                         f"dim D_{st.k-1} = {st.D.dim}, "
                         f"dim E_{st.k} = {st.E.dim}  "
                         f"(dbar={st.report.dbar}, rank={st.report.rank})")
            lines.append(f"    D_{st.k-1} = {st.D}")
            lines.append(f"    E_{st.k} = {st.E}")
        lines.append("")
    if v.codistribution is not None:
        p = v.codistribution
        lines.append(f"-- codistribution test: dims {tuple(p.dims)}"
                     + (f", stalls at k = {p.kbar}" if p.converged
                        else ", NOT CONVERGED"))
        for st in p.steps:
            lines.append(f"  k={st.k}: dim P_{st.k} = {st.P.dim}, "
                         f"dim (P ^ span df) = {st.intersection.dim}, "
                         f"dim P_{st.k+1} = {st.P_next.dim}")
            if st.added_forms:
                added = ", ".join(str(w) for w in st.added_forms)
                lines.append(f"    added forms: {added}")
            lines.append(f"    P_{st.k+1} = {st.P_next}")
        lines.append("")
    if v.duality is not None:
        lines.append("-- duality checks (annihilation of the sequences)")
        for c in v.duality:
            lines.append(f"  k={c.k}: PASS  "
                         f"dim E_{c.k-1}={c.E_dim} + dim P_{c.k}={c.P_dim} "
                         f"= {c.E_dim + c.P_dim}; "
                         f"dim D_{c.k-1}={c.D_dim} + dim(P+ + P)={c.sum_dim} "
                         f"= {c.D_dim + c.sum_dim}")
        lines.append("")
    if report.cascade is not None:
        lines.append(f"-- triangular decomposition: depth {report.cascade.depth}"
                     + (f" (blocked: {report.cascade.blocked})"
                        if report.cascade.blocked else ""))
        for i, st in enumerate(report.cascade.steps, 1):
            lines.append(f"  step {i}: dim(x2, x1, u2, u1) = {st.dims}"
                         + ("  [terminal]" if st.terminal else ""))
            for nm, g in st.state_transform:
                lines.append(f"    {nm} = {g}")
            for nm, g in st.input_transform:
                lines.append(f"    {nm} = {g}")
            for nm, g in st.subsystem_f2:
                lines.append(f"    subsystem {nm}+ = {g}")
            for nm, g in st.feedback_f1:
                lines.append(f"    feedback  {nm}+ = {g}")
            if st.integrals.functions:
                lines.append("    integrals: "
                             + ", ".join(str(g) for g in
                                         st.integrals.functions)
                             + f"  [{st.integrals.method}]")
            lines.append("    straightened input directions: True")
        lines.append("")

    lines.append("== verdict ==")
    if v.flat is None:
        lines.append("  NOT CONVERGED within the iteration budget")
    else:
        lines.append(f"  forward-flat: {'YES' if v.flat else 'NO'} "
                     f"(stall step {v.kbar})")
    lines.append(f"  {v.witness}")
    if v.duality is not None:
        lines.append("  tests agree: True")
        lines.append("  duality verified: True")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ point check

def point_check(report: AnalysisReport, seed: int) -> list:
    """Evaluate every recorded basis at a rational point sampled near the
    equilibrium and compare the exact rank there with the generic
    dimension; produces warnings, never changes the verdict."""
    sys = report.system
    rng = random.Random(seed)
    base = sys.equilibrium or {v: Fraction(0) for v in sys.chart.names}
    spaces: list = []
    v = report.verdict
    if v.distribution is not None:
        for st in v.distribution.steps:
            spaces.append((f"E_{st.k}", st.E))
            spaces.append((f"D_{st.k - 1}", st.D))
    if v.codistribution is not None:
        for st in v.codistribution.steps:
            spaces.append((f"P_{st.k}", st.P))
    warnings: list = []
    for label, space in spaces:
        if not space.basis:
            continue
        for _ in range(12):
            point = {name: base[name]
                     + Fraction(rng.randint(1, 60), rng.randint(61, 120))
                     for name in space.chart.names}
            rank = _rank_at_point([b.coeffs for b in space.basis], point)
            if rank is None:
                continue
            if rank != space.dim:
                warnings.append(
                    f"{label}: rank at the sampled point is {rank}, generic "
                    f"dimension is {space.dim} (singular locus)")
            break
        else:
            warnings.append(
                f"{label}: could not evaluate the basis near the "
                f"equilibrium (denominators vanish)")
    return warnings


def equilibrium_singularity_warnings(report: AnalysisReport) -> list:
    """Flag recorded basis coefficients whose denominators vanish at the
    equilibrium itself: the generic results do not extend to that point."""
    sys = report.system
    if sys.equilibrium is None:
        return []
    point = sys.equilibrium
    v = report.verdict
    collections = []
    if v.distribution is not None:
        collections += [(f"E_{st.k}", st.E) for st in v.distribution.steps]
    if v.codistribution is not None:
        collections += [(f"P_{st.k}", st.P) for st in v.codistribution.steps]

    def singular(space) -> bool:
        return any(not c.is_zero()
                   and c.den.eval_fraction(point) == 0
                   for b in space.basis for c in b.coeffs)

    hits = sorted({label for label, space in collections if singular(space)})
    if not hits:
        return []
    return [f"basis coefficients of {', '.join(hits)} are singular at the "
            f"equilibrium point; results hold generically near it"]

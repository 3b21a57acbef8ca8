"""Reference computations the tests compare the package against."""

from dtflat.geometry import (
    Codistribution,
    OneForm,
    _require_same_chart,
    combine,
    nullspace,
)


def intersect(p: Codistribution, q: Codistribution) -> Codistribution:
    """Forms expressible with rational-function coefficients in both bases,
    found by solving the stacked linear system over the function field.
    The codistribution step does not use it: it takes P_k meet span{df}
    with geometry.meet_annihilator, and the meet with span{dth} with
    geometry.meet_coordinates; both are checked against this."""
    _require_same_chart(p, q)
    chart = p.chart
    if not p.basis or not q.basis:
        return Codistribution(chart, [])
    # Columns: coefficients a of p-basis and b of q-basis with
    # sum a_i p_i - sum b_j q_j = 0, one row per chart coordinate.
    rows = [[w.coeffs[c] for w in p.basis] + [-w.coeffs[c] for w in q.basis]
            for c in range(chart.dim)]
    p_rows = [w.coeffs for w in p.basis]
    forms = [OneForm(chart, combine(vec[:len(p_rows)], p_rows))
             for vec in nullspace(rows)]
    return Codistribution.span(chart, forms)

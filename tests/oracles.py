"""Reference computations the tests compare the package against."""

from dtflat.geometry import (
    Echelon,
    Span,
    _require_same_chart,
    combine,
)


def intersect(p: Span, q: Span) -> Span:
    """Elements expressible with rational-function coefficients in both
    bases of two spans of one kind, found by solving the stacked linear
    system over the function field.  The package does not use it: the
    codistribution step takes P_k meet span{df} with
    geometry.meet_annihilator, and the meet with span{dth} with
    geometry.meet_coordinates, and the distribution step takes D_{k-1}
    with geometry.meet_kernel; each is checked against this."""
    _require_same_chart(p, q)
    chart, kind = p.chart, type(p)
    if not p.basis or not q.basis:
        return kind(chart, [])
    # Columns: coefficients a of p-basis and b of q-basis with
    # sum a_i p_i - sum b_j q_j = 0, one row per chart coordinate.
    rows = [[w.coeffs[c] for w in p.basis] + [-w.coeffs[c] for w in q.basis]
            for c in range(chart.dim)]
    p_rows = [w.coeffs for w in p.basis]
    return kind.span(chart, [
        p.element(chart, combine(vec[:len(p_rows)], p_rows))
        for vec in Echelon(rows).kernel(len(rows[0]))])


def same_span_by_membership(a: Span, b: Span) -> bool:
    """Span equality by mutual membership, with no use of the canonical
    form: equal dimensions, and every basis row of b reduces to zero
    against a's basis.  geometry.same_span compares the canonical bases
    instead, and is checked against this."""
    _require_same_chart(a, b)
    if a.dim != b.dim:
        return False
    ech = Echelon(v.coeffs for v in a.basis)
    return all(ech.contains(v.coeffs) for v in b.basis)

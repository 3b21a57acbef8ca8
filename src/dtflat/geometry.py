"""Vector fields, differential forms, and exact linear algebra over the
rational function field on a single global chart.

Rank semantics are generic: a rank is computed over the field of rational
functions, i.e. off the measure-zero locus where pivots vanish.  Every rank
question goes through one incremental reduced echelon form (Echelon), whose
rows are the canonical basis of their span (two equal spans reduce to the
identical basis), so every derived basis is deterministic.  Every Span
holds that form, its reduced basis and pivots, so spans compare by their
bases and no basis is reduced twice.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ChartMismatch, InvalidVariables
from .exprs import (
    ONE,
    ZERO,
    Scalar,
    _primitive,
    dot,
    equals_dot,
    poly_divexact,
    poly_gcd,
)


@dataclass(frozen=True)
class Chart:
    """Ordered coordinate names; the order defines coefficient indexing."""

    names: tuple

    def __post_init__(self):
        repeated = sorted({n for n in self.names if self.names.count(n) > 1})
        if repeated:
            raise InvalidVariables(f"variables declared more than once: "
                                   f"{repeated}")

    @property
    def dim(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __str__(self) -> str:
        return "(" + ", ".join(self.names) + ")"


def _require_same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatch(f"charts differ: {a.chart} vs {b.chart}")


class Row:
    """Coordinate-indexed coefficients on one chart.  A subclass only sets
    the prefix that names the basis it is written in; rows of different
    kinds never compare equal."""

    __slots__ = ("chart", "coeffs")
    prefix: str

    def __init__(self, chart: Chart, coeffs: Sequence[Scalar]):
        if len(coeffs) != chart.dim:
            raise ValueError("coefficient count does not match chart dimension")
        self.chart = chart
        # Scalars are kept as they are; a loop finds any other value faster
        # than converting every entry
        self.coeffs = tuple(coeffs)
        for c in self.coeffs:
            if type(c) is not Scalar:
                self.coeffs = tuple(Scalar.of(c) for c in coeffs)
                break

    @classmethod
    def unit(cls, chart: Chart, name: str):
        i = chart.index(name)
        return cls(chart, [ONE if j == i else ZERO for j in range(chart.dim)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.chart == other.chart and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.prefix, self.chart, self.coeffs))

    def __str__(self) -> str:
        return _combo_str(self.chart, self.coeffs, self.prefix)

    __repr__ = __str__


class VectorField(Row):
    """Coefficients along the partial derivatives."""

    __slots__ = ()
    prefix = "d/d"


class OneForm(Row):
    """Coefficients along the coordinate differentials."""

    __slots__ = ()
    prefix = "d"


def _coeff_str(c: Scalar) -> str:
    if c.is_const():
        value = c.const_value()
        if value == 1:
            return ""
        if value == -1:
            return "-"
    s = str(c)
    if " " in s or "/" in s or s.startswith("-"):
        s = f"({s})"
    return s + "*"


def _combo_str(chart: Chart, coeffs, prefix: str) -> str:
    parts = []
    for name, c in zip(chart.names, coeffs):
        if c.is_zero():
            continue
        parts.append(f"{_coeff_str(c)}{prefix}{name}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------- exact linear algebra

class Echelon:
    """Reduced row echelon form of a span, grown one row at a time.

    Each of rows leads with 1 in its column of pivots, the other rows are
    zero in that column, and the pivots ascend.  That form of a span is
    canonical, so the rows and pivots do not depend on the order in which
    the rows came in.  On rows that are already reduced nothing is
    computed, only tested for zero.

    A row is reduced column by column.  Because the rows are reduced, the
    components of a row along them are its own entries at their pivots:
    the reduced row is zero at every pivot, and at any other column j it
    is row[j] minus the sum of row[p] * E[j] over the rows E with pivot p.
    That sum is one exprs.dot, and membership asks only whether it equals
    row[j] (exprs.equals_dot), which builds no Scalar."""

    __slots__ = ("rows", "pivots")

    def __init__(self, rows: Iterable[Sequence[Scalar]] = ()):
        self.rows: list = []
        self.pivots: list = []
        for row in rows:
            self.add(row)

    def _along(self, row: Sequence[Scalar]) -> list:
        """(f, E) for each pivot row E whose pivot entry f of row is not
        zero: row's components along the pivot rows."""
        return [(row[p], r) for r, p in zip(self.rows, self.pivots)
                if not row[p].is_zero()]

    def _reduce(self, row: Sequence[Scalar]) -> list:
        """row minus its components along the pivot rows."""
        out = list(row)
        along = self._along(row)
        if along:
            for j, c in enumerate(row):
                if j in self.pivots:
                    out[j] = ZERO
                else:
                    pairs = _column(along, j)
                    if pairs:
                        out[j] = c - dot(pairs)
        return out

    def add(self, row: Sequence[Scalar]) -> bool:
        """Take row into the span; False when it lies there already."""
        row = self._reduce(row)
        lead = next((j for j, c in enumerate(row) if not c.is_zero()), None)
        if lead is None:
            return False
        pivot = row[lead]
        if not (pivot.is_const() and pivot.const_value() == 1):
            row = _normalize(row, pivot)
        for i, other in enumerate(self.rows):
            if not other[lead].is_zero():
                self.rows[i] = _eliminate(other, other[lead], row)
        at = bisect.bisect(self.pivots, lead)
        self.rows.insert(at, row)
        self.pivots.insert(at, lead)
        return True

    def contains(self, row: Sequence[Scalar]) -> bool:
        along = self._along(row)
        if not along:
            return all(c.is_zero() for c in row)
        return all(j in self.pivots or equals_dot(c, _column(along, j))
                   for j, c in enumerate(row))

    def kernel(self, ncols: int) -> list:
        """Basis of the right kernel, one vector per free column, ordered
        by free column index."""
        basis = []
        for fc in range(ncols):
            if fc in self.pivots:
                continue
            vec = [ZERO] * ncols
            vec[fc] = ONE
            for row, pcol in zip(self.rows, self.pivots):
                vec[pcol] = -row[fc]
            basis.append(vec)
        return basis


def _column(along: list, j: int) -> list:
    """The pairs (f, E[j]) for the (f, E) of along with E[j] not zero: at
    a column j that is not a pivot, the reduced row is row[j] - dot(pairs)."""
    return [(f, r[j]) for f, r in along if not r[j].is_zero()]


def _eliminate(row: list, factor: Scalar, pivot_row: list) -> list:
    return [a if b.is_zero() else a - factor * b
            for a, b in zip(row, pivot_row)]


def _normalize(row: list, pivot: Scalar) -> list:
    return [c if c.is_zero() else c / pivot for c in row]


def rref(rows: Iterable[Sequence[Scalar]]) -> tuple:
    """Reduced row echelon form over the rational function field.

    Returns (reduced_rows, pivot_columns), the canonical basis of the row
    span; zero rows are dropped."""
    ech = Echelon(rows)
    return ech.rows, ech.pivots


def combine(coeffs: Sequence[Scalar], rows: Sequence[Sequence[Scalar]]) -> list:
    """The combination sum_i coeffs[i] * rows[i] of equally long rows."""
    out = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c.is_zero():
            continue
        for a, r in enumerate(row):
            if not r.is_zero():
                out[a] = out[a] + c * r
    return out


def generic_rank(rows: Iterable[Sequence[Scalar]]) -> int:
    """Rank over the field of rational functions."""
    return len(rref(rows)[0])


# ---------------------------------------------------------- span carriers

class Span:
    """Span of rows, held in its one canonical form: basis is the reduced
    row echelon basis of the span and pivots its ascending leading
    columns.  Over the rational function field that form is unique, and
    Scalars are canonical, so two spans on one chart are equal exactly
    when their bases are, and no caller reduces a basis again.  A
    subclass names its row class (element) and the span class of its
    annihilator (dual)."""

    __slots__ = ("chart", "basis", "pivots")
    element: type
    dual: type

    def __init__(self, chart: Chart, basis: Sequence[Row]):
        """The span of a generically independent basis (ValueError when
        it is dependent), which is kept in its reduced form."""
        basis = list(basis)
        kind = self.element.__name__
        for v in basis:
            if v.chart != chart:
                raise ChartMismatch(f"basis {kind} on a different chart")
        rows, pivots = rref([v.coeffs for v in basis])
        if len(rows) != len(basis):
            raise ValueError(f"basis {kind}s are generically dependent")
        self._hold(chart, rows, pivots)

    def _hold(self, chart: Chart, rows, pivots) -> None:
        self.chart = chart
        self.basis = tuple(self.element(chart, r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def span(cls, chart: Chart, rows: Sequence[Row]):
        """The span of an arbitrary generating set."""
        out = object.__new__(cls)
        out._hold(chart, *rref([v.coeffs for v in rows]))
        return out

    @classmethod
    def reduced(cls, chart: Chart, rows: Sequence[Sequence[Scalar]]):
        """The span whose basis is these coefficient rows, which the caller
        guarantees to be in reduced row echelon form; they are taken as
        they are, and the pivots are their leading columns."""
        out = object.__new__(cls)
        out._hold(chart, rows, [
            next(j for j, c in enumerate(r) if not c.is_zero())
            for r in rows])
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)

    def echelon(self) -> Echelon:
        """A fresh Echelon holding the basis rows and pivots, which the
        caller may grow; nothing is reduced."""
        ech = Echelon()
        ech.rows = [list(v.coeffs) for v in self.basis]
        ech.pivots = list(self.pivots)
        return ech

    def contains(self, v: Row) -> bool:
        _require_same_chart(self, v)
        return self.echelon().contains(v.coeffs)

    def __str__(self) -> str:
        return "span{" + ", ".join(str(v) for v in self.basis) + "}"

    __repr__ = __str__


class Distribution(Span):
    """Span of vector fields."""

    __slots__ = ()
    element = VectorField


class Codistribution(Span):
    """Span of 1-forms."""

    __slots__ = ()
    element = OneForm
    dual = Distribution


Distribution.dual = Codistribution


def same_span(a, b) -> bool:
    """Span equality: the comparison contract for all golden values.  Both
    bases are the canonical reduced ones, so they are equal exactly when
    the spans are."""
    _require_same_chart(a, b)
    return a.basis == b.basis


# ------------------------------------- Lie calculus of fields and 1-forms

# Most coefficients in the Lie calculus are zeros and constants.  The
# functions below differentiate only coefficients that are not constant
# and form a product or a sum only for nonzero terms; the skipped terms
# are zero, and sums are canonical, so every result is the value the
# full formula gives.

def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]^i = sum_j (v^j d_j w^i - w^j d_j v^i)."""
    _require_same_chart(v, w)
    names, vc, wc = v.chart.names, v.coeffs, w.coeffs
    v_zero = [c.is_zero() for c in vc]
    w_zero = [c.is_zero() for c in wc]
    out = []
    for i in range(len(names)):
        total = ZERO
        dw, dv = not wc[i].is_const(), not vc[i].is_const()
        if dw or dv:
            for j, nj in enumerate(names):
                if dw and not v_zero[j]:
                    d = wc[i].diff(nj)
                    if not d.is_zero():
                        total = total + vc[j] * d
                if dv and not w_zero[j]:
                    d = vc[i].diff(nj)
                    if not d.is_zero():
                        total = total - wc[j] * d
        out.append(total)
    return VectorField(v.chart, out)


def d_scalar(chart: Chart, g: Scalar) -> OneForm:
    """Differential of a function: the 1-form of its partials."""
    if g.is_const():
        return OneForm(chart, [ZERO] * chart.dim)
    return OneForm(chart, [g.diff(n) for n in chart.names])


def interior_product(v: VectorField, w: OneForm) -> Scalar:
    """v contracted with a 1-form: sum_i v^i w_i."""
    _require_same_chart(v, w)
    total = ZERO
    for a, b in zip(v.coeffs, w.coeffs):
        if not (a.is_zero() or b.is_zero()):
            total = total + a * b
    return total


def lie_derivative(v: VectorField, w: OneForm) -> OneForm:
    """Cartan formula in coordinates, L_v w = v . dw + d(v . w):
    (L_v w)_j = sum_i v^i (d_i w_j - d_j w_i) + d_j(v . w).  Each component
    d_i w_j - d_j w_i (i < j) is formed once, and only when v^i or v^j is
    nonzero and w_i or w_j is not constant."""
    _require_same_chart(v, w)
    names, vc, wc = w.chart.names, v.coeffs, w.coeffs
    n = len(names)
    v_zero = [c.is_zero() for c in vc]
    w_const = [c.is_const() for c in wc]
    out = [ZERO] * n
    for i in range(n):
        for j in range(i + 1, n):
            if v_zero[i] and v_zero[j] or w_const[i] and w_const[j]:
                continue
            a, b = _cross_partials(wc, w_const, names, i, j)
            c = a if b.is_zero() else a - b
            if c.is_zero():
                continue
            if not v_zero[i]:
                out[j] = out[j] + vc[i] * c
            if not v_zero[j]:
                out[i] = out[i] - vc[j] * c
    vw = interior_product(v, w)
    if not vw.is_const():
        for j, name in enumerate(names):
            d = vw.diff(name)
            if not d.is_zero():
                out[j] = out[j] + d
    return OneForm(w.chart, out)


def _cross_partials(c: Sequence[Scalar], const: Sequence[bool],
                    names: Sequence[str], i: int, j: int) -> tuple:
    """(d_i c_j, d_j c_i), differentiating only entries not constant."""
    return (ZERO if const[j] else c[j].diff(names[i]),
            ZERO if const[i] else c[i].diff(names[j]))


def is_closed(w: OneForm) -> bool:
    """dw = 0: d_i w_j == d_j w_i for every pair i < j."""
    names, c = w.chart.names, w.coeffs
    const = [x.is_const() for x in c]
    return all(a == b for a, b in (
        _cross_partials(c, const, names, i, j)
        for i in range(len(names)) for j in range(i + 1, len(names))
        if not (const[i] and const[j])))


# ------------------------------------------------------------ annihilators

def annihilator(space: Span) -> Span:
    """Annihilator of a distribution (a codistribution) or of a
    codistribution (a distribution); kernel of the coefficient matrix."""
    chart = space.chart
    dual = space.dual
    kernel = space.echelon().kernel(chart.dim)
    return dual.span(chart, [dual.element(chart, k) for k in kernel])


# Meets of a span p with a second span.  An element sum a_i p_i of p lies
# in the second span exactly when a solves a linear system with one column
# per basis row of p, so only that system is solved, not the stacked
# system of both bases with n + m rows and dim p + dim q columns.

def meet_kernel(p: Span, conditions: Iterable[Sequence[Scalar]]) -> Span:
    """The elements sum a_i p_i of p, a span of either kind, with a in the
    kernel of the condition rows (one entry per basis row of p), as the
    canonical reduced basis of their span; p itself when it is empty.
    Without conditions that is p's reduced basis.  The codistribution step
    meets P_k with span{df} this way (meet_coordinates, meet_annihilator),
    and the distribution step takes D_{k-1} as the fields of E_{k-1} that
    the rho-forms annihilate."""
    if not p.basis:
        return p
    chart = p.chart
    p_rows = [w.coeffs for w in p.basis]
    return type(p).span(chart, [
        p.element(chart, combine(a, p_rows))
        for a in Echelon(conditions).kernel(len(p_rows))])


def meet_coordinates(p: Codistribution, columns: Sequence[int]) -> Codistribution:
    """The forms of p whose coefficients vanish outside columns: p meet the
    span of those coordinate differentials.  The conditions are the other
    columns of p's basis.  The codistribution step uses it on the adapted
    chart, where span{df} is span{dth}; on (x, u) it uses
    meet_annihilator."""
    keep = set(columns)
    return meet_kernel(p, ([w.coeffs[c] for w in p.basis]
                           for c in range(p.chart.dim) if c not in keep))


def meet_annihilator(p: Codistribution, d: Distribution) -> Codistribution:
    """The forms of p that vanish on every field of d: p meet ann(d).  The
    conditions are the pairings [v . p_i], one row per field v of d.  The
    codistribution step takes P_k meet span{df} this way, as the forms of
    P_k that annihilate ker df: over the function field ann(ann(S)) = S
    for every span S, so ann(ker df) = span{df}."""
    _require_same_chart(p, d)
    return meet_kernel(p, ([interior_product(v, w) for w in p.basis]
                           for v in d.basis))


def sum_codistributions(p: Codistribution, q: Codistribution) -> Codistribution:
    _require_same_chart(p, q)
    return Codistribution.span(p.chart, list(p.basis) + list(q.basis))


def _clear_denominators(row: Sequence[Scalar]) -> Sequence[Scalar]:
    """g * row, where g is the monic lcm of the denominators of row, so
    every entry is a polynomial; row itself when they are all constants.
    With each den k*P, P primitive, g is G/lc(G) for G the lcm of the P's,
    and c*g = c.num*(G/P) / (k*lc(G)).  The cofactor G/P is 1 for P = G
    and G for a constant P, so only a proper factor P is divided out; a
    zero entry stays as it is."""
    parts = [_primitive(c.den) for c in row]
    g = None
    for _, p in parts:
        if p.is_const() or p == g:
            continue
        g = p if g is None else g * poly_divexact(p, poly_gcd(g, p))
    if g is None:
        return row
    lc = g.leading()[1]

    def cleared(c: Scalar, k: int, p) -> Scalar:
        if c.is_zero():
            return c
        if p == g:
            return Scalar(c.num, k * lc)
        return Scalar(c.num * (g if p.is_const() else poly_divexact(g, p)),
                      k * lc)

    return [cleared(c, k, p) for c, (k, p) in zip(row, parts)]


def invariant_closure(p0: Codistribution, d: Distribution) -> Codistribution:
    """Smallest codistribution containing p0 and closed under Lie
    derivatives along every field of d.  Terminates because the rank can
    grow at most chart-dimension times.

    Each row w is differentiated as g*w, g the lcm of its denominators, so
    the Lie derivative works on polynomials.  That is exact: w lies in the
    span S already, and L_v(g*w) = v(g)*w + g*L_v(w), so L_v(g*w) is in S
    exactly when L_v(w) is, and both add the same span to S.  The loop
    therefore visits the same spans, takes as many Lie derivatives, and
    ends at the same canonical rows as with w itself.  Most derivatives lie
    in S already, so each is first tested for membership, a zero test that
    runs no gcd on polynomial rows (Echelon.contains), and only one outside
    S is reduced and added."""
    _require_same_chart(p0, d)
    chart = p0.chart
    ech = p0.echelon()
    while True:
        added = False
        for v in d.basis:
            for row in list(ech.rows):
                w = OneForm(chart, _clear_denominators(row))
                z = lie_derivative(v, w).coeffs
                if not ech.contains(z) and ech.add(z):
                    added = True
        if not added:
            return Codistribution.reduced(chart, ech.rows)


# ------------------------------------------------- involutivity, Frobenius

def is_involutive(d: Distribution, known: Distribution | None = None) -> bool:
    """Every Lie bracket of two fields of d lies in d.

    The brackets of a generating set decide that.  Fields of d are
    combinations sum_i a_i v_i of generators with rational coefficients,
    and by Leibniz [a v, b w] = a b [v, w] + a v(b) w - b w(a) v, where
    the last two terms lie in d already; so [X, Y] lies in d for all
    fields X, Y of d once it does for all pairs of generators.

    known, when given, is an involutive subdistribution of d (ValueError
    when it is not inside d).  Its basis together with the reduced rows of
    d at pivots that are not known's pivots generates d: the pivot
    columns of a span are the leading columns of its elements, so known's
    pivots are among d's, and rows with distinct leading columns are
    independent.  Brackets of two fields of known lie in known, so only
    the pairs with a new row are formed.  Without known every pair of
    reduced basis rows is."""
    ech = d.echelon()
    base, old = (), set()
    if known is not None:
        _require_same_chart(d, known)
        if not all(ech.contains(v.coeffs) for v in known.basis):
            raise ValueError("known is not a subdistribution of d")
        base, old = known.basis, set(known.pivots)
    new = [VectorField(d.chart, r)
           for r, p in zip(ech.rows, ech.pivots) if p not in old]
    pairs = itertools.chain(itertools.product(base, new),
                            itertools.combinations(new, 2))
    return all(ech.contains(lie_bracket(v, w).coeffs) for v, w in pairs)


def is_integrable(p: Codistribution) -> bool:
    """Frobenius condition: dw vanishes on the annihilator of p for every
    basis form w.  For b, a in the annihilator w(b) is identically zero, so
    L_b w = b . dw and its value on a is dw(b, a)."""
    if not p.basis:
        return True
    ann = annihilator(p).basis
    for w in p.basis:
        if is_closed(w):
            continue
        for i in range(len(ann) - 1):
            lw = lie_derivative(ann[i], w)
            if any(not interior_product(a, lw).is_zero() for a in ann[i + 1:]):
                return False
    return True

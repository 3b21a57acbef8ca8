"""Exact multivariate rational functions over the rationals.

A Scalar is a quotient num/den of sparse polynomials with integer
coefficients.  Every constructor reduces to a canonical form:

  * num and den are coprime in Z[x], integer contents included,
  * the leading coefficient of den under the fixed term order is positive,
  * no zero coefficients are stored.

Z[x] is a unique factorization domain, so this form is unique: two Scalars
are mathematically equal exactly when their term maps are identical, and
``==`` decides equality of rational functions.  The term order is graded
lexicographic over name-sorted variables.  The printed form divides num
and den by the leading coefficient of den, and is bit-stable across runs.

Values are immutable; all operations are pure functions.  No floating
point enters any computation: a constant is an int or a Fraction, and any
other value raises ValueError.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import (
    CoefficientVanishes,
    DivisionByZeroScalar,
    EvalSingular,
    NonRationalExpression,
    NotLinearInVariable,
    ParseError,
    SubstitutionSingular,
)

# A monomial is a tuple of (variable name, positive exponent) pairs sorted
# by name; the empty tuple is the constant monomial.
Mono = tuple  # tuple[tuple[str, int], ...]

_MONO_ONE: Mono = ()


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        na, ea = a[i]
        nb, eb = b[j]
        if na == nb:
            out.append((na, ea + eb))
            i += 1
            j += 1
        elif na < nb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_degree(a: Mono) -> int:
    return sum(e for _, e in a)


def _mono_cmp(a: Mono, b: Mono) -> int:
    """Graded lexicographic order: higher total degree wins; ties are
    broken on the name-sorted exponent vectors, where a larger exponent on
    the alphabetically earliest differing variable wins."""
    da, db = _mono_degree(a), _mono_degree(b)
    if da != db:
        return 1 if da > db else -1
    i = j = 0
    while i < len(a) or j < len(b):
        na = a[i][0] if i < len(a) else None
        nb = b[j][0] if j < len(b) else None
        if na == nb:
            ea, eb = a[i][1], b[j][1]
            if ea != eb:
                return 1 if ea > eb else -1
            i += 1
            j += 1
        elif nb is None or (na is not None and na < nb):
            return 1  # a has the earlier variable with positive exponent
        else:
            return -1
    return 0


def _mono_quotient(a: Mono, b: Mono) -> Mono | None:
    """a / b, or None when monomial b does not divide a."""
    if not b:
        return a
    out = []
    j = 0
    for n, e in a:
        if j < len(b):
            nb, eb = b[j]
            if nb < n:
                return None  # b has a variable that a lacks
            if nb == n:
                j += 1
                if e < eb:
                    return None
                if e > eb:
                    out.append((n, e - eb))
                continue
        out.append((n, e))
    return tuple(out) if j == len(b) else None


def _vars_of(terms) -> set:
    """The variables of a term map."""
    return {name for mono in terms for name, _ in mono}


def _leading(terms) -> Mono:
    """The largest monomial of a nonempty term map."""
    it = iter(terms)
    best = next(it)
    for mono in it:
        if _mono_cmp(mono, best) > 0:
            best = mono
    return best


class Poly:
    """Sparse multivariate polynomial over Z.

    Every coefficient is an int, never a Fraction, a float or a bool:
    ``const``, ``from_terms`` and ``scale`` take an int, a bool or an
    integral Fraction, and raise ValueError on any other value."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        # Internal constructor: assumes zero-free int values.  The term map
        # is never changed once a Poly holds it, so the hash is computed on
        # first use and kept.
        self.terms = terms

    @classmethod
    def from_terms(cls, items: Iterable) -> "Poly":
        terms: dict = {}
        for mono, coeff in items:
            c = terms.get(mono, 0) + _as_int(coeff)
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return cls(terms)

    @classmethod
    def const(cls, c) -> "Poly":
        c = _as_int(c)
        return cls({_MONO_ONE: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    # ----------------------------------------------------------- queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _MONO_ONE in self.terms)

    def const_value(self) -> int:
        if not self.terms:
            return 0
        return self.terms[_MONO_ONE]

    def vars(self) -> set:
        return _vars_of(self.terms)

    def degree_in(self, name: str) -> int:
        best = 0
        for mono in self.terms:
            for n, e in mono:
                if n == name and e > best:
                    best = e
        return best

    def leading(self) -> tuple:
        """(monomial, coefficient) of the largest term; requires nonzero."""
        best = _leading(self.terms)
        return best, self.terms[best]

    # -------------------------------------------------------- arithmetic

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) + c
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly({})
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = terms.get(m, 0) + ca * cb
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Poly(terms)

    def scale(self, c: int) -> "Poly":
        c = _as_int(c)
        if not c:
            return Poly({})
        return Poly({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self.terms.items()))
            return self._hash

    # ------------------------------------------------------ calculus etc

    def diff(self, name: str) -> "Poly":
        # lowering the exponent of name is one to one on the monomials
        # that hold it, so no two terms meet and none cancels
        terms: dict = {}
        for mono, c in self.terms.items():
            for idx, (n, e) in enumerate(mono):
                if n != name:
                    continue
                if e == 1:
                    new = mono[:idx] + mono[idx + 1:]
                else:
                    new = mono[:idx] + ((n, e - 1),) + mono[idx + 1:]
                terms[new] = c * e
                break
        return Poly(terms)

    def rename(self, mapping: Mapping[str, str]) -> "Poly":
        terms: dict = {}
        for mono, c in self.terms.items():
            new = tuple(sorted((mapping.get(n, n), e) for n, e in mono))
            if len({n for n, _ in new}) != len(new):
                raise ValueError("rename collides variable names")
            terms[new] = c
        return Poly(terms)

    def eval_fraction(self, point: Mapping[str, Fraction]) -> int | Fraction:
        """The value at a rational point, in integers until one division:
        with x_v = a_v/b_v and d_v = deg_v p, p * prod_v b_v^d_v is the
        sum over terms c * prod_v a_v^e_v * b_v^(d_v - e_v)."""
        degs: dict = {}
        for mono in self.terms:
            for n, e in mono:
                if e > degs.get(n, 0):
                    degs[n] = e
        powers = {}
        scale = 1
        for n, d in degs.items():
            a, b = point[n].numerator, point[n].denominator
            powers[n] = [a ** e * b ** (d - e) for e in range(d + 1)]
            scale *= b ** d
        total = 0
        for mono, c in self.terms.items():
            exps = dict(mono)
            for n, row in powers.items():
                c *= row[exps.get(n, 0)]
            total += c
        return total if scale == 1 else Fraction(total, scale)

    # --------------------------------------------------------- printing

    def __str__(self) -> str:
        return _terms_str(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self})"


_P0 = Poly({})
_P1 = Poly({_MONO_ONE: 1})


def _rational(v):
    """v when it is an int (a bool included) or a Fraction; ValueError
    naming its type otherwise."""
    if not isinstance(v, (int, Fraction)):
        raise ValueError(f"{v!r} is a {type(v).__name__}, not an int or "
                         f"a Fraction")
    return v


def _as_int(c) -> int:
    """c as an int coefficient; ValueError unless c is an integer.  A bool
    becomes 0 or 1."""
    if type(c) is int:
        return c
    if _rational(c).denominator != 1:
        raise ValueError(f"polynomial coefficient {c!r} is not an integer")
    return c.numerator


def _terms_str(terms: dict, d: int = 1) -> str:
    """The polynomial of the term map divided by the positive int d, in
    decreasing term order."""
    if not terms:
        return "0"
    monos = sorted(terms, key=functools.cmp_to_key(_mono_cmp), reverse=True)
    parts = []
    for i, mono in enumerate(monos):
        c = terms[mono] if d == 1 else Fraction(terms[mono], d)
        neg = c < 0
        mag = -c if neg else c
        if mono == _MONO_ONE:
            body = str(mag)
        elif mag == 1:
            body = _mono_str(mono)
        else:
            body = f"{mag}*{_mono_str(mono)}"
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def _mono_str(mono: Mono) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)


# ------------------------------------------------------------------ gcd
#
# poly_gcd drives everything: canonical Scalars reduce num/den by it on
# every construction where neither is a constant (a gcd with a constant
# is 1, and _gcd answers it without a call).  The fast path is the
# evaluation-homomorphism heuristic GCDHEU (Char, Geddes and Gonnet, J.
# Symbolic Comput. 1989): map one variable to a large integer, recurse,
# reconstruct the candidate from balanced digits, verify by exact trial
# division, retry with a larger point on failure.  GCDHEU is defined over
# Z[x], so it runs on the term maps as they are.  Acceptance is by exact
# division, so a wrong candidate is never returned; if the heuristic gives
# up, a primitive pseudo-remainder sequence takes over, with its content
# computations routed back through the fast path.

def _as_uni(p: Poly, x: str) -> dict:
    """View p as a univariate polynomial in x: degree -> Poly coefficient."""
    out: dict = {}
    for mono, c in p.terms.items():
        deg = 0
        rest = mono
        for idx, (n, e) in enumerate(mono):
            if n == x:
                deg = e
                rest = mono[:idx] + mono[idx + 1:]
                break
        # distinct monomials of p stay distinct once x is removed
        out.setdefault(deg, {})[rest] = c
    return {d: Poly(t) for d, t in out.items()}


def _from_uni(u: dict, x: str) -> Poly:
    total = _P0
    for deg, coeff in u.items():
        xm = Poly({((x, deg),): 1}) if deg else _P1
        total = total + coeff * xm
    return total


def _uni_prem(f: dict, g: dict, x: str) -> dict:
    """Pseudo-remainder of univariate views f, g (g nonzero, deg g >= 1)."""
    dg = max(g)
    lg = g[dg]
    r = dict(f)
    while r:
        dr = max(r)
        if dr < dg:
            break
        lr = r[dr]
        # r <- lg*r - lr*g*x^(dr-dg)
        new: dict = {}
        for d, c in r.items():
            new[d] = c * lg
        for d, c in g.items():
            dd = d + dr - dg
            v = new.get(dd, _P0) - lr * c
            if v.is_zero():
                new.pop(dd, None)
            else:
                new[dd] = v
        r = {d: c for d, c in new.items() if not c.is_zero()}
    return r


def _primitive(p: Poly) -> tuple:
    """(content, primitive part) of a nonzero p: the content is the gcd of
    the coefficients, signed like the leading one, so the primitive part
    has a positive leading coefficient."""
    c = math.gcd(*p.terms.values())
    if p.terms[_leading(p.terms)] < 0:
        c = -c
    return c, _rescaled(p, 1, c)


def _rescaled(p: Poly, a: int, b: int) -> Poly:
    """p * a / b, where b divides a times every coefficient of p."""
    if a == b:
        return p
    return Poly({m: v * a // b for m, v in p.terms.items()})


def _content(p: Poly, x: str) -> Poly:
    """The gcd of p's coefficients as a polynomial in x, primitive with a
    positive lead."""
    coeffs = list(_as_uni(p, x).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_const() or c.is_const():
            return _P1
        g = poly_gcd(g, c)
    return _primitive(g)[1]


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b in Z[x]; raises if b does not divide a there.
    A primitive b that divides a over Q divides it in Z[x] (Gauss's
    lemma)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return _P0
    q = _divide(a.terms, b.terms)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return Poly(q)


def _divide(a: dict, b: dict) -> dict | None:
    """Quotient term map of a / b in Z[x] (both nonzero), or None when b
    does not divide a there.  A division of coefficients that leaves a
    remainder answers None at once.

    Three shapes are answered in one pass over the terms, with no heap.
    A single term c*m divides a exactly when it divides each term of a,
    coefficient and monomial.  a == b gives 1.  Otherwise, for operands
    of the same length, the quotient of the leading terms q is the answer
    when q*t is a term of a for every term t of b (a == -b included): the
    len(b) distinct terms of q*b are then all of a.  When that check
    fails, a quotient of more terms may still keep the length, as for
    (x^2 - 1)/(x - 1), and the general loop decides."""
    if len(b) == 1:
        (mb, cb), = b.items()
        q_terms: dict = {}
        for m, c in a.items():
            qm = _mono_quotient(m, mb)
            qc, rem = divmod(c, cb)
            if qm is None or rem:
                return None
            q_terms[qm] = qc
        return q_terms
    if len(a) == len(b):
        if a == b:
            return {_MONO_ONE: 1}
        la, lb = _leading(a), _leading(b)
        qm = _mono_quotient(la, lb)
        qc, rem = divmod(a[la], b[lb])
        if qm is None or rem:
            return None  # the loop's first step would fail the same way
        if all(a.get(_mono_mul(qm, m)) == qc * c for m, c in b.items()):
            return {qm: qc}
    # The remainder's leading term comes from a heap keyed on
    # (-total degree, -exponent vector over the name-sorted variables):
    # the smallest key is the largest monomial under _mono_cmp.  A monomial
    # that cancels keeps a stale heap entry, skipped when popped.
    index = {n: i for i, n in enumerate(sorted(_vars_of(a) | _vars_of(b)),
                                        start=1)}

    def key(mono: Mono) -> tuple:
        vec = [0] * (len(index) + 1)
        for n, e in mono:
            vec[0] -= e
            vec[index[n]] = -e
        return tuple(vec)

    lb_mono = _leading(b)
    lb_coeff = b[lb_mono]
    tail = [(m, c) for m, c in b.items() if m != lb_mono]
    r = dict(a)
    heap = [(key(m), m) for m in r]
    heapq.heapify(heap)
    q_terms: dict = {}
    while heap:
        lr_mono = heapq.heappop(heap)[1]
        lr_coeff = r.pop(lr_mono, None)
        if lr_coeff is None:
            continue
        qm = _mono_quotient(lr_mono, lb_mono)
        qc, rem = divmod(lr_coeff, lb_coeff)
        if qm is None or rem:
            return None
        q_terms[qm] = qc
        for mb, cb in tail:
            m = _mono_mul(qm, mb)
            c = r.get(m)
            if c is None:
                r[m] = -qc * cb
                heapq.heappush(heap, (key(m), m))
            else:
                c -= qc * cb
                if c:
                    r[m] = c
                else:
                    del r[m]
    return q_terms


def _is_int_const(t: dict) -> bool:
    return len(t) == 1 and _MONO_ONE in t


def _int_split(t: dict) -> tuple:
    """Split a nonzero integer term map into (positive content, primitive
    part)."""
    g = math.gcd(*t.values())
    if g == 1:
        return 1, t
    return g, {m: c // g for m, c in t.items()}


def _int_norm(t: dict) -> int:
    return max(abs(c) for c in t.values())


def _eval_var_int(t: dict, x: str, xi: int) -> dict:
    """Substitute x := xi (a large integer) exactly."""
    terms: dict = {}
    for mono, c in t.items():
        deg = 0
        rest = mono
        for idx, (n, e) in enumerate(mono):
            if n == x:
                deg = e
                rest = mono[:idx] + mono[idx + 1:]
                break
        v = terms.get(rest, 0) + c * xi ** deg
        if v:
            terms[rest] = v
        else:
            terms.pop(rest, None)
    return terms


def _interp_digits(gamma: dict, x: str, xi: int) -> dict | None:
    """Reconstruct a candidate polynomial in x from the base-xi balanced
    digits of gamma's coefficients."""
    terms: dict = {}
    cur = gamma
    half = xi // 2
    for power in range(0, 2000):
        if not cur:
            return terms
        nxt: dict = {}
        for mono, c in cur.items():
            r = c % xi
            if r > half:
                r -= xi
            if r:
                terms[_mono_mul(mono, ((x, power),)) if power else mono] = r
            q = (c - r) // xi
            if q:
                nxt[mono] = q
        cur = nxt
    return None


def _heu_gcd(a: dict, b: dict) -> dict | None:
    """Heuristic gcd of integer term maps; a verified exact primitive
    divisor or None.

    A candidate is accepted when it divides both inputs exactly in Z[x].
    That is the same test as division over Q: the candidate is primitive,
    so by Gauss's lemma a quotient over Q of an integer polynomial by it
    has integer coefficients.  Every quotient coefficient is then an
    integer, and a leading-coefficient division that leaves a remainder
    already proves that the candidate is not a divisor.  A constant
    candidate divides everything and is accepted without a division."""
    common = sorted(_vars_of(a) & _vars_of(b))
    if not common:
        return _P1.terms
    x = common[-1]
    xi = 2 * min(_int_norm(a), _int_norm(b)) + 29
    for _ in range(6):
        A = _eval_var_int(a, x, xi)
        B = _eval_var_int(b, x, xi)
        if A and B:
            ca, pa = _int_split(A)
            cb, pb = _int_split(B)
            if _is_int_const(pa) or _is_int_const(pb):
                sub = _P1.terms
            else:
                sub = _heu_gcd(pa, pb)
            if sub is not None:
                g = math.gcd(ca, cb)
                cand = _interp_digits({m: c * g for m, c in sub.items()},
                                      x, xi)
                if cand:
                    _, cand = _int_split(cand)
                    if _is_int_const(cand) or (
                            _divide(a, cand) is not None
                            and _divide(b, cand) is not None):
                        return cand
        xi = 2 * xi + 29
    return None


def _gcd_inner(a: Poly, b: Poly) -> Poly:
    """gcd up to a unit; inputs nonzero."""
    if a.is_const() or b.is_const():
        return _P1
    if a == b or a == -b:
        return a
    if len(a.terms) == 1 or len(b.terms) == 1:
        # gcd with a monomial: componentwise minimum exponents over every
        # term of both polynomials
        common = None
        for p in (a, b):
            for mono in p.terms:
                exps = dict(mono)
                if common is None:
                    common = exps
                else:
                    common = {n: min(e, exps.get(n, 0))
                              for n, e in common.items() if exps.get(n, 0)}
        mono = tuple(sorted((n, e) for n, e in (common or {}).items() if e))
        return Poly({mono: 1})
    if not (a.vars() & b.vars()):
        return _P1
    got = _heu_gcd(a.terms, b.terms)
    if got is not None:
        return Poly(got)
    return _prs_gcd(a, b)


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive pseudo-remainder sequence; contents go through the fast
    path again."""
    va, vb = a.vars(), b.vars()
    x = max(va | vb)
    if x not in va:
        return _gcd_inner(a, _content(b, x))
    if x not in vb:
        return _gcd_inner(_content(a, x), b)
    ca = _content(a, x)
    cb = _content(b, x)
    pa = poly_divexact(a, ca)
    pb = poly_divexact(b, cb)
    c = _gcd(ca, cb)
    f, g = _as_uni(pa, x), _as_uni(pb, x)
    if max(f) < max(g):
        f, g = g, f
    while g:
        if max(g) == 0:
            return c
        r = _uni_prem(f, g, x)
        if r:
            rp = _from_uni(r, x)
            cont = _content(rp, x)  # primitive, so a constant content is 1
            if not cont.is_const():
                rp = poly_divexact(rp, cont)
            f, g = g, _as_uni(rp, x)
        else:
            f, g = g, r
    # f is pa, pb or a remainder divided by its content: primitive in x
    return c * _from_uni(f, x)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """gcd of two polynomials in Z[x], primitive with a positive leading
    coefficient (zero if both are zero).  Integer contents are left out:
    over Q the gcd is this one up to a nonzero constant."""
    if a.is_zero():
        a, b = b, a
    if a.is_zero():
        return a
    return _primitive(a if b.is_zero() else _gcd_inner(a, b))[1]


def _gcd(a: Poly, b: Poly) -> Poly:
    """poly_gcd of nonzero a and b, which is 1 at once when either is a
    constant: so every call of poly_gcd in the kernel is gcd work.  (A
    constant gcd is 1.)"""
    if a.is_const() or b.is_const():
        return _P1
    return poly_gcd(a, b)


# --------------------------------------------------------------- Scalar

class Scalar:
    """Canonical rational function num/den (see the module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P1):
        """num/den of Polys, ints or Fractions."""
        if not (isinstance(num, Poly) and isinstance(den, Poly)):
            (num, q), (den, r) = _over_int(num), _over_int(den)
            num, den = _rescaled(num, r, 1), _rescaled(den, q, 1)
        if den.is_zero():
            raise DivisionByZeroScalar("denominator is the zero polynomial")
        if num.is_zero():
            self.num, self.den = _P0, _P1
            return
        g = _gcd(num, den)
        if not g.is_const():
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        s = _signed(num, den)
        s = _canonical(s.num, s.den)
        self.num, self.den = s.num, s.den

    # ------------------------------------------------------ constructors

    @classmethod
    def of(cls, value) -> "Scalar":
        if type(value) is Scalar:
            return value
        return cls(value)

    @classmethod
    def var(cls, name: str) -> "Scalar":
        return cls(Poly.variable(name))

    # ----------------------------------------------------------- queries

    # is_zero and is_const read the term maps: the kernel asks them more
    # than anything else, most often of zeros and constants
    def is_zero(self) -> bool:
        return not self.num.terms

    def is_const(self) -> bool:
        num, den = self.num.terms, self.den.terms
        return ((not num or (len(num) == 1 and _MONO_ONE in num))
                and len(den) == 1 and _MONO_ONE in den)

    def const_value(self) -> int | Fraction:
        """The value of a constant: an int when it is an integer."""
        if not self.is_const():
            raise ValueError("not a constant")
        p, q = self.num.terms.get(_MONO_ONE, 0), self.den.terms[_MONO_ONE]
        return p if q == 1 else Fraction(p, q)

    def vars(self) -> set:
        return self.num.vars() | self.den.vars()

    def depends_on(self, name: str) -> bool:
        # For reduced p/q over Q, (p/q)' = 0 gives p'q = pq', so q | q'
        # (gcd(p, q) = 1) and then q' = 0 by degree, hence p' = 0.
        return name in self.vars()

    # -------------------------------------------------------- arithmetic

    def __add__(self, other) -> "Scalar":
        """a/b + c/d by Henrici's method: only gcd(t, g) can cancel.

        With g = gcd(b, d), b = g*b' and d = g*d', the sum is t/(g*b'*d')
        for t = a*d' + c*b'.  t is coprime to b'*d': an irreducible p | b'
        divides neither d' (b', d' are coprime) nor a (gcd(a, b) = 1), so
        it does not divide t = a*d' + c*b', and likewise for d'.  So with
        h = gcd(t, g) the sum is (t/h) / (b' * (d/h)) in lowest terms up to
        an integer, which _canonical divides out; for g = 1 that is
        (a*d + c*b)/(b*d) with no polynomial gcd at all.  g and h are
        primitive, so the quotients are exact in Z[x], and b' and d/h have
        positive leads like b and d.  When m*b = n*d for integers m and n
        (b = d is m = n = 1), the sum is (m*a + n*c)/(m*b), with the one
        gcd of its lowest terms."""
        other = Scalar.of(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        ratio = _associates(b, d)
        if ratio is not None:
            m, n = ratio
            return Scalar(_rescaled(a, m, 1) + _rescaled(c, n, 1),
                          _rescaled(b, m, 1))
        g = _gcd(b, d)
        if g.is_const():
            return _canonical(a * d + c * b, b * d)
        b1 = poly_divexact(b, g)
        t = a * poly_divexact(d, g) + c * b1
        h = _gcd(t, g)
        if not h.is_const():
            t = poly_divexact(t, h)
            d = poly_divexact(d, h)
        return _canonical(t, b1 * d)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = Scalar.of(other)
        if other.is_zero():
            return self
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) + (-self)

    def __neg__(self) -> "Scalar":
        out = object.__new__(Scalar)
        out.num, out.den = -self.num, self.den
        return out

    def __mul__(self, other) -> "Scalar":
        """A constant factor takes integer gcds only (see _scaled).  Other
        products go through the memo (see _product)."""
        other = Scalar.of(other)
        if self.is_zero() or other.is_zero():
            return _S0
        if other.is_const():
            return _scaled(self, other)
        if self.is_const():
            return _scaled(other, self)
        return _remembered(_product, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = Scalar.of(other)
        if other.is_zero():
            raise DivisionByZeroScalar("division by the zero rational function")
        return self * _reciprocal(other)

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return _S1
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroScalar("zero to a negative power")
            base = _reciprocal(self)
            n = -n
        else:
            base = self
        out = _S1
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return False
            other = Scalar(other)
        return (self.num.terms == other.num.terms
                and self.den.terms == other.den.terms)

    def __hash__(self):
        # a constant compares equal to its number, so it hashes as it
        if self.is_const():
            return hash(self.const_value())
        return hash((self.num, self.den))

    # ------------------------------------------------------ calculus etc

    def diff(self, name: str) -> "Scalar":
        if self.is_const():
            return _S0
        return _remembered(_derivative, self, name)

    def subs(self, bindings: Mapping[str, "Scalar"] | "Substitution") -> "Scalar":
        """Simultaneous substitution; bindings is a Mapping of names to
        Scalars, or a Substitution that keeps its powers across calls."""
        sub = bindings if isinstance(bindings, Substitution) \
            else Substitution(bindings)
        return sub.apply(self)

    def rename(self, mapping: Mapping[str, str]) -> "Scalar":
        if self.is_zero():
            return self
        # renaming keeps num and den coprime but permutes the term order,
        # so only the sign of den's lead needs restoring
        return _signed(self.num.rename(mapping), self.den.rename(mapping))

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = self.vars() - set(point)
        if missing:
            raise ValueError(f"unbound variables in eval_at: {sorted(missing)}")
        d = self.den.eval_fraction(point)
        if d == 0:
            raise EvalSingular("denominator vanishes at the evaluation point")
        return Fraction(self.num.eval_fraction(point)) / d

    # --------------------------------------------------------- printing

    def __str__(self) -> str:
        """num/den divided by den's leading coefficient, so den prints monic,
        and in parentheses unless it is one variable or a power of one."""
        den = self.den.terms
        d = den[_leading(den)]
        num_s = _terms_str(self.num.terms, d)
        if self.den.is_const():
            return num_s
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        den_s = _terms_str(den, d)
        if len(den) != 1 or len(next(iter(den))) != 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _associates(b: Poly, d: Poly) -> tuple | None:
    """Coprime positive ints (m, n) with m*b == n*d, or None when there
    are none; b and d lead positive."""
    if b.terms.keys() != d.terms.keys():
        return None
    mono, bv = next(iter(b.terms.items()))
    dv = d.terms[mono]
    g = math.gcd(bv, dv)
    m, n = abs(dv) // g, abs(bv) // g
    if all(m * v == n * d.terms[k] for k, v in b.terms.items()):
        return m, n
    return None


def _over_int(v) -> tuple:
    """v, a Poly, an int or a Fraction, as (Poly p, int q) with v = p/q."""
    if isinstance(v, Poly):
        return v, 1
    return Poly.const(_rational(v).numerator), v.denominator


def _canonical(num: Poly, den: Poly) -> Scalar:
    """The Scalar num/den for nonzero num and den whose only common
    factors are integers, with lc(den) > 0: the integer content is divided
    out, with no polynomial gcd."""
    g = math.gcd(*num.terms.values(), *den.terms.values())
    out = object.__new__(Scalar)
    out.num, out.den = _rescaled(num, 1, g), _rescaled(den, 1, g)
    return out


def _signed(num: Poly, den: Poly) -> Scalar:
    """num/den for coprime num and den, signed so that den leads positive."""
    if den.terms[_leading(den.terms)] < 0:
        num, den = -num, -den
    out = object.__new__(Scalar)
    out.num, out.den = num, den
    return out


def _reciprocal(s: Scalar) -> Scalar:
    """1/s of a nonzero canonical s: den/num is coprime already."""
    return _signed(s.den, s.num)


def _scaled(s: Scalar, c: Scalar) -> Scalar:
    """s = N/D times the nonzero constant c = p/q: (p*N)/(q*D), where only
    gcd(p, content(D)) and gcd(q, content(N)) can cancel, since p, q and
    N, D are coprime pairs.  q > 0, so the lead of D stays positive."""
    p, q = c.num.const_value(), c.den.const_value()
    kp = math.gcd(p, *s.den.terms.values())
    kq = math.gcd(q, *s.num.terms.values())
    out = object.__new__(Scalar)
    out.num = _rescaled(s.num, p // kp, kq)
    out.den = _rescaled(s.den, q // kq, kp)
    return out


def _product(x: Scalar, y: Scalar) -> Scalar:
    """(a/b)(c/d) with a and d, and c and b, cross-cancelled first.
    After that n1*n2 and d1*d2 have no common factor but an integer: each
    factor of a product is coprime to both factors of the other (gcd(a, b)
    = gcd(c, d) = 1 and the cross gcds are divided out), so no third gcd is
    needed.  The gcds lead positive, and so does d1*d2."""
    g1 = _gcd(x.num, y.den)
    g2 = _gcd(y.num, x.den)
    n1 = x.num if g1.is_const() else poly_divexact(x.num, g1)
    d2 = y.den if g1.is_const() else poly_divexact(y.den, g1)
    n2 = y.num if g2.is_const() else poly_divexact(y.num, g2)
    d1 = x.den if g2.is_const() else poly_divexact(x.den, g2)
    return _canonical(n1 * n2, d1 * d2)


def _derivative(s: Scalar, name: str) -> Scalar:
    dn = s.num.diff(name)
    dd = s.den.diff(name)
    if dd.is_zero():
        return Scalar(dn, s.den) if dn.terms else _S0
    return Scalar(dn * s.den - s.num * dd, s.den * s.den)


# Sums of products.  An entry of a reduced row is a sum of products whose
# second factors are entries of the same column of an echelon form.

def dot(pairs: Iterable[tuple]) -> Scalar:
    """The sum of a*b over the pairs (a, b) of Scalars, left to right."""
    total = _S0
    for a, b in pairs:
        total = total + a * b
    return total


def equals_dot(c: Scalar, pairs: list) -> bool:
    """c == dot(pairs).  When every a is a polynomial and every b has
    denominator k_b*D for one primitive D and integers k_b, dot(pairs) is
    N/(k*D) with k the lcm of the a.den*k_b, and the canonical c = p/q
    equals it exactly when p*k*D == q*N (q and D are nonzero): no Scalar is
    built and no gcd runs.  Other pairs are compared through dot."""
    den, group = None, []
    for a, b in pairs:
        if not a.den.is_const():
            return c == dot(pairs)
        kb, terms = _int_split(b.den.terms)
        d = b.den if kb == 1 else Poly(terms)
        if den is not None and d != den:
            return c == dot(pairs)
        den = d
        group.append((kb * a.den.const_value(), a, b))
    if not group:
        return c.is_zero()
    k = math.lcm(*(kab for kab, _, _ in group))
    n = _P0
    for kab, a, b in group:
        n = n + _rescaled(a.num * b.num, k, kab)
    den = _rescaled(den, k, 1)
    if c.den == den:
        return c.num == n
    return c.num * den == c.den * n


# The memo.  Consecutive reductions of overlapping spans ask for many of
# the same products and derivatives again; _remembered keeps the last
# MEMO_SIZE of them, keyed by the operation and its operands.  Both are
# pure functions of immutable values, and an operand is canonical, so
# equal keys have equal results and a hit returns exactly what the
# computation would.  Sums are not remembered: a memo of sums
# measured no gain.  cli.run empties the memo when it starts and when it
# ends, so a run neither sees nor keeps the results of another.
MEMO_SIZE = 256


@functools.lru_cache(maxsize=MEMO_SIZE)
def _remembered(op, a, b) -> Scalar:
    return op(a, b)


def clear_memo() -> None:
    """Forget every remembered product and derivative."""
    _remembered.cache_clear()


class Substitution:
    """A simultaneous substitution v -> a_v/b_v (canonical Scalars) that
    memoizes the polynomial powers it builds, so that a map applied many
    times, such as an adapted chart's, builds each power once.

    For p with d_v = deg_v p, multiplying p(a/b) by prod_v b_v^d_v clears
    every denominator:

        p(a/b) * prod_v b_v^d_v
            = sum_t c_t * m_t * prod_v a_v^e_v * b_v^(d_v - e_v)

    where term t is c_t * m_t * prod_v v^e_v with m_t free of the bound
    names.  So num/den, of degrees dn_v and dd_v in v, maps to
    (N / prod_v b_v^dn_v) / (D / prod_v b_v^dd_v) with N and D built from
    polynomial products only; the b_v powers of the two sides cancel down
    to one side per name.  One Scalar normalization at the end yields the
    canonical form, which is unique, so the result equals the term-by-term
    composition exactly.
    """

    __slots__ = ("bindings", "_nums", "_dens")

    def __init__(self, bindings: Mapping[str, "Scalar"]):
        self.bindings = {k: Scalar.of(v) for k, v in bindings.items()}
        # a_v^k and b_v^k at index k, grown on demand
        self._nums = {k: [_P1, s.num] for k, s in self.bindings.items()}
        self._dens = {k: [_P1, s.den] for k, s in self.bindings.items()}

    def apply(self, s: "Scalar") -> "Scalar":
        names = sorted(s.vars() & self.bindings.keys())
        if not names:
            return s
        dn = {v: s.num.degree_in(v) for v in names}
        dd = {v: s.den.degree_in(v) for v in names}
        num = self._compose(s.num, names, dn)
        den = self._compose(s.den, names, dd)
        if den.is_zero():
            raise SubstitutionSingular(
                "substitution makes the denominator identically zero")
        for v in names:
            k = dd[v] - dn[v]
            if k > 0:
                num = num * _power(self._dens[v], k)
            elif k < 0:
                den = den * _power(self._dens[v], -k)
        return Scalar(num, den)

    def bind(self, name: str, value: "Scalar") -> None:
        """Add name -> value, where value is free of every bound name and
        name is in no bound value; the powers built so far stay valid."""
        value = Scalar.of(value)
        self.bindings[name] = value
        self._nums[name] = [_P1, value.num]
        self._dens[name] = [_P1, value.den]

    def _compose(self, p: Poly, names: list, degs: dict) -> Poly:
        """sum_t c_t * m_t * prod_v a_v^e_v * b_v^(d_v - e_v) over the terms
        of p, one bound name per level of recursion."""
        if not names:
            return p
        v, rest, d = names[0], names[1:], degs[names[0]]
        total = _P0
        for e, coeff in _as_uni(p, v).items():
            factor = _power(self._nums[v], e)
            if d > e:
                factor = factor * _power(self._dens[v], d - e)
            total = total + self._compose(coeff, rest, degs) * factor
        return total


def _power(powers: list, k: int) -> Poly:
    """powers[k] of a table [1, base, base^2, ...], extended as needed."""
    while k >= len(powers):
        powers.append(powers[-1] * powers[1])
    return powers[k]


_S0 = Scalar(0)
_S1 = Scalar(1)

ZERO = _S0
ONE = _S1


# --------------------------------------------------------------- solving

def solve_linear_in(lhs: Scalar, rhs: Scalar, name: str) -> Scalar:
    """Solve lhs = rhs for the variable, requiring the cleared equation to
    be of degree exactly one in it.  The result is free of the variable and
    substituting it back yields an identity."""
    e = lhs - rhs
    uni = _as_uni(e.num, name)
    deg = max(uni) if uni else 0
    if deg >= 2:
        raise NotLinearInVariable(
            f"equation has degree {deg} in {name} after clearing denominators")
    if deg == 0:
        raise CoefficientVanishes(
            f"coefficient of {name} vanishes identically; the equation does "
            f"not determine {name}")
    c1 = uni[1]
    c0 = uni.get(0, _P0)
    return Scalar(-c0) / Scalar(c1)


def solves_linear(e: Scalar, name: str, s: Scalar) -> bool:
    """Whether name = s, for s free of the variable, solves e = 0 with the
    numerator of e of degree one in it, c1*name + c0.  With the variable
    not in e's denominator that is c1*num(s) + c0*den(s) == 0, polynomial
    products and no gcd; otherwise s is substituted into e."""
    uni = _as_uni(e.num, name)
    if max(uni, default=0) != 1:
        return False
    if e.den.degree_in(name):
        try:
            return e.subs({name: s}).is_zero()
        except SubstitutionSingular:
            return False
    return (uni[1] * s.num + uni.get(0, _P0) * s.den).is_zero()


# --------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[a-zA-Z][a-zA-Z0-9]*)"
                       r"|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}",
                                 col=pos + 1)
            break
        if m.group("num") is not None:
            tokens.append(("num", int(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", col=pos + 1)

    def parse(self) -> Scalar:
        value = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", col=pos + 1)
        return value

    def expr(self) -> Scalar:
        value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> Scalar:
        value = self.unary()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                if val == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero():
                        raise ParseError("division by zero", col=pos + 1)
                    value = value / rhs
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise ParseError("missing operator (implicit multiplication "
                                 "is not supported)", col=self.peek()[2] + 1)
            else:
                return value

    def unary(self) -> Scalar:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            inner = self.unary()
            return inner if val == "+" else -inner
        return self.power()

    def power(self) -> Scalar:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return base ** self.exponent()
        return base

    def exponent(self) -> int:
        kind, val, pos = self.take()
        if kind == "op" and val == "(":
            n = self.exponent()
            self.expect_op(")")
            return n
        if kind == "op" and val == "-":
            kind, val, pos = self.take()
            if kind != "num":
                raise ParseError("expected integer exponent", col=pos + 1)
            return -val
        if kind == "num":
            return val
        raise ParseError("expected integer exponent", col=pos + 1)

    def atom(self) -> Scalar:
        kind, val, pos = self.take()
        if kind == "num":
            return Scalar(val)
        if kind == "name":
            nxt_kind, nxt_val, nxt_pos = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                raise NonRationalExpression(
                    f"function call {val}(...) is outside the rational "
                    f"expression domain", col=pos + 1)
            return Scalar.var(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "end":
            raise ParseError("unexpected end of expression", col=pos + 1)
        raise ParseError(f"unexpected token {val!r}", col=pos + 1)


def parse_scalar(text: str) -> Scalar:
    """Parse the expression syntax: integers, rationals p/q, variables,
    + - * / ^ with integer exponents, and parentheses."""
    return _Parser(text).parse()

"""Exact multivariate rational functions over the rationals.

A Scalar is a quotient num/den of sparse polynomials with rational
coefficients.  Every constructor reduces to a canonical form:

  * gcd(num, den) = 1,
  * den is monic under the fixed term order,
  * no zero coefficients are stored.

Under this normal form two Scalars are mathematically equal exactly when
their term maps are identical, so ``==`` decides equality of rational
functions.  The term order is graded lexicographic over name-sorted
variables; it also fixes the printed form, which is bit-stable across runs.

Values are immutable; all operations are pure functions.  No floating
point enters any computation except the explicit ``eval_float`` helper,
which exists only for cross-checks against finite differences.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

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


def _mono_divides(a: Mono, b: Mono) -> bool:
    """True when monomial a divides b."""
    exps = dict(b)
    return all(exps.get(n, 0) >= e for n, e in a)


def _mono_div(a: Mono, b: Mono) -> Mono:
    """a / b, assuming b divides a."""
    exps = dict(a)
    for n, e in b:
        exps[n] -= e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


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
    """Sparse multivariate polynomial over Q.

    A coefficient is an int or a Fraction, never a float or a bool.
    ``const``, ``from_terms``, ``scale`` and exact division store an
    integral value as an int, so integer polynomials, the common case,
    multiply and add in int arithmetic; a sum or product of Fractions may keep an integral
    Fraction, which compares and hashes equal to the int.  A division of
    coefficients goes through ``_recip``, since int / int is a float."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        # Internal constructor: assumes zero-free int or Fraction values.
        # The term map is never changed once a Poly holds it, so the hash
        # is computed on first use and kept.
        self.terms = terms

    @classmethod
    def from_terms(cls, items: Iterable) -> "Poly":
        terms: dict = {}
        for mono, coeff in items:
            c = terms.get(mono, 0) + _coeff(coeff)
            if c:
                terms[mono] = _integral(c)
            else:
                terms.pop(mono, None)
        return cls(terms)

    @classmethod
    def const(cls, c) -> "Poly":
        c = _coeff(c)
        return cls({_MONO_ONE: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    # ----------------------------------------------------------- queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _MONO_ONE in self.terms)

    def const_value(self) -> int | Fraction:
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
        if not other.terms:
            return self
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, 0) - c
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        return Poly(terms)

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

    def scale(self, c: int | Fraction) -> "Poly":
        if not c:
            return Poly({})
        return Poly({m: _integral(v * c) for m, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        terms: dict = {}
        for mono, c in self.terms.items():
            for idx, (n, e) in enumerate(mono):
                if n != name:
                    continue
                if e == 1:
                    new = mono[:idx] + mono[idx + 1:]
                else:
                    new = mono[:idx] + ((n, e - 1),) + mono[idx + 1:]
                s = terms.get(new, 0) + c * e
                if s:
                    terms[new] = s
                else:
                    del terms[new]
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
        total = 0
        for mono, c in self.terms.items():
            v = c
            for n, e in mono:
                v *= point[n] ** e
            total += v
        return total

    def eval_float(self, point: Mapping[str, float]) -> float:
        total = 0.0
        for mono, c in self.terms.items():
            v = float(c)
            for n, e in mono:
                v *= point[n] ** e
            total += v
        return total

    # --------------------------------------------------------- printing

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        monos = sorted(self.terms, key=functools.cmp_to_key(_mono_cmp), reverse=True)
        parts = []
        for i, mono in enumerate(monos):
            c = self.terms[mono]
            neg = c < 0
            mag = -c if neg else c
            if mono == _MONO_ONE:
                body = _frac_str(mag)
            elif mag == 1:
                body = _mono_str(mono)
            else:
                body = f"{_frac_str(mag)}*{_mono_str(mono)}"
            if i == 0:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


_F1 = Fraction(1)
_P0 = Poly({})
_P1 = Poly({_MONO_ONE: 1})


def _coeff(c) -> int | Fraction:
    """A number as a coefficient: an int when integral, else a Fraction.
    Fraction() takes a float exactly, and a bool becomes 0 or 1."""
    return c if type(c) is int else _integral(Fraction(c))


def _integral(c: int | Fraction) -> int | Fraction:
    """c with an integral Fraction stored as its int."""
    return c.numerator if c.denominator == 1 else c


def _recip(c: int | Fraction) -> Fraction:
    """1/c of a nonzero coefficient as a Fraction: 1 / c is a float for an
    int c."""
    return _F1 / c


def _frac_str(c: int | Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


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
# division, retry with a larger point on failure.  It runs on plain
# integers (see _heu_gcd).  Acceptance is by exact division, so a wrong
# candidate is never returned; if the heuristic gives up, a primitive
# pseudo-remainder sequence over Fraction polynomials takes over, with its
# content computations routed back through the fast path.

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


def _monic(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p if lc == 1 else p.scale(_recip(lc))


def _content(p: Poly, x: str) -> Poly:
    coeffs = list(_as_uni(p, x).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        if g.is_const() or c.is_const():
            return _P1
        g = poly_gcd(g, c)
    return _monic(g)


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises if b does not divide a."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return _P0
    if b.is_const():
        return a.scale(_recip(b.const_value()))
    q = _divide(a.terms, b.terms, integral=False)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return Poly(q)


def _divide(a: dict, b: dict, integral: bool) -> dict | None:
    """Quotient term map of a / b (both nonzero), or None when b does not
    divide a.  With integral set, a and b hold ints and a division of
    coefficients that leaves a remainder also answers None."""
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
        if not _mono_divides(lb_mono, lr_mono):
            return None
        qm = _mono_div(lr_mono, lb_mono)
        if integral:
            qc, rem = divmod(lr_coeff, lb_coeff)
            if rem:
                return None
        else:
            qc = (lr_coeff if lb_coeff == 1
                  else _integral(lr_coeff * _recip(lb_coeff)))
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


# The heuristic runs on integer term maps {mono: int}: GCDHEU is defined
# over Z[x], so its evaluation values, balanced digits and trial divisions
# need no rational number.  A map enters through _to_int_primitive and
# leaves through _from_int: the accepted gcd, or both inputs when the
# pseudo-remainder sequence takes over.  The two representations share
# their integer coefficients, so the map becomes a Poly as it is.

_I1 = {_MONO_ONE: 1}


def _to_int_primitive(p: Poly) -> dict:
    """Integer term map of p scaled to content 1 and a positive leading
    coefficient."""
    coeffs = p.terms.values()
    den_lcm = math.lcm(*(c.denominator for c in coeffs))
    num_gcd = math.gcd(*(c.numerator for c in coeffs))
    if p.terms[_leading(p.terms)] < 0:
        num_gcd = -num_gcd
    return {m: c.numerator * (den_lcm // c.denominator) // num_gcd
            for m, c in p.terms.items()}


def _from_int(t: dict) -> Poly:
    # a term map is never mutated once built, so Poly may share _I1
    return Poly(t)


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
    """Heuristic gcd of integer-primitive term maps; a verified exact
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
        return _I1
    x = common[-1]
    xi = 2 * min(_int_norm(a), _int_norm(b)) + 29
    for _ in range(6):
        A = _eval_var_int(a, x, xi)
        B = _eval_var_int(b, x, xi)
        if A and B:
            ca, pa = _int_split(A)
            cb, pb = _int_split(B)
            if _is_int_const(pa) or _is_int_const(pb):
                sub = _I1
            else:
                sub = _heu_gcd(pa, pb)
            if sub is not None:
                g = math.gcd(ca, cb)
                cand = _interp_digits({m: c * g for m, c in sub.items()},
                                      x, xi)
                if cand:
                    _, cand = _int_split(cand)
                    if _is_int_const(cand) or (
                            _divide(a, cand, integral=True) is not None
                            and _divide(b, cand, integral=True) is not None):
                        return cand
        xi = 2 * xi + 29
    return None


def _gcd_inner(a: Poly, b: Poly) -> Poly:
    """gcd over Q up to a unit; inputs nonzero."""
    if a.is_const() or b.is_const():
        return _P1
    if a == b:
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
    za = _to_int_primitive(a)
    zb = _to_int_primitive(b)
    got = _heu_gcd(za, zb)
    if got is not None:
        return _from_int(got)
    return _prs_gcd(_from_int(za), _from_int(zb))


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
            cont = _content(rp, x)  # monic, so a constant content is 1
            if not cont.is_const():
                rp = poly_divexact(rp, cont)
            f, g = g, _as_uni(rp, x)
        else:
            f, g = g, r
    result = _from_uni(f, x)
    cont = _content(result, x)
    if not cont.is_const():
        result = poly_divexact(result, cont)
    return c * result


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two polynomials over Q (zero if both are zero)."""
    if a.is_zero():
        return _monic(b)
    if b.is_zero():
        return _monic(a)
    return _monic(_gcd_inner(a, b))


def _gcd(a: Poly, b: Poly) -> Poly:
    """poly_gcd of nonzero a and b, which is 1 at once when either is a
    constant: so every call of poly_gcd in the kernel is gcd work."""
    if a.is_const() or b.is_const():
        return _P1
    return poly_gcd(a, b)


# --------------------------------------------------------------- Scalar

class Scalar:
    """Canonical rational function num/den over Q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if den is None:
            den = _P1
        elif isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        if den.is_zero():
            raise DivisionByZeroScalar("denominator is the zero polynomial")
        if num.is_zero():
            self.num, self.den = _P0, _P1
            return
        g = _gcd(num, den)
        if not _is_one(g):
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        self.num, self.den = _monic_den(num, den)

    # ------------------------------------------------------ constructors

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return cls(value)

    @classmethod
    def var(cls, name: str) -> "Scalar":
        return cls(Poly.variable(name))

    # ----------------------------------------------------------- queries

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.num.const_value()

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
        h = gcd(t, g) the canonical sum is (t/h) / (b' * (d/h)); for
        g = 1 that is (a*d + c*b)/(b*d) with no gcd at all.  b' and d/h are
        quotients of monic polynomials by monic gcds, hence monic."""
        other = Scalar.of(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        if b == d:
            return Scalar(a + c, b)
        g = _gcd(b, d)
        if _is_one(g):
            return _canonical(a * d + c * b, b * d)
        b1 = poly_divexact(b, g)
        t = a * poly_divexact(d, g) + c * b1
        h = _gcd(t, g)
        if not _is_one(h):
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
        """A constant factor scales the numerator: c*(a/b) = (c*a)/b is
        canonical as it is, so it takes no gcd.  Other products go
        through the memo (see _product)."""
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
        inv = object.__new__(Scalar)
        inv.num, inv.den = other.den, other.num
        return self * inv

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if n == 0:
            return _S1
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroScalar("zero to a negative power")
            base = object.__new__(Scalar)
            base.num, base.den = self.den, self.num
            base = Scalar(base.num, base.den)  # re-normalize monic den
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
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        return (isinstance(other, Scalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        # a constant compares equal to its number, so it hashes as it
        if self.is_const():
            return hash(self.num.const_value())
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
        # so only the monic den needs restoring
        return _canonical(self.num.rename(mapping), self.den.rename(mapping))

    def eval_at(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = self.vars() - set(point)
        if missing:
            raise ValueError(f"unbound variables in eval_at: {sorted(missing)}")
        d = self.den.eval_fraction(point)
        if d == 0:
            raise EvalSingular("denominator vanishes at the evaluation point")
        return Fraction(self.num.eval_fraction(point)) / d

    def eval_float(self, point: Mapping[str, float]) -> float:
        d = self.den.eval_float(point)
        if d == 0.0:
            raise EvalSingular("denominator vanishes at the evaluation point")
        return self.num.eval_float(point) / d

    # --------------------------------------------------------- printing

    def __str__(self) -> str:
        if self.den == _P1:
            return str(self.num)
        num_s = str(self.num)
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        den_s = str(self.den)
        if not _den_atomic(self.den):
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _is_one(p: Poly) -> bool:
    return p.is_const() and p.const_value() == 1


def _monic_den(num: Poly, den: Poly) -> tuple:
    """num/den rescaled so that den is monic."""
    _, lc = den.leading()
    if lc == 1:
        return num, den
    inv = _recip(lc)
    return num.scale(inv), den.scale(inv)


def _canonical(num: Poly, den: Poly) -> Scalar:
    """The Scalar num/den for nonzero, coprime num and den: only den is
    made monic, with no gcd."""
    out = object.__new__(Scalar)
    out.num, out.den = _monic_den(num, den)
    return out


def _scaled(s: Scalar, c: Scalar) -> Scalar:
    """s times the nonzero constant c.  Either may be the reciprocal that
    __truediv__ builds, whose den need not be monic: so c is read as
    num/den, and the den of s is made monic."""
    v = c.num.const_value()
    d = c.den.const_value()
    if d != 1:
        v = _integral(v * _recip(d))
    return _canonical(s.num if v == 1 else s.num.scale(v), s.den)


def _product(x: Scalar, y: Scalar) -> Scalar:
    """(a/b)(c/d) with a and d, and c and b, cross-cancelled first.
    After that n1*n2 and d1*d2 are coprime: each factor of a product is
    coprime to both factors of the other (gcd(a, b) = gcd(c, d) = 1 and
    the cross gcds are divided out), so no third gcd is needed."""
    g1 = _gcd(x.num, y.den)
    g2 = _gcd(y.num, x.den)
    n1 = x.num if _is_one(g1) else poly_divexact(x.num, g1)
    d2 = y.den if _is_one(g1) else poly_divexact(y.den, g1)
    n2 = y.num if _is_one(g2) else poly_divexact(y.num, g2)
    d1 = x.den if _is_one(g2) else poly_divexact(x.den, g2)
    return _canonical(n1 * n2, d1 * d2)


def _derivative(s: Scalar, name: str) -> Scalar:
    dn = s.num.diff(name)
    dd = s.den.diff(name)
    if dd.is_zero():
        return Scalar(dn, s.den)
    return Scalar(dn * s.den - s.num * dd, s.den * s.den)


# Sums of products.  An entry of a reduced row is a sum of products whose
# second factors are entries of the same column of an echelon form, and
# those often share one denominator D.  A polynomial times n/D is a
# polynomial over D, so such a group is summed as polynomials and made
# canonical once.

def _grouped(pairs: Iterable[tuple]) -> tuple:
    """(groups, rest) of the pairs (a, b): groups maps a denominator D to
    the pairs whose a is a polynomial and whose b has denominator D, and
    rest holds the other pairs."""
    groups: dict = {}
    rest = []
    for a, b in pairs:
        if _is_one(a.den):
            groups.setdefault(b.den, []).append((a, b))
        else:
            rest.append((a, b))
    return groups, rest


def _numerator(group: list) -> Poly:
    """N with sum(a*b) = N/D, for a group of pairs over one denominator D."""
    total = _P0
    for a, b in group:
        total = total + a.num * b.num
    return total


def dot(pairs: Iterable[tuple]) -> Scalar:
    """The sum of a*b over the pairs (a, b) of Scalars.

    Each group of products whose a is a polynomial and whose b share a
    denominator D is summed as the polynomial N over D and made canonical
    once, as Scalar(N, D), where adding the products one at a time runs
    gcds against D for each product and each sum.  A group of one product
    is a*b, so the memo and the constant path still apply.  The groups
    are then added with Scalar.__add__."""
    return _summed(*_grouped(pairs))


def _summed(groups: dict, rest: list) -> Scalar:
    """dot of the pairs that _grouped split into groups and rest."""
    total = _S0
    for den, group in groups.items():
        if len(group) > 1:
            total = total + Scalar(_numerator(group), den)
        else:
            a, b = group[0]
            total = total + a * b
    for a, b in rest:
        total = total + a * b
    return total


def equals_dot(c: Scalar, pairs: Iterable[tuple]) -> bool:
    """c == dot(pairs).  When every a is a polynomial and every b has one
    denominator D, dot(pairs) is N/D, and the canonical c = p/q equals it
    exactly when p*D == q*N (q and D are nonzero): no Scalar is built and
    no gcd runs.  Other pairs are compared through dot."""
    groups, rest = _grouped(pairs)
    if rest or len(groups) > 1:
        return c == _summed(groups, rest)
    if not groups:
        return c.is_zero()
    (den, group), = groups.items()
    n = _numerator(group)
    if c.den == den:
        return c.num == n
    return c.num * den == c.den * n


# The memo.  Consecutive reductions of overlapping spans ask for many of
# the same products and derivatives again; _remembered keeps the last
# MEMO_SIZE of them, keyed by the operation and its operands.  Both are
# pure functions of immutable values, and an operand is canonical (or
# the reciprocal __truediv__ builds, which is fixed by the canonical
# divisor), so equal keys have equal results and a hit returns exactly
# what the computation would.  Sums are not remembered: a memo of sums
# measured no gain.  cli.run empties the memo when it starts and when it
# ends, so a run neither sees nor keeps the results of another.
MEMO_SIZE = 256


@functools.lru_cache(maxsize=MEMO_SIZE)
def _remembered(op, a, b) -> Scalar:
    return op(a, b)


def clear_memo() -> None:
    """Forget every remembered product and derivative."""
    _remembered.cache_clear()


def _den_atomic(p: Poly) -> bool:
    """True when p prints as a token that binds tighter than division."""
    if len(p.terms) != 1:
        return False
    mono, c = next(iter(p.terms.items()))
    if c < 0:
        return False
    if mono == _MONO_ONE:
        return c.denominator == 1
    return c == 1 and len(mono) == 1


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

    __slots__ = ("bindings", "_nums", "_dens", "_factors")

    def __init__(self, bindings: Mapping[str, "Scalar"]):
        self.bindings = {k: Scalar.of(v) for k, v in bindings.items()}
        # a_v^k and b_v^k at index k, grown on demand
        self._nums = {k: [_P1, s.num] for k, s in self.bindings.items()}
        self._dens = {k: [_P1, s.den] for k, s in self.bindings.items()}
        self._factors: dict = {}    # (v, e, d) -> a_v^e * b_v^(d - e)

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

    def _compose(self, p: Poly, names: list, degs: dict) -> Poly:
        """sum_t c_t * m_t * prod_v a_v^e_v * b_v^(d_v - e_v) over the terms
        of p, one bound name per level of recursion."""
        if not names:
            return p
        v, rest = names[0], names[1:]
        total = _P0
        for e, coeff in _as_uni(p, v).items():
            total = total + self._compose(coeff, rest, degs) \
                * self._factor(v, e, degs[v])
        return total

    def _factor(self, v: str, e: int, d: int) -> Poly:
        key = (v, e, d)
        got = self._factors.get(key)
        if got is None:
            got = _power(self._nums[v], e)
            if d > e:
                got = got * _power(self._dens[v], d - e)
            self._factors[key] = got
        return got


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

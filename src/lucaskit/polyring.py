"""Exact sparse arithmetic for polynomials in the indeterminates s and t.

A ``Poly2`` maps exponent pairs ``(a, b)``, standing for ``s^a * t^b``, to
nonzero integer coefficients.  Everything is exact: coefficients are Python
ints, and the univariate ``Poly1`` (used for coefficient generating functions,
q-specializations and Chebyshev images) carries ``Fraction`` coefficients so
that Sturm sequences and divisions never touch floating point.

Most quantities built on top of this ring are *weighted homogeneous*: every
monomial ``s^a t^b`` satisfies ``a + 2b = N`` for a single weight ``N``.  Such
a polynomial collapses to the integer sequence ``a_0, a_1, ...`` with ``a_k``
the coefficient of ``s^(N-2k) t^k`` (see ``CoeffSeq``), and products and exact
quotients reduce to univariate convolutions, which the arithmetic below uses
as a fast path.  A lexicographic long division (s > t) covers the general
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping


class DivisionByZero(ZeroDivisionError):
    """Division of a polynomial by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """The quotient is not a polynomial with integer coefficients."""


class NotWeightedHomogeneous(ValueError):
    """The polynomial mixes weights a + 2b, so it has no coefficient sequence."""


Monomial = tuple[int, int]  # (s exponent, t exponent)


class Poly2:
    """A polynomial in s and t with integer coefficients, in canonical form.

    Canonical form stores no zero coefficients; equality is term-map equality.
    Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_hash", "_profile")

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        data: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (a, b), c in items:
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in monomial {(a, b)}")
            if c:
                new = data.get((a, b), 0) + c
                if new:
                    data[(a, b)] = new
                elif (a, b) in data:
                    del data[(a, b)]
        self._terms = data
        self._hash: int | None = None
        self._profile: tuple[int, tuple[int, ...]] | None | bool = False  # False = not yet computed

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> Poly2:
        return Poly2()

    @staticmethod
    def one() -> Poly2:
        return Poly2({(0, 0): 1})

    @staticmethod
    def const(c: int) -> Poly2:
        return Poly2({(0, 0): c})

    @staticmethod
    def monomial(s_exp: int, t_exp: int, coeff: int = 1) -> Poly2:
        return Poly2({(s_exp, t_exp): coeff})

    @staticmethod
    def var_s() -> Poly2:
        return Poly2({(1, 0): 1})

    @staticmethod
    def var_t() -> Poly2:
        return Poly2({(0, 1): 1})

    # -- basic protocol ----------------------------------------------------

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms sorted by decreasing s exponent, then increasing t exponent."""
        return sorted(self._terms.items(), key=lambda kv: (-kv[0][0], kv[0][1]))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Poly2({str(self)!r})"

    def __str__(self) -> str:
        return self.pretty()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.const(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            new = out.get(mono, 0) + c
            if new:
                out[mono] = new
            elif mono in out:
                del out[mono]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> Poly2:
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> Poly2:
        return Poly2.const(other) - self

    def __mul__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            if other == 0:
                return Poly2()
            return _wrap({m: c * other for m, c in self._terms.items()})
        if not self._terms or not other._terms:
            return Poly2()
        pa, pb = self.weighted_profile(), other.weighted_profile()
        if pa is not None and pb is not None:
            # Homogeneous inputs multiply as univariate convolutions.
            na, ca = pa
            nb, cb = pb
            out = [0] * (len(ca) + len(cb) - 1)
            for i, x in enumerate(ca):
                if x:
                    for j, y in enumerate(cb):
                        if y:
                            out[i + j] += x * y
            return _from_profile(na + nb, out)
        acc: dict[Monomial, int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                mono = (a1 + a2, b1 + b2)
                new = acc.get(mono, 0) + c1 * c2
                if new:
                    acc[mono] = new
                elif mono in acc:
                    del acc[mono]
        return _wrap(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly2:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly2.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, s0: int, t0: int) -> int:
        """Exact evaluation at integer arguments; a ring homomorphism."""
        return sum(c * s0**a * t0**b for (a, b), c in self._terms.items())

    def is_nonnegative(self) -> bool:
        """True iff every (stored, hence nonzero) coefficient is positive."""
        return all(c > 0 for c in self._terms.values())

    # -- weighted-homogeneous structure -------------------------------------

    def weighted_profile(self) -> tuple[int, tuple[int, ...]] | None:
        """``(N, coeffs)`` if every monomial has a + 2b == N, else ``None``.

        ``coeffs[k]`` is the coefficient of ``s^(N-2k) t^k``; trailing entries
        up to the largest occurring t exponent, zero-filled in between.
        Undefined (None) for the zero polynomial.
        """
        if self._profile is False:
            self._profile = self._compute_profile()
        return self._profile

    def _compute_profile(self) -> tuple[int, tuple[int, ...]] | None:
        if not self._terms:
            return None
        weight = None
        max_b = 0
        for (a, b), _ in self._terms.items():
            w = a + 2 * b
            if weight is None:
                weight = w
            elif w != weight:
                return None
            max_b = max(max_b, b)
        coeffs = [0] * (max_b + 1)
        for (_, b), c in self._terms.items():
            coeffs[b] = c
        return (weight, tuple(coeffs))

    def exact_div(self, divisor: Poly2) -> Poly2:
        """Return r with divisor * r == self, over the integers.

        Raises DivisionByZero when divisor == 0 and NotDivisible when no such
        integer-coefficient polynomial exists.
        """
        if not divisor._terms:
            raise DivisionByZero("polynomial division by zero")
        if not self._terms:
            return Poly2()
        pp, pq = self.weighted_profile(), divisor.weighted_profile()
        if pp is not None and pq is not None:
            return _hom_exact_div(pp, pq)
        return _lex_exact_div(self._terms, divisor._terms)

    # -- substitutions -------------------------------------------------------

    def substitute(self, s_image: Poly1, t_image: Poly1) -> Poly1:
        """Map s and t to univariate polynomials and expand exactly."""
        out = Poly1()
        for (a, b), c in self.terms():
            out = out + (s_image**a) * (t_image**b) * c
        return out

    def specialize_q(self) -> Poly1:
        """Substitute s -> 1 + q, t -> -q; sends {n} to the q-integer [n]_q."""
        return self.substitute(Poly1({0: 1, 1: 1}), Poly1({1: -1}))

    # -- presentation --------------------------------------------------------

    def pretty(self) -> str:
        """Render like the display style ``s^3 + 2*s*t``; 0 for the zero poly."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (a, b), c in self.terms():
            factors = []
            if abs(c) != 1 or (a == 0 and b == 0):
                factors.append(str(abs(c)))
            if a:
                factors.append("s" if a == 1 else f"s^{a}")
            if b:
                factors.append("t" if b == 1 else f"t^{b}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def to_json_dict(self) -> dict:
        """Wire format: coefficients as decimal strings, (s desc, t asc) order."""
        return {
            "terms": [
                {"s": a, "t": b, "c": str(c)} for (a, b), c in self.terms()
            ]
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> Poly2:
        return Poly2({(int(t["s"]), int(t["t"])): int(t["c"]) for t in data["terms"]})


def _wrap(terms: dict[Monomial, int]) -> Poly2:
    p = Poly2()
    p._terms = terms
    return p


def _from_profile(weight: int, coeffs: Iterable[int]) -> Poly2:
    terms: dict[Monomial, int] = {}
    for k, c in enumerate(coeffs):
        if c:
            terms[(weight - 2 * k, k)] = c
    return _wrap(terms)


def _hom_exact_div(pp: tuple[int, tuple[int, ...]], pq: tuple[int, tuple[int, ...]]) -> Poly2:
    """Exact division of weighted-homogeneous polynomials via their sequences."""
    np_, f = pp
    nq, g = pq
    if np_ < nq:
        raise NotDivisible("weight of dividend is below weight of divisor")
    # Strip the divisor's t-valuation; the dividend must carry at least as much.
    v = 0
    while g[v] == 0:
        v += 1
    if any(f[k] for k in range(min(v, len(f)))):
        raise NotDivisible("divisor's t-valuation exceeds dividend's")
    f = f[v:]
    g = g[v:]
    if len(f) < len(g):
        raise NotDivisible("dividend has too few terms")
    deg_h = len(f) - len(g)
    g0 = g[0]
    h = [0] * (deg_h + 1)
    for k in range(len(f)):
        acc = f[k]
        for j in range(max(1, k - deg_h), min(k, len(g) - 1) + 1):
            acc -= g[j] * h[k - j]
        if k <= deg_h:
            q, r = divmod(acc, g0)
            if r:
                raise NotDivisible("non-integer coefficient in quotient")
            h[k] = q
        elif acc:
            raise NotDivisible("nonzero remainder")
    weight = np_ - nq
    if any(h[k] and weight - 2 * k < 0 for k in range(len(h))):
        raise NotDivisible("quotient would need a negative s exponent")
    return _from_profile(weight, h)


def _lex_exact_div(p: dict[Monomial, int], q: dict[Monomial, int]) -> Poly2:
    """Multivariate long division in lex order (s > t); exactness enforced."""
    q_lead = max(q)
    q_lc = q[q_lead]
    rem = dict(p)
    quot: dict[Monomial, int] = {}
    while rem:
        lead = max(rem)
        da, db = lead[0] - q_lead[0], lead[1] - q_lead[1]
        if da < 0 or db < 0:
            raise NotDivisible("leading monomial not divisible")
        c, r = divmod(rem[lead], q_lc)
        if r:
            raise NotDivisible("leading coefficient not divisible")
        quot[(da, db)] = c
        for (a, b), qc in q.items():
            mono = (a + da, b + db)
            new = rem.get(mono, 0) - qc * c
            if new:
                rem[mono] = new
            elif mono in rem:
                del rem[mono]
    return _wrap(quot)


# -- module-level operation names ------------------------------------------


def poly_add(p: Poly2, q: Poly2) -> Poly2:
    return p + q


def poly_mul(p: Poly2, q: Poly2) -> Poly2:
    return p * q


def poly_exact_div(p: Poly2, q: Poly2) -> Poly2:
    return p.exact_div(q)


def poly_eval(p: Poly2, s0: int, t0: int) -> int:
    return p.evaluate(s0, t0)


def specialize_q(p: Poly2) -> Poly1:
    return p.specialize_q()


# -- coefficient sequences ---------------------------------------------------


@dataclass(frozen=True)
class CoeffSeq:
    """The integers a_k with p = sum_k a_k s^(N-2k) t^k, for homogeneous p.

    Trailing zeros are trimmed, so coeffs[-1] != 0.  Lucas analogues always
    have a_0 != 0 as well; general homogeneous polynomials (t, say) may not.
    """

    weight: int
    coeffs: tuple[int, ...]

    def to_poly2(self) -> Poly2:
        return _from_profile(self.weight, self.coeffs)

    def generating_function(self) -> Poly1:
        """f(y) = sum a_k y^k."""
        return Poly1({k: c for k, c in enumerate(self.coeffs) if c})


def coeff_view(p: Poly2) -> CoeffSeq:
    """Extract (N, a_0..a_m); requires p != 0 and a single weight."""
    if not p:
        raise ValueError("the zero polynomial has no coefficient sequence")
    prof = p.weighted_profile()
    if prof is None:
        raise NotWeightedHomogeneous(f"mixed weights in {p}")
    weight, coeffs = prof
    return CoeffSeq(weight, coeffs)


# -- univariate polynomials ---------------------------------------------------


class Poly1:
    """A univariate polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int | Fraction] | Iterable[tuple[int, int | Fraction]] = ()):
        data: dict[int, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, c in items:
            if e < 0:
                raise ValueError("negative exponent")
            c = Fraction(c)
            if c:
                new = data.get(e, Fraction(0)) + c
                if new:
                    data[e] = new
                elif e in data:
                    del data[e]
        self._coeffs = data

    @staticmethod
    def const(c: int | Fraction) -> Poly1:
        return Poly1({0: c})

    @staticmethod
    def var() -> Poly1:
        return Poly1({1: 1})

    def coeff(self, e: int) -> Fraction:
        return self._coeffs.get(e, Fraction(0))

    def coeffs_dense(self) -> list[Fraction]:
        """Coefficients c_0..c_deg; [] for the zero polynomial."""
        if not self._coeffs:
            return []
        out = [Fraction(0)] * (self.degree() + 1)
        for e, c in self._coeffs.items():
            out[e] = c
        return out

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        if not isinstance(other, Poly1):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: Poly1 | int | Fraction) -> Poly1:
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            new = out.get(e, Fraction(0)) + c
            if new:
                out[e] = new
            elif e in out:
                del out[e]
        p = Poly1()
        p._coeffs = out
        return p

    __radd__ = __add__

    def __neg__(self) -> Poly1:
        p = Poly1()
        p._coeffs = {e: -c for e, c in self._coeffs.items()}
        return p

    def __sub__(self, other: Poly1 | int | Fraction) -> Poly1:
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        return self + (-other)

    def __rsub__(self, other: int | Fraction) -> Poly1:
        return Poly1.const(other) - self

    def __mul__(self, other: Poly1 | int | Fraction) -> Poly1:
        if isinstance(other, (int, Fraction)):
            other = Poly1.const(other)
        acc: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                new = acc.get(e, Fraction(0)) + c1 * c2
                if new:
                    acc[e] = new
                elif e in acc:
                    del acc[e]
        p = Poly1()
        p._coeffs = acc
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly1:
        if n < 0:
            raise ValueError("negative power")
        result = Poly1.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: Poly1) -> tuple[Poly1, Poly1]:
        if not other:
            raise DivisionByZero("univariate division by zero")
        quot = Poly1()
        rem = self
        d = other.degree()
        lc = other.coeff(d)
        while rem and rem.degree() >= d:
            e = rem.degree()
            c = rem.coeff(e) / lc
            term = Poly1({e - d: c})
            quot = quot + term
            rem = rem - term * other
        return quot, rem

    def exact_div(self, other: Poly1) -> Poly1:
        quot, rem = divmod(self, other)
        if rem:
            raise NotDivisible(f"univariate remainder {rem.pretty()}")
        return quot

    def derivative(self) -> Poly1:
        return Poly1({e - 1: e * c for e, c in self._coeffs.items() if e})

    def evaluate(self, x: int | Fraction) -> Fraction:
        return sum((c * Fraction(x) ** e for e, c in self._coeffs.items()), Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs.values())

    def int_coeffs(self) -> dict[int, int]:
        if not self.is_integral():
            raise ValueError("non-integer coefficients")
        return {e: int(c) for e, c in self._coeffs.items()}

    def primitive(self) -> Poly1:
        """Divide by the positive rational content; sign pattern is preserved."""
        if not self._coeffs:
            return self
        num = gcd(*(abs(c.numerator) for c in self._coeffs.values()))
        den = 1
        for c in self._coeffs.values():
            den = den * c.denominator // gcd(den, c.denominator)
        scale = Fraction(den, num)
        p = Poly1()
        p._coeffs = {e: c * scale for e, c in self._coeffs.items()}
        return p

    def pretty(self, var: str = "y") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            body = []
            if abs(c) != 1 or e == 0:
                body.append(str(abs(c)))
            if e:
                body.append(var if e == 1 else f"{var}^{e}")
            text = "*".join(body)
            if not parts:
                parts.append(text if c > 0 else f"-{text}")
            else:
                parts.append(f" + {text}" if c > 0 else f" - {text}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly1({self.pretty()!r})"


# -- exact real-rootedness ----------------------------------------------------


def _sturm_chain(f: Poly1) -> list[Poly1]:
    chain = [f.primitive(), f.derivative().primitive()]
    while chain[-1]:
        _, rem = divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append((-rem).primitive())
    return chain


def _sign_at_infinity(f: Poly1, positive: bool) -> int:
    d = f.degree()
    if d < 0:
        return 0
    lc = f.coeff(d)
    sign = 1 if lc > 0 else -1
    if not positive and d % 2 == 1:
        sign = -sign
    return sign


def _variations(signs: Iterator[int]) -> int:
    count = 0
    prev = 0
    for sg in signs:
        if sg == 0:
            continue
        if prev and sg != prev:
            count += 1
        prev = sg
    return count


def count_real_roots(f: Poly1) -> int:
    """Number of distinct real roots of f != 0, by Sturm's theorem."""
    if f.degree() <= 0:
        return 0
    g = f.exact_div(poly1_gcd(f, f.derivative()))  # square-free part
    chain = _sturm_chain(g)
    at_neg = _variations(_sign_at_infinity(p, positive=False) for p in chain)
    at_pos = _variations(_sign_at_infinity(p, positive=True) for p in chain)
    return at_neg - at_pos


def poly1_gcd(f: Poly1, g: Poly1) -> Poly1:
    """Monic-free Euclidean gcd, normalized to a primitive polynomial."""
    a, b = f, g
    while b:
        _, r = divmod(a, b)
        a, b = b, r.primitive() if r else r
    if not a:
        return Poly1.const(1)
    prim = a.primitive()
    d = prim.degree()
    if prim.coeff(d) < 0:
        prim = -prim
    return prim


def real_rooted(f: Poly1) -> bool:
    """Exact test that every complex root of f != 0 is real.

    The square-free part g = f / gcd(f, f') is extracted first, then Sturm's
    theorem counts the distinct real roots; f is real-rooted iff that count
    equals deg g.  Degree-0 inputs are vacuously real-rooted.
    """
    if not f:
        raise ValueError("real_rooted is undefined for the zero polynomial")
    if f.degree() == 0:
        return True
    g = f.exact_div(poly1_gcd(f, f.derivative()))
    return count_real_roots(g) == g.degree()

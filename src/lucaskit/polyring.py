"""Exact arithmetic for polynomials in the indeterminates s and t.

A monomial ``s^a t^b`` has weight ``a + 2b``, and a ``Poly2`` is stored by
weight: each weight N present maps to the integer sequence ``c_0, c_1, ...``
with ``c_k`` the coefficient of ``s^(N-2k) t^k``, trailing zeros trimmed.
Everything is exact: coefficients are Python ints, and the univariate
``Poly1`` (used for coefficient generating functions, q-specializations and
Chebyshev images) carries ``Fraction`` coefficients so that Sturm sequences
and divisions never touch floating point.

Every Lucas quantity is *weighted homogeneous*, a single weight (its tilings
cover a fixed number of cells), so it is one sequence (see ``CoeffSeq``).
Products convolve each pair of weights.  Exact division is graded long
division: the dividend's top weight is divided by the divisor's top weight as
a univariate exact quotient, and the divisor's lower weights times that
quotient are subtracted from the lower weights of the dividend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence


class DivisionByZero(ZeroDivisionError):
    """Division of a polynomial by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """The quotient is not a polynomial with integer coefficients."""


class NotWeightedHomogeneous(ValueError):
    """The polynomial mixes weights a + 2b, so it has no coefficient sequence."""


Monomial = tuple[int, int]  # (s exponent, t exponent)
Part = tuple[int, ...]  # c_k = coefficient of s^(N-2k) t^k within weight N


class Poly2:
    """A polynomial in s and t with integer coefficients, in canonical form.

    Canonical form keeps only weights with a nonzero coefficient, each
    sequence trimmed of trailing zeros; equality is equality of that map.
    Instances are immutable and hashable.
    """

    __slots__ = ("_parts", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        parts: dict[int, list[int]] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (a, b), c in items:
            if a < 0 or b < 0:
                raise ValueError(f"negative exponent in monomial {(a, b)}")
            seq = parts.setdefault(a + 2 * b, [])
            seq.extend([0] * (b + 1 - len(seq)))
            seq[b] += c
        self._parts = _canonical(parts)
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> Poly2:
        return _graded({})

    @staticmethod
    def one() -> Poly2:
        return _graded({0: (1,)})

    @staticmethod
    def const(c: int) -> Poly2:
        return _graded({0: (c,)})

    @staticmethod
    def monomial(s_exp: int, t_exp: int, coeff: int = 1) -> Poly2:
        if s_exp < 0 or t_exp < 0:
            raise ValueError(f"negative exponent in monomial {(s_exp, t_exp)}")
        return _graded({s_exp + 2 * t_exp: (0,) * t_exp + (coeff,)})

    @staticmethod
    def var_s() -> Poly2:
        return _graded({1: (1,)})

    @staticmethod
    def var_t() -> Poly2:
        return _graded({2: (0, 1)})

    # -- basic protocol ----------------------------------------------------

    def terms(self) -> list[tuple[Monomial, int]]:
        """Terms sorted by decreasing s exponent, then increasing t exponent."""
        out = [((n - 2 * k, k), c) for n, seq in self._parts.items() for k, c in enumerate(seq) if c]
        out.sort(key=lambda kv: (-kv[0][0], kv[0][1]))
        return out

    @property
    def _terms(self) -> dict[Monomial, int]:
        """A fresh ``{(a, b): c}`` map of the nonzero terms; changing it leaves self alone."""
        return {(n - 2 * k, k): c for n, seq in self._parts.items() for k, c in enumerate(seq) if c}

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._parts.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Poly2({str(self)!r})"

    def __str__(self) -> str:
        return self.pretty()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.const(other)
        parts: dict[int, Sequence[int]] = dict(self._parts)
        for n, seq in other._parts.items():
            _add_part(parts, n, seq)
        return _graded(parts)

    __radd__ = __add__

    def __neg__(self) -> Poly2:
        return _graded({n: tuple(-c for c in seq) for n, seq in self._parts.items()})

    def __sub__(self, other: Poly2 | int) -> Poly2:
        return self + (-other)

    def __rsub__(self, other: int) -> Poly2:
        return Poly2.const(other) - self

    def __mul__(self, other: Poly2 | int) -> Poly2:
        if isinstance(other, int):
            other = Poly2.const(other)
        parts: dict[int, Sequence[int]] = {}
        for na, fa in self._parts.items():
            for nb, fb in other._parts.items():
                _add_part(parts, na + nb, _convolve(fa, fb))
        return _graded(parts)

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
        return sum(c * s0 ** (n - 2 * k) * t0**k for n, seq in self._parts.items() for k, c in enumerate(seq) if c)

    def is_nonnegative(self) -> bool:
        """True iff every nonzero coefficient is positive."""
        return all(c >= 0 for seq in self._parts.values() for c in seq)

    # -- weighted-homogeneous structure -------------------------------------

    def weighted_profile(self) -> tuple[int, Part] | None:
        """``(N, coeffs)`` if every monomial has a + 2b == N, else ``None``.

        ``coeffs[k]`` is the coefficient of ``s^(N-2k) t^k``; trailing entries
        up to the largest occurring t exponent, zero-filled in between.
        Undefined (None) for the zero polynomial.
        """
        if len(self._parts) != 1:
            return None
        [profile] = self._parts.items()
        return profile

    def exact_div(self, divisor: Poly2) -> Poly2:
        """Return r with divisor * r == self, over the integers.

        Raises DivisionByZero when divisor == 0 and NotDivisible when no such
        integer-coefficient polynomial exists.

        Graded long division: the top part of a product is the product of the
        top parts, so the remainder's top part divided by the divisor's is
        the quotient's next part.  Subtracting that part times the divisor's
        lower parts leaves a remainder whose top weight is strictly lower.
        """
        if not divisor._parts:
            raise DivisionByZero("polynomial division by zero")
        top = max(divisor._parts)
        lead = divisor._parts[top]
        lower = [(m, tuple(-c for c in seq)) for m, seq in divisor._parts.items() if m != top]
        rem: dict[int, Sequence[int]] = dict(self._parts)
        quot: dict[int, Part] = {}
        while rem:
            n = max(rem)
            f = _trimmed(rem.pop(n))
            if not f:
                continue
            h = quot[n - top] = _hom_exact_div(n, f, top, lead)
            for m, neg in lower:
                _add_part(rem, n - top + m, _convolve(h, neg))
        return _graded(quot)

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
        if not self._parts:
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


def _trimmed(seq: Sequence[int]) -> Part:
    end = len(seq)
    while end and not seq[end - 1]:
        end -= 1
    return tuple(seq[:end])


def _canonical(parts: Mapping[int, Sequence[int]]) -> dict[int, Part]:
    """Trim every part and drop the ones left empty."""
    out = {}
    for n, seq in parts.items():
        seq = _trimmed(seq)
        if seq:
            out[n] = seq
    return out


def _graded(parts: Mapping[int, Sequence[int]]) -> Poly2:
    """The polynomial whose weight-N part is ``parts[N]``, in canonical form."""
    p = Poly2.__new__(Poly2)
    p._parts = _canonical(parts)
    p._hash = None
    return p


def _add_part(parts: dict[int, Sequence[int]], n: int, seq: Sequence[int]) -> None:
    """parts[n] += seq, coefficientwise and untrimmed."""
    old = parts.get(n, ())
    if len(old) < len(seq):
        old, seq = seq, old
    parts[n] = (*map(add, old, seq), *old[len(seq) :])


def _convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The part of a product: c_k = sum of f_i g_j over i + j = k."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                if y:
                    out[i + j] += x * y
    return out


def _hom_exact_div(np_: int, f: Part, nq: int, g: Part) -> Part:
    """The part h of weight np_ - nq with h * g == f, for trimmed nonzero f and g."""
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
    return tuple(h)


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
        return _graded({self.weight: self.coeffs})

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

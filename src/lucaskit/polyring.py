"""Exact arithmetic for polynomials with integer coefficients.

A monomial ``s^a t^b`` has weight ``a + 2b``, and a ``Poly2`` is stored by
weight: each weight N present maps to the integer sequence ``c_0, c_1, ...``
with ``c_k`` the coefficient of ``s^(N-2k) t^k``, trailing zeros trimmed.
The univariate ``Poly1`` (used for coefficient generating functions,
q-specializations and Chebyshev images) is one such trimmed sequence,
``c_e`` the coefficient of ``y^e``.  Both classes hold ints only, checked at
their public constructors, and add and multiply with the same kernels
(``_add``, ``_convolve``, ``_trimmed``), which ``shapes_tilings`` shares for
the tallies of its block-partition folds.

Every Lucas quantity is *weighted homogeneous*, a single weight (its tilings
cover a fixed number of cells), so it is one sequence (see ``CoeffSeq``).
Products convolve each pair of weights, and a product of two one-weight
polynomials is built straight from one convolution, which is already
trimmed.  ``_convolve`` runs the schoolbook loop when the shorter sequence
has fewer than ``PACK_MIN_TERMS`` = 14 terms.  Otherwise it multiplies by
two-point Kronecker substitution (Harvey, "Faster polynomial multiplication
via multipoint Kronecker substitution", J. Symbolic Comput. 2009): each
sequence's even-index and odd-index halves are packed into integers, their
values at 2^B, and the two bigint products (Karatsuba in CPython) of the
values at +2^(B/2) and -2^(B/2) give the product's even and odd halves,
read back as base-2^B digits.  The two products have operands of half the
bits of the one product of whole sequences packed at 2^B, which is about
two thirds of its cost under Karatsuba.  B is a whole number of bytes of at
least bits(max|f|) + bits(max|g|) + bits(min(len f, len g)) + 2, which
bounds every coefficient of the product, so the digits are exact.  Each
entry's bytes are written and read by ``int.to_bytes`` and
``int.from_bytes`` mapped in C, with an offset for balanced digits only
when some entry is negative; no Lucas quantity has one.  Measured on 4- to
300-bit entries, the packed product overtakes the loop at 11 to 17 terms
for operands of equal length and at 5 to 10 against a 100-term partner
(one-point packing, on the same machine: 10 to 21 and 5 to 19).
Exact division is graded long division: the dividend's top weight is divided
by the divisor's top weight as a univariate exact quotient, and the
divisor's lower weights times that quotient are subtracted from the lower
weights of the dividend.  It stays a loop: on the quotients' short divisors
a packed division measured slower.  Each quotient term subtracts one inner
product, whose index range is set by two conditional expressions, and a
divisor that leads with coefficient 1 (every {n} and every Lucas atom)
takes the remainder as the term with no ``divmod``.  On the 814 divisions
of the ``analysis`` peel over the benchmark's diagnostics pool that took
4.7 ms against 8.8 ms with ``max``/``min`` bounds and a ``divmod`` per term;
a ``sum(map(mul, ...))`` inner product over slices took 8.4 ms.

One remainder sequence, ``_remainder_chain``, serves the univariate gcd and
Sturm's theorem alike: ``real_rooted`` builds the chain of (f, f') once,
counts the distinct real roots off its signs and the distinct roots off its
last entry, gcd(f, f').  The chain is a primitive pseudo-remainder sequence:
each step scales the dividend by a power of |lc| of the divisor, and each
negated remainder is divided by its content.  Every scale factor is
positive, so every entry has the signs of the rational Euclidean chain's
entry, without leaving the integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from math import gcd
from operator import add, index, sub
from typing import Iterable, Mapping, Sequence


class DivisionByZero(ZeroDivisionError):
    """Division of a polynomial by the zero polynomial."""


class NotDivisible(ArithmeticError):
    """The quotient is not a polynomial with integer coefficients."""


class NotWeightedHomogeneous(ValueError):
    """The polynomial mixes weights a + 2b, so it has no coefficient sequence."""


Monomial = tuple[int, int]  # (s exponent, t exponent)
Part = tuple[int, ...]  # c_k = coefficient of s^(N-2k) t^k within weight N

_DECIMAL = re.compile(r"-?[1-9][0-9]*")  # a coefficient in the JSON wire format, never zero


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
            a, b = _exponents(a, b)
            _scatter(parts.setdefault(a + 2 * b, []), b, index(c))
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
        return _graded({0: (index(c),)})

    @staticmethod
    def monomial(s_exp: int, t_exp: int, coeff: int = 1) -> Poly2:
        s_exp, t_exp = _exponents(s_exp, t_exp)
        return _graded({s_exp + 2 * t_exp: (0,) * t_exp + (index(coeff),)})

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
        if (other := _lift(other, Poly2)) is NotImplemented:
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
        if (other := _lift(other, Poly2)) is NotImplemented:
            return NotImplemented
        parts: dict[int, Sequence[int]] = dict(self._parts)
        for n, seq in other._parts.items():
            _add_part(parts, n, seq)
        return _graded(parts)

    __radd__ = __add__

    def __neg__(self) -> Poly2:
        return _graded({n: tuple(-c for c in seq) for n, seq in self._parts.items()})

    def __sub__(self, other: Poly2 | int) -> Poly2:
        return self.__add__(-other)

    def __rsub__(self, other: int) -> Poly2:
        return (-self).__add__(other)

    def __mul__(self, other: Poly2 | int) -> Poly2:
        if (other := _lift(other, Poly2)) is NotImplemented:
            return NotImplemented
        if len(self._parts) == 1 == len(other._parts):
            # One weight each, as every Lucas quantity: the product of two
            # trimmed nonzero sequences ends in a nonzero entry, so it is canonical.
            [(na, fa)] = self._parts.items()
            [(nb, fb)] = other._parts.items()
            return _from_parts({na + nb: tuple(_convolve(fa, fb))})
        parts: dict[int, Sequence[int]] = {}
        for na, fa in self._parts.items():
            for nb, fb in other._parts.items():
                _add_part(parts, na + nb, _convolve(fa, fb))
        return _graded(parts)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly2:
        return _power(self, n, Poly2.one())

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
        """Map s and t to univariate polynomials and expand exactly.

        Each power of each image is built once, ascending, and each term
        adds its coefficient times the product of its two powers, all on
        coefficient sequences, so ``_convolve`` may pack the long products.
        """
        terms = self.terms()
        s_pows = _ascending_powers(s_image._coeffs, max((a for (a, _), _ in terms), default=0))
        t_pows = _ascending_powers(t_image._coeffs, max((b for (_, b), _ in terms), default=0))
        total: Sequence[int] = ()
        for (a, b), c in terms:
            total = _add(total, [c * x for x in _convolve(s_pows[a], t_pows[b])])
        return _dense(total)

    def specialize_q(self) -> Poly1:
        """Substitute s -> 1 + q, t -> -q; sends {n} to the q-integer [n]_q."""
        return self.substitute(Poly1({0: 1, 1: 1}), Poly1({1: -1}))

    # -- presentation --------------------------------------------------------

    def pretty(self) -> str:
        """Render like the display style ``s^3 + 2*s*t``; 0 for the zero poly."""
        return _pretty((c, (("s", a), ("t", b))) for (a, b), c in self.terms())

    def to_json_dict(self) -> dict:
        """Wire format: coefficients as decimal strings, (s desc, t asc) order."""
        return {
            "terms": [
                {"s": a, "t": b, "c": str(c)} for (a, b), c in self.terms()
            ]
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> Poly2:
        """Read ``to_json_dict``'s format, else ValueError.

        In every term ``s`` and ``t`` are JSON integers and ``c`` a nonzero
        decimal-integer string, and no two terms share their ``(s, t)``.
        """
        terms = {}
        for term in data["terms"]:
            exps, c = (term["s"], term["t"]), term["c"]
            if any(type(e) is not int for e in exps) or not (isinstance(c, str) and _DECIMAL.fullmatch(c)):
                raise ValueError(f"malformed polynomial term {term!r}")
            if exps in terms:
                raise ValueError(f"repeated polynomial term {term!r}")
            terms[exps] = int(c)
        return Poly2(terms)


def _pretty(terms: Iterable[tuple[int, Iterable[tuple[str, int]]]]) -> str:
    """The display rule for ``terms``, each (coefficient, its (variable, exponent) pairs), in order.

    A coefficient of +-1 is shown only on a constant, only a negative first
    term carries a sign, the others are joined with " + " or " - ", and an
    empty sum prints "0".
    """
    text = ""
    for c, powers in terms:
        factors = [var if e == 1 else f"{var}^{e}" for var, e in powers if e]
        body = "*".join(factors if abs(c) == 1 and factors else [str(abs(c)), *factors])
        if text:
            text += f" + {body}" if c > 0 else f" - {body}"
        else:
            text = body if c > 0 else f"-{body}"
    return text or "0"


def _power(base, n: int, one):
    """base**n by square-and-multiply: bit_length(n) - 1 squarings and popcount(n) - 1 products."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


def _ascending_powers(seq: Sequence, n: int) -> list[Sequence]:
    """seq^0, seq^1, ..., seq^n as coefficient sequences, each one product from the last."""
    powers: list[Sequence] = [(1,)]
    for _ in range(n):
        powers.append(_convolve(powers[-1], seq))
    return powers


def _trimmed(seq: Sequence) -> tuple:
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
    return _from_parts(_canonical(parts))


def _from_parts(parts: dict[int, Part]) -> Poly2:
    """The polynomial whose parts are ``parts``, already canonical: trimmed and nonempty tuples."""
    p = Poly2.__new__(Poly2)
    p._parts = parts
    p._hash = None
    return p


def _exponents(a, b) -> Monomial:
    """(a, b) as the exponents of a monomial: ints (``operator.index``), never negative."""
    a, b = index(a), index(b)
    if a < 0 or b < 0:
        raise ValueError(f"negative exponent in monomial {(a, b)}")
    return a, b


def _lift(other, cls):
    """other as a ``cls`` (an int becomes a constant), else NotImplemented, which Python turns into TypeError."""
    if isinstance(other, int):
        return cls.const(other)
    return other if isinstance(other, cls) else NotImplemented


def _scatter(seq: list, k: int, c) -> None:
    """seq[k] += c, growing seq with zeros as needed."""
    seq.extend([0] * (k + 1 - len(seq)))
    seq[k] += c


def _add(f: Sequence, g: Sequence) -> tuple:
    """f + g, coefficientwise and untrimmed."""
    if len(f) < len(g):
        f, g = g, f
    return (*map(add, f, g), *f[len(g) :])


def _add_part(parts: dict[int, Sequence[int]], n: int, seq: Sequence[int]) -> None:
    """parts[n] += seq, coefficientwise and untrimmed."""
    parts[n] = _add(parts.get(n, ()), seq)


# Below this many terms in the shorter operand the loop is faster than packing.
PACK_MIN_TERMS = 14


def _convolve(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """The coefficients of a product: c_k = sum of f_i g_j over i + j = k.

    Short operands take the schoolbook loop.  Long ones are multiplied by
    two-point Kronecker substitution.  B is a whole number of bytes with
    B >= bits(max|f|) + bits(max|g|) + bits(min(len f, len g)) + 2, so each
    c_k, a sum of at most min(len f, len g) products, has |c_k| < 2^(B-2).
    Split f(x) = fe(x^2) + x fo(x^2), and g and c likewise, and put b = B/2.
    With the halves packed at 2^B, f(+-2^b) = fe(2^B) +- 2^b fo(2^B), so the
    two bigint products plus = f(2^b) g(2^b) and minus = f(-2^b) g(-2^b),
    on operands of half the bits of f(2^B) and g(2^B), are ce(2^B) +- 2^b
    co(2^B).  Hence plus + minus = 2 ce(2^B) and plus - minus =
    2^(b+1) co(2^B): both shifts below are exact, whatever the signs.  The
    coefficients of ce and co are then read back as base-2^B digits.  With
    no negative entry every c_k lies in [0, 2^B); otherwise adding 2^(B-1)
    to every digit puts each in [0, 2^B), since |c_k| < 2^(B-1).  Either
    way no digit carries into the next, so every c_k is read exactly, with
    no check afterwards.
    """
    if len(f) > len(g):
        f, g = g, f
    if len(f) < PACK_MIN_TERMS:
        return _schoolbook(f, g)
    f_lo, g_lo = min(f), min(g)
    bits = max(max(f), -f_lo).bit_length() + max(max(g), -g_lo).bit_length() + len(f).bit_length() + 2
    width = (bits + 7) // 8  # B / 8
    pack, unpack = (_pack, _unpack) if f_lo >= 0 <= g_lo else (_pack_signed, _unpack_signed)
    fe, fo, ge, go = pack(f[::2], width), pack(f[1::2], width), pack(g[::2], width), pack(g[1::2], width)
    shift = 4 * width  # b
    fo <<= shift
    go <<= shift
    plus, minus = (fe + fo) * (ge + go), (fe - fo) * (ge - go)
    n = len(f) + len(g) - 1
    out = [0] * n
    out[::2] = unpack((plus + minus) >> 1, width, (n + 1) // 2)
    out[1::2] = unpack((plus - minus) >> (shift + 1), width, n // 2)
    return out


def _pack(seq: Sequence[int], width: int) -> int:
    """sum seq[i] 2^(8 width i), for entries with 0 <= seq[i] < 2^(8 width); each entry's bytes are written in C."""
    return int.from_bytes(b"".join(map(int.to_bytes, seq, repeat(width), repeat("little"))), "little")


def _unpack(value: int, width: int, n: int) -> list[int]:
    """The n base-2^(8 width) digits of 0 <= value < 2^(8 width n), lowest first; each is read in C."""
    digits = value.to_bytes(width * n, "little")
    fields = map(slice, range(0, width * n, width), range(width, width * (n + 1), width))
    return list(map(int.from_bytes, map(digits.__getitem__, fields), repeat("little")))


def _pack_signed(seq: Sequence[int], width: int) -> int:
    """sum seq[i] 2^(8 width i), for entries with |seq[i]| < 2^(8 width): the positive part's value minus the negative part's."""
    return _pack([c if c > 0 else 0 for c in seq], width) - _pack([-c if c < 0 else 0 for c in seq], width)


def _unpack_signed(value: int, width: int, n: int) -> list[int]:
    """The n balanced digits c_i of value = sum c_i 2^(8 width i), -2^(8 width - 1) <= c_i < 2^(8 width - 1), lowest first."""
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")  # half in every digit
    return list(map(sub, _unpack(value + offset, width, n), repeat(half)))


def _schoolbook(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """``_convolve`` term by term, for short operands."""
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
    g0, last = g[0], len(g) - 1
    h = [0] * (deg_h + 1)
    for k in range(len(f)):
        acc = f[k]
        for j in range(k - deg_h if k > deg_h else 1, (k if k < last else last) + 1):
            acc -= g[j] * h[k - j]
        if k > deg_h:
            if acc:
                raise NotDivisible("nonzero remainder")
        elif g0 == 1:  # every Lucas atom and {n} leads with s^N: no division
            h[k] = acc
        else:
            q, r = divmod(acc, g0)
            if r:
                raise NotDivisible("non-integer coefficient in quotient")
            h[k] = q
    # h * g == f makes h[deg_h] = f[-1] / g[-1] nonzero: deg_h is h's top t-exponent.
    if 2 * deg_h > np_ - nq:
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
        return _dense(self.coeffs)


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
    """A univariate polynomial with integer coefficients.

    Stored as one trimmed tuple of ints, ``c[e]`` the coefficient of
    ``y^e``, on the same kernels as ``Poly2``'s parts.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        seq: list[int] = []
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for e, c in items:
            if e < 0:
                raise ValueError("negative exponent")
            _scatter(seq, e, index(c))
        self._coeffs = _trimmed(seq)

    @staticmethod
    def const(c: int) -> Poly1:
        return Poly1({0: c})

    @staticmethod
    def var() -> Poly1:
        return Poly1({1: 1})

    def coeff(self, e: int) -> int:
        return self._coeffs[e] if 0 <= e < len(self._coeffs) else 0

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if (other := _lift(other, Poly1)) is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: Poly1 | int) -> Poly1:
        if (other := _lift(other, Poly1)) is NotImplemented:
            return NotImplemented
        return _dense(_add(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __neg__(self) -> Poly1:
        return _dense([-c for c in self._coeffs])

    def __sub__(self, other: Poly1 | int) -> Poly1:
        return self.__add__(-other)

    def __rsub__(self, other: int) -> Poly1:
        return (-self).__add__(other)

    def __mul__(self, other: Poly1 | int) -> Poly1:
        if (other := _lift(other, Poly1)) is NotImplemented:
            return NotImplemented
        return _dense(_convolve(self._coeffs, other._coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly1:
        return _power(self, n, Poly1.const(1))

    def derivative(self) -> Poly1:
        return _dense([e * c for e, c in enumerate(self._coeffs) if e])

    def evaluate(self, x: int) -> int:
        """The value at x by Horner's rule, one multiply and add per coefficient; exact for an int or a rational x."""
        value = 0
        for c in reversed(self._coeffs):
            value = value * x + c
        return value

    def pretty(self, var: str = "y") -> str:
        """Render like ``y^2 - 3*y + 1``, highest power first; 0 for the zero poly."""
        return _pretty((c, ((var, e),)) for e, c in reversed(list(enumerate(self._coeffs))) if c)

    def __repr__(self) -> str:
        return f"Poly1({self.pretty()!r})"


def _dense(seq: Sequence) -> Poly1:
    """The polynomial with ``seq[e]`` the coefficient of ``y^e``, in canonical form."""
    p = Poly1.__new__(Poly1)
    p._coeffs = _trimmed(seq)
    return p


# -- exact real-rootedness ----------------------------------------------------


def _remainder_chain(f: Poly1, g: Poly1) -> list[tuple[int, ...]]:
    """f, g, then each negated pseudo-remainder, as primitive int sequences.

    Each step scales the dividend by a power of |lc| of the divisor, and
    every entry is divided by its positive content: all positive factors, so
    each entry is a positive multiple of the rational Euclidean chain's entry
    and has its signs.  For g = f' the chain is f's Sturm chain; its last
    entry is gcd(f, g) up to a constant.
    """
    chain = [_primitive(f._coeffs), _primitive(g._coeffs)]
    while chain[-1]:
        chain.append(_primitive([-c for c in _pseudo_remainder(chain[-2], chain[-1])]))
    chain.pop()  # the zero remainder, or g itself when g == 0
    return chain


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """ints divided by their positive content, trimmed."""
    content = gcd(*ints)
    return _trimmed([c // content for c in ints] if content > 1 else ints)


def _pseudo_remainder(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """|lc(g)|^j * f modulo g for some j >= 0, by integer long division."""
    *low, lc = g
    scale, sign = abs(lc), 1 if lc > 0 else -1
    rem = list(f)
    for e in reversed(range(len(rem) - len(low))):
        c = sign * rem.pop()
        if c:  # cancel the leading term: rem <- scale * rem - c * y^e * g
            head = rem[:e] if scale == 1 else [scale * x for x in rem[:e]]
            rem = head + [scale * x - c * y for x, y in zip(rem[e:], low)]
    return rem


def _variations(signs: list[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_count(chain: list[tuple[int, ...]]) -> int:
    """Sign variations of a chain of nonzero polynomials at -oo minus those at +oo."""
    at_pos = [seq[-1] > 0 for seq in chain]
    at_neg = [pos == (len(seq) % 2 == 1) for seq, pos in zip(chain, at_pos)]
    return _variations(at_neg) - _variations(at_pos)


def count_real_roots(f: Poly1) -> int:
    """Number of distinct real roots of f != 0, by Sturm's theorem.

    The chain of (f, f') counts distinct roots even when f has repeated ones:
    every entry is a multiple of the last one, gcd(f, f'), and dividing that
    out gives the square-free part's chain while flipping all or none of the
    signs at each of +-oo, which leaves both variation counts unchanged.
    """
    if f.degree() <= 0:
        return 0
    return _sturm_count(_remainder_chain(f, f.derivative()))


def poly1_gcd(f: Poly1, g: Poly1) -> Poly1:
    """Euclidean gcd, primitive with a positive leading coefficient; 1 if f == g == 0."""
    last = _remainder_chain(f, g)[-1]
    if not last:
        return Poly1.const(1)
    return _dense(last if last[-1] > 0 else [-c for c in last])


def real_rooted(f: Poly1) -> bool:
    """Exact test that every complex root of f != 0 is real.

    One remainder chain of (f, f') decides it: Sturm's theorem counts the
    distinct real roots off its signs, and its last entry is gcd(f, f'), so
    f has deg f - deg gcd(f, f') distinct complex roots.  f is real-rooted
    iff the two counts agree.  Degree-0 inputs are vacuously real-rooted.
    """
    if not f:
        raise ValueError("real_rooted is undefined for the zero polynomial")
    chain = _remainder_chain(f, f.derivative())
    return _sturm_count(chain) == f.degree() - (len(chain[-1]) - 1)

"""The Lucas sequence {n} and the algebra built on it.

{0} = 0, {1} = 1 and {n} = s*{n-1} + t*{n-2}.  From these one forms the
Lucastorial {n}! = {1}{2}...{n}, the Lucasnomial {n}!/({k}!{n-k}!), their
d-divisible analogues {n:d}! = {d}{2d}...{nd}, the divisibility facts
({m} | {n} iff m | n, gcd behaviour), and the Chebyshev image {n} = U_{n-1}
under s = 2x, t = -1.  Everything returns exact ``Poly2``/``Poly1`` values.

Every quotient prod {a_i} / prod {b_j} goes through one engine,
``lucas_quotient``.  It factors each {n} into the Lucas atoms P_d, d | n,
d >= 2 (Sagan and Tirrell), which are pairwise coprime irreducibles, so the
quotient is a polynomial iff every atom's exponent is nonnegative, and then
it is the product of the atom powers: no {n}! and no trial division.
``atom_values`` gives each atom's weight and its value at (1, y0) in plain
ints, which ``analysis`` uses to tell which atoms can divide a polynomial.

Specializations worth remembering: (s,t) = (1,1) gives Fibonacci numbers,
(2,-1) gives the integers, and s = 1+q, t = -q gives q-integers.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Iterable

from .polyring import NotDivisible, Poly1, Poly2


class NegativeAtom(NotDivisible):
    """A Lucas quotient that is not a polynomial: atom P_d has a negative exponent."""

    def __init__(self, d: int, exponent: int) -> None:
        super().__init__(f"not a polynomial: atom P_{d} has exponent {exponent}")
        self.d, self.exponent = d, exponent


class LucasCache:
    """Grow-only table of {0}, {1}, ... shared by every caller in a process.

    Reads are lock-free once an index is cached; extension happens under a
    lock, so concurrent callers at worst wait, never see a torn table.
    """

    def __init__(self) -> None:
        self._memo: list[Poly2] = [Poly2.zero(), Poly2.one()]
        self._lock = threading.Lock()

    def get(self, n: int) -> Poly2:
        if n < 0:
            raise ValueError("Lucas polynomials are indexed by nonnegative integers")
        memo = self._memo
        if n < len(memo):
            return memo[n]
        with self._lock:
            s, t = Poly2.var_s(), Poly2.var_t()
            while len(self._memo) <= n:
                m = len(self._memo)
                self._memo.append(s * self._memo[m - 1] + t * self._memo[m - 2])
            return self._memo[n]


_CACHE = LucasCache()


def lucas(n: int) -> Poly2:
    """The n-th Lucas polynomial {n}."""
    return _CACHE.get(n)


@lru_cache(maxsize=None)
def lucastorial(n: int) -> Poly2:
    """{n}! = {n:1}! = {1}{2}...{n}, with {0}! = 1 (empty product); the tilings' divisors are built from it."""
    if n < 0:
        raise ValueError("negative Lucastorial index")
    return d_lucastorial(n, 1)


@lru_cache(maxsize=None)
def _atom_indices(n: int) -> tuple[int, ...]:
    """The d >= 2 dividing n, in increasing order: {n} is the product of these P_d."""
    return tuple(d for d in range(2, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def lucas_atom(d: int) -> Poly2:
    """The Lucas atom P_d: {d} divided by the atoms P_e of its divisors 2 <= e < d.

    P_d(X+Y, -XY) is the homogenised cyclotomic polynomial Phi_d(X, Y), so
    P_d is irreducible and its q-specialization is Phi_d(q).
    """
    if d < 2:
        raise ValueError("Lucas atoms are indexed by d >= 2")
    proper = Poly2.one()
    for e in _atom_indices(d)[:-1]:
        proper = proper * lucas_atom(e)
    return lucas(d).exact_div(proper)


# y0 -> (weights, values, ({n-2}, {n-1}) at (1, y0)) of the largest sieve built, n = len(values).
# Each entry is replaced whole, never changed in place, so a reader always sees a finished table.
_SIEVES: dict[int, tuple[tuple[int, ...], tuple[int, ...], tuple[int, int]]] = {}


@lru_cache(maxsize=16)
def atom_values(y0: int, bound: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For 2 <= d < bound, the weight phi(d) of P_d and the value P_d(1, y0), in plain ints.

    {n}(1, y0) follows {n} = {n-1} + y0 {n-2}, and a sieve divides each
    P_e(1, y0) out of every proper multiple of e, as ``lucas_atom`` divides
    the polynomials; the weight n - 1 of {n} splits the same way.  No
    polynomial is built.  The entries at d = 0 and 1 are not atoms.

    One sieve per y0 grows with the largest bound asked for: a larger bound
    appends the new {n}(1, y0), from the last two kept, and divides each
    P_e(1, y0) out of its multiples among them only.  Every P_e with e < n
    is final before it divides {n}, so the tables are those of a sieve run
    from d = 2 up to the bound.
    """
    weights, values, (a, b) = _SIEVES.get(y0, ((-1, 0), (0, 1), (0, 1)))
    start = len(values)
    if bound > start:
        weights, values = list(weights), list(values)
        for n in range(start, bound):
            a, b = b, b + y0 * a
            values.append(b)
            weights.append(n - 1)
        for e in range(2, bound):
            for m in range(max(2 * e, -(-start // e) * e), bound, e):
                values[m] //= values[e]
                weights[m] -= weights[e]
        weights, values = tuple(weights), tuple(values)
        _SIEVES[y0] = weights, values, (a, b)
    end = max(bound, 2)
    return weights[:end], values[:end]


def lucas_quotient(num: Iterable[int], den: Iterable[int]) -> Poly2:
    """prod {a} over a in num divided by prod {b} over b in den.

    P_d's exponent is the number of indices in num that d divides minus the
    number in den.  Raises ValueError for an index below 1 ({0} = 0 is no
    empty product) and ``NegativeAtom``, a NotDivisible that carries the
    smallest atom with a negative exponent and that exponent.  The atom
    powers are multiplied as a balanced product tree, neighbours pairwise,
    level by level: the operands of the late, large products are long, so
    ``polyring._convolve`` multiplies them as packed integers, two bigint
    products of half-size operands each, rather than term by term.  Every
    product is a ``Poly2`` product of one weight by one weight, built
    straight from one convolution, and goes through ``Poly2.__mul__``, where
    a tracer sees it.  A tree on bare coefficient sequences measured no
    faster.
    """
    exponents: dict[int, int] = {}
    for sign, indices in ((1, num), (-1, den)):
        for n in indices:
            if n < 1:
                raise ValueError(f"quotient index {n} < 1: {{{n}}} is not a product of atoms")
            for d in _atom_indices(n):
                exponents[d] = exponents.get(d, 0) + sign
    negative = [d for d, e in exponents.items() if e < 0]
    if negative:
        d = min(negative)
        raise NegativeAtom(d, exponents[d])
    factors = [lucas_atom(d) ** e for d, e in sorted(exponents.items()) if e]
    while len(factors) > 1:
        pairs = [a * b for a, b in zip(factors[::2], factors[1::2])]
        factors = pairs + factors[-1:] if len(factors) % 2 else pairs
    return factors[0] if factors else Poly2.one()


def lucasnomial_indices(n: int, k: int, d: int = 1) -> tuple[list[int], list[int]]:
    """{n:d brace k:d} as ``lucas_quotient`` indices: d, 2d, ..., nd over d..kd and d..(n-k)d."""
    return list(range(d, n * d + 1, d)), [*range(d, k * d + 1, d), *range(d, (n - k) * d + 1, d)]


@lru_cache(maxsize=None)
def lucasnomial(n: int, k: int) -> Poly2:
    """{n brace k} = {n}!/({k}!{n-k}!); zero outside 0 <= k <= n.

    {n brace k} = {n brace n-k}, so a k above n/2 is looked up under its
    mirror key (n, n-k): both keys hold one value, computed once.
    """
    if n < 0:
        raise ValueError("negative Lucasnomial index")
    if k < 0 or k > n:
        return Poly2.zero()
    if 2 * k > n:
        return lucasnomial(n, n - k)
    return lucas_quotient(*lucasnomial_indices(n, k))


@lru_cache(maxsize=None)
def d_lucastorial(n: int, d: int) -> Poly2:
    """{n:d}! = {d}{2d}...{nd}."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    if n == 0:
        return Poly2.one()
    return d_lucastorial(n - 1, d) * lucas(n * d)


@lru_cache(maxsize=None)
def d_lucasnomial(n: int, k: int, d: int) -> Poly2:
    """{n:d brace k:d} = {n:d}!/({k:d}!{n-k:d}!); zero outside 0 <= k <= n.

    Symmetric in k and n - k like ``lucasnomial``: a k above n/2 is looked
    up under its mirror key (n, n-k, d).
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    if k < 0 or k > n:
        return Poly2.zero()
    if 2 * k > n:
        return d_lucasnomial(n, n - k, d)
    return lucas_quotient(*lucasnomial_indices(n, k, d))


def verify_lucasnomial_recursion(n: int, k: int) -> bool:
    """{n brace k} = {k+1}{n-1 brace k} + t{n-k-1}{n-1 brace k-1}, 0 < k < n."""
    if not 0 < k < n:
        raise ValueError("recursion holds for 0 < k < n")
    rhs = lucas(k + 1) * lucasnomial(n - 1, k) + Poly2.var_t() * lucas(n - k - 1) * lucasnomial(n - 1, k - 1)
    return lucasnomial(n, k) == rhs


def symmetry_sides(n: int, k: int, r: int) -> tuple[Poly2, Poly2]:
    """The two sides {k}...{k-r+1} {n brace k} and {n-k+r}...{n-k+1} {n brace n-k+r}.

    r is the strip-count parameter (the source calls it t, which collides
    with the indeterminate).  Requires 0 <= r <= k <= n.
    """
    if not 0 <= r <= k <= n:
        raise ValueError("need 0 <= r <= k <= n")
    lhs = lucasnomial(n, k)
    for i in range(r):
        lhs = lhs * lucas(k - i)
    rhs = lucasnomial(n, n - k + r)
    for j in range(1, r + 1):
        rhs = rhs * lucas(n - k + j)
    return lhs, rhs


def verify_symmetry_identity(n: int, k: int, r: int) -> bool:
    """{k}...{k-r+1} {n brace k} = {n-k+r}...{n-k+1} {n brace n-k+r}."""
    lhs, rhs = symmetry_sides(n, k, r)
    return lhs == rhs


def lucas_divides(m: int, n: int) -> Poly2 | None:
    """{n}/{m} when m | n, else None.

    Mirrors the divisibility theorem: {m} | {n} iff m | n, and the quotient
    has nonnegative integer coefficients.  Both clauses are asserted, so a
    violation (impossible, per the theorem) surfaces loudly.
    """
    if m < 1 or n < 1:
        raise ValueError("need positive indices")
    try:
        quotient = lucas(n).exact_div(lucas(m))
    except NotDivisible:
        quotient = None
    if n % m == 0:
        if quotient is None:
            raise AssertionError(f"{{{m}}} should divide {{{n}}}")
        if not quotient.is_nonnegative():
            raise AssertionError(f"quotient {{{n}}}/{{{m}}} has a negative coefficient")
        return quotient
    if quotient is not None:
        raise AssertionError(f"{{{m}}} unexpectedly divides {{{n}}}")
    return None


def verify_gcd_lemma(m: int, n: int) -> bool:
    """Divisibility restatement of ({m},{n}) = {(m,n)}.

    For every e up to max(m,n): {e} divides both {m} and {n} iff e divides
    gcd(m,n).  Stated through division attempts so no multivariate gcd is
    ever needed.
    """
    if m < 1 or n < 1:
        raise ValueError("need positive indices")
    import math

    g = math.gcd(m, n)
    for e in range(1, max(m, n) + 1):
        divides_both = _poly_divides(lucas(e), lucas(m)) and _poly_divides(lucas(e), lucas(n))
        if divides_both != (g % e == 0):
            return False
    return True


def _poly_divides(d: Poly2, p: Poly2) -> bool:
    try:
        p.exact_div(d)
        return True
    except NotDivisible:
        return False


@lru_cache(maxsize=None)
def chebyshev_U(n: int) -> Poly1:
    """Chebyshev polynomial of the second kind: U_0 = 1, U_1 = 2x,
    U_n = 2x U_{n-1} - U_{n-2}.  Exact integer coefficients."""
    if n < 0:
        raise ValueError("negative Chebyshev index")
    if n == 0:
        return Poly1.const(1)
    if n == 1:
        return Poly1({1: 2})
    return Poly1({1: 2}) * chebyshev_U(n - 1) - chebyshev_U(n - 2)


def verify_chebyshev_bridge(n: int) -> bool:
    """{n} becomes U_{n-1}(x) under s -> 2x, t -> -1."""
    if n < 1:
        raise ValueError("need n >= 1")
    image = lucas(n).substitute(Poly1({1: 2}), Poly1.const(-1))
    return image == chebyshev_U(n - 1)

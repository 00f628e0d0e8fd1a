"""Catalan-family analogues: Catalan, Fuss-Catalan, Coxeter-Catalan, rational
Catalan and Narayana polynomials in s and t.

Each is a quotient of products of Lucas polynomials.  The Coxeter quotients
and genCatD go through the atom engine ``lucas.lucas_quotient``; the Fuss
and rational Catalan quotients divide a cached Lucasnomial by one {m}, and
Narayana divides two cached Lucasnomials by complementary factors of {n}, so
they share ``lucasnomial``'s cache.  Lucasnomials and Narayana polynomials
are symmetric, {n brace k} = {n brace n-k} and N_{n,k} = N_{n,n+1-k}, so
each is computed under its low key only and the mirror side is a cache hit.
For the Coxeter versions the degrees of the finite irreducible groups are
hard-coded from the classification table; Cat W is the quotient of
{h + d_i} by {d_i} over the degrees with h the Coxeter number (largest
degree), and the Fuss version uses kh + d_i.

Some nonnegativity statements are theorems (types A, B, D, I2 and all the
plain Coxeter-Catalan numbers) and are asserted; others are open (rational
Catalan, Narayana) and the sweeps report findings instead of failing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .lucas import NegativeAtom, d_lucasnomial, lucas, lucas_quotient, lucasnomial, lucasnomial_indices
from .polyring import NotDivisible, Poly2


class NotCoprime(ValueError):
    """Rational Catalan parameters must have gcd 1."""


EXCEPTIONAL_DEGREES = {
    "H3": (2, 6, 10),
    "H4": (2, 12, 20, 30),
    "F4": (2, 6, 8, 12),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}

FAMILIES = ("A", "B", "D", "I2") + tuple(EXCEPTIONAL_DEGREES)


@dataclass(frozen=True)
class CoxeterType:
    """A finite irreducible Coxeter group: family plus rank (or m for I2)."""

    family: str
    param: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in EXCEPTIONAL_DEGREES:
            if self.param is not None:
                raise ValueError(f"{self.family} takes no parameter")
        elif self.param is None:
            raise ValueError(f"{self.family} needs a rank parameter")
        elif self.family == "A" and self.param < 1:
            raise ValueError("A_n needs n >= 1")
        elif self.family == "B" and self.param < 1:
            raise ValueError("B_n needs n >= 1")
        elif self.family == "D" and self.param < 3:
            raise ValueError("D_n needs n >= 3")
        elif self.family == "I2" and self.param < 2:
            raise ValueError("I_2(m) needs m >= 2")

    def degrees(self) -> tuple[int, ...]:
        n = self.param
        if self.family == "A":
            return tuple(range(2, n + 2))
        if self.family == "B":
            return tuple(2 * i for i in range(1, n + 1))
        if self.family == "D":
            # Listed as printed: 2, 4, ..., 2(n-1), n -- not sorted.
            return tuple(2 * i for i in range(1, n)) + (n,)
        if self.family == "I2":
            return (2, n)
        return EXCEPTIONAL_DEGREES[self.family]

    def coxeter_number(self) -> int:
        return max(self.degrees())

    def __str__(self) -> str:
        if self.family == "I2":
            return f"I2({self.param})"
        if self.param is not None:
            return f"{self.family}{self.param}"
        return self.family


@lru_cache(maxsize=None)
def lucas_catalan(n: int) -> Poly2:
    """C_{n} = {2n brace n}/{n+1}, the Fuss-Catalan analogue C_{n,1}."""
    if n < 0:
        raise ValueError("need n >= 0")
    return fuss_catalan(n, 1)


def verify_catalan_identity(n: int) -> bool:
    """C_{n} = {2n-1 brace n-1} + t {2n-1 brace n-2} for n >= 2."""
    if n < 2:
        raise ValueError("identity stated for n >= 2")
    rhs = lucasnomial(2 * n - 1, n - 1) + Poly2.var_t() * lucasnomial(2 * n - 1, n - 2)
    return lucas_catalan(n) == rhs


@lru_cache(maxsize=None)
def fuss_catalan(n: int, k: int) -> Poly2:
    """C_{n,k} = {(k+1)n brace n}/{kn+1}; k = 1 is the Catalan case."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    value = lucasnomial((k + 1) * n, n).exact_div(lucas(k * n + 1))
    if not value.is_nonnegative():
        raise AssertionError(f"Fuss-Catalan analogue C_{n},{k} has a negative coefficient")
    return value


def verify_fuss_identity(n: int, k: int) -> bool:
    """C_{n,k} = {(k+1)n-1 brace n-1}
              + sum_{m=1..k} t^m {n-1}^(m-1) {(k-m)n+1} {(k+1)n-1 brace n-2}.

    The m-th summand collects the blocks whose first-row window index is m:
    one deflecting domino plus m-1 further forced dominoes give t^m, the m-1
    stretches between them weigh {n-1} each, and the tail of the first row
    weighs {(k-m)n+1}.  At k = 1 this is the Catalan identity.
    """
    if n < 2 or k < 1:
        raise ValueError("identity stated for n >= 2, k >= 1")
    t = Poly2.var_t()
    rhs = lucasnomial((k + 1) * n - 1, n - 1)
    for m in range(1, k + 1):
        rhs = rhs + (
            t**m
            * lucas(n - 1) ** (m - 1)
            * lucas((k - m) * n + 1)
            * lucasnomial((k + 1) * n - 1, n - 2)
        )
    return fuss_catalan(n, k) == rhs


@lru_cache(maxsize=None)
def coxeter_catalan(w: CoxeterType) -> Poly2:
    """Cat {W} = prod {h + d_i} / prod {d_i} = Cat^(1) {W}; a nonnegative polynomial."""
    return coxeter_fuss_catalan(w, 1)


@lru_cache(maxsize=None)
def coxeter_fuss_catalan(w: CoxeterType, k: int) -> Poly2:
    """Cat^(k) {W} = prod {kh + d_i} / prod {d_i}.

    Polynomiality with nonnegative coefficients is a theorem for A, B, D and
    I2 and for every type at k = 1 (asserted here); for the exceptional types
    at k > 1 the quotient is computed and the caller decides what to do with
    negative coefficients.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    h = w.coxeter_number()
    value = lucas_quotient([k * h + d for d in w.degrees()], w.degrees())
    if (k == 1 or w.family in ("A", "B", "D", "I2")) and not value.is_nonnegative():
        raise AssertionError(f"Cat^({k}) {w} has a negative coefficient")
    return value


def verify_catD(n: int) -> bool:
    """Cat D_{n} = ({3n-2}/{n}) {2(n-1):2 brace n-1:2}, as exact polynomials."""
    if n < 3:
        raise ValueError("D_n needs n >= 3")
    rhs = (lucas(3 * n - 2) * d_lucasnomial(2 * (n - 1), n - 1, 2)).exact_div(lucas(n))
    return coxeter_catalan(CoxeterType("D", n)) == rhs


def genCatD(l: int, k: int, m: int, d: int, n: int) -> Poly2:
    """({(dm-l)n - (m-1)d}/{gn}) {m(n-1):d brace kn-1:d} with g = gcd(kd, kd-l).

    Defined for l < kd < md and n large enough that every index is in range.
    """
    if not 0 < l < k * d < m * d:
        raise ValueError("need 0 < l < kd < md")
    if not genCatD_in_range(l, k, m, d, n):
        raise ValueError("degenerate parameters: index out of range at this n")
    num, den = lucasnomial_indices(m * (n - 1), k * n - 1, d)
    return lucas_quotient([(d * m - l) * n - (m - 1) * d, *num], [gcd(k * d, k * d - l) * n, *den])


def genCatD_in_range(l: int, k: int, m: int, d: int, n: int) -> bool:
    """True when the genCatD indices are all defined at this n."""
    return (d * m - l) * n - (m - 1) * d >= 0 and k * n - 1 <= m * (n - 1)


def verify_genCatD(l: int, k: int, m: int, d: int, n: int) -> bool:
    """The generalized quotient divides exactly and has nonnegative coefficients."""
    try:
        return genCatD(l, k, m, d, n).is_nonnegative()
    except NotDivisible:
        return False


@lru_cache(maxsize=None)
def rational_catalan(a: int, b: int) -> Poly2:
    """Cat {a,b} = {a+b brace a}/{a+b} for coprime a, b.

    Polynomiality is a theorem (so NotDivisible escaping would signal a bug);
    nonnegativity is only conjectured and is left to the caller to inspect.
    """
    if a < 1 or b < 1:
        raise ValueError("need positive a, b")
    if gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a},{b}) != 1")
    return lucasnomial(a + b, a).exact_div(lucas(a + b))


@lru_cache(maxsize=None)
def narayana(n: int, k: int) -> Poly2:
    """N_{n,k} = (1/{n}) {n brace k} {n brace k-1} for 1 <= k <= n.

    The division by {n} is split between the two factors before they are
    multiplied: with g = gcd(n, k),
    N_{n,k} = ({n brace k} / ({n}/{g})) ({n brace k-1} / {g}).
    Both quotients are exact.  {n} is the product of the Lucas atoms P_d,
    d | n, d >= 2, and for such d the exponent of P_d in {n brace j} is
    n/d - floor(j/d) - floor((n-j)/d), which is 1 when d does not divide j.
    {n}/{g} is the product of the P_d with d | n and d not dividing k, each
    a factor of {n brace k}; {g} is the product of those with d | k, and
    such a d >= 2 does not divide k - 1, so each is a factor of
    {n brace k-1}.  The factors come from ``lucasnomial``, so its cache
    fills as before.

    N_{n,k} = N_{n,n+1-k}: both are {n brace k}{n brace k-1}/{n}.  So a k
    with 2k > n + 1 is looked up under its mirror key (n, n+1-k), and the
    mirror side of a sweep is a cache hit.

    Nonnegativity is conjectural; NotDivisible would be a counterexample to
    polynomiality and is deliberately allowed to propagate.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if 2 * k > n + 1:
        return narayana(n, n + 1 - k)
    g = gcd(n, k)
    left = lucasnomial(n, k).exact_div(lucas(n).exact_div(lucas(g)))
    return left * lucasnomial(n, k - 1).exact_div(lucas(g))


# -- findings sweeps -----------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One line of a conjecture/consistency sweep report."""

    op: str
    params: dict
    status: str  # pass | fail | finding
    detail: str = ""

    def to_json_line(self) -> str:
        return json.dumps(
            {"op": self.op, "params": self.params, "status": self.status, "detail": self.detail},
            sort_keys=True,
        )


def _sweep(op: str, points, compute, not_polynomial: str = "finding") -> list[Finding]:
    """One Finding per parameter dict in ``points`` for the value ``compute(params)``.

    A quotient that is not a polynomial gets status ``not_polynomial``, a
    negative coefficient is a finding, and anything else passes.  When
    ``lucas_quotient`` found the quotient not a polynomial, the detail names
    the atom and its negative exponent.
    """
    findings = []
    for params in points:
        try:
            value = compute(params)
        except NotDivisible as exc:
            detail = str(exc) if isinstance(exc, NegativeAtom) else "not a polynomial"
            findings.append(Finding(op, params, not_polynomial, detail))
            continue
        if value.is_nonnegative():
            findings.append(Finding(op, params, "pass"))
        else:
            findings.append(Finding(op, params, "finding", "negative coefficient"))
    return findings


def narayana_findings(max_n: int) -> list[Finding]:
    """Sweep the Narayana nonnegativity conjecture up to max_n."""
    points = ({"n": n, "k": k} for n in range(1, max_n + 1) for k in range(1, n + 1))
    return _sweep("narayana", points, lambda p: narayana(p["n"], p["k"]))


def rational_catalan_findings(max_ab: int) -> list[Finding]:
    """Sweep rational Catalan polynomiality (theorem) and nonnegativity (open)."""
    points = (
        {"a": a, "b": b}
        for a in range(1, max_ab + 1)
        for b in range(a + 1, max_ab + 1)
        if gcd(a, b) == 1
    )
    return _sweep(
        "rational_catalan", points, lambda p: rational_catalan(p["a"], p["b"]), not_polynomial="fail"
    )


def exceptional_fuss_findings(max_k: int) -> list[Finding]:
    """Check Cat^(k) of the exceptional groups: division and nonnegativity."""
    points = ({"type": family, "k": k} for family in EXCEPTIONAL_DEGREES for k in range(1, max_k + 1))
    return _sweep(
        "coxeter_fuss_catalan", points, lambda p: coxeter_fuss_catalan(CoxeterType(p["type"]), p["k"])
    )

"""Coefficient-sequence diagnostics: unimodality, log-concavity, real roots.

A weighted-homogeneous polynomial collapses to its coefficient sequence
a_0, ..., a_m (see ``polyring.coeff_view``); this module asks the standard
questions about that sequence.  Real-rootedness of f(y) = sum a_k y^k is
decided exactly by a Sturm count, and for positive sequences it implies
log-concavity, which implies unimodality.

The Sturm count runs only on what the Lucas atoms leave.  For p and q of
one weight each, the generating function of p*q is the product of theirs.
P_d(X+Y, -XY) is the homogenised cyclotomic polynomial Phi_d(X, Y), so for
d >= 3 the generating function of P_d has the phi(d)/2 distinct real roots
y = -1/(4 cos^2(pi j/d)), gcd(j, d) = 1, j < d/2 (P_2 = s has none).  So
f = A * h, with A a product of atoms, has only real roots exactly when h
does, and ``peel_atoms`` divides the atoms out before ``real_rooted`` sees
f.  Every Lucas analogue is a quotient of {n}s, so its h is 1, and a
chain of degree 120 (Cat E8) becomes one of degree 0.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from functools import lru_cache

from .lucas import atom_values, lucas_atom
from .polyring import CoeffSeq, NotDivisible, Poly2, _hom_exact_div, coeff_view, real_rooted


@dataclass(frozen=True)
class CoeffReport:
    weight: int
    coeffs: tuple[int, ...]
    unimodal: bool
    log_concave: bool
    real_rooted: bool

    def to_json_dict(self) -> dict:
        return {
            "weight": self.weight,
            "coeffs": [str(c) for c in self.coeffs],
            "unimodal": self.unimodal,
            "log_concave": self.log_concave,
            "real_rooted": self.real_rooted,
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["k", "a_k"])
        for k, a in enumerate(self.coeffs):
            writer.writerow([k, a])
        return out.getvalue()


def is_unimodal(seq) -> bool:
    """a_0 <= ... <= a_m >= ... for some peak index m."""
    rising = True
    for prev, cur in zip(seq, seq[1:]):
        if rising and cur < prev:
            rising = False
        elif not rising and cur > prev:
            return False
    return True


def is_log_concave(seq) -> bool:
    """a_k^2 >= a_{k-1} a_{k+1}, out-of-range terms read as zero."""
    return all(seq[k] ** 2 >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1))


def peel_atoms(view: CoeffSeq) -> tuple[dict[int, int], CoeffSeq]:
    """The exponent of each Lucas atom P_d, d >= 3, in ``view``'s polynomial, and what is left.

    h starts as the sequence and loses each atom that divides it, by exact
    graded division.  A P_d that can divide h has 1 <= phi(d)/2 <= deg h,
    and d < 7 phi(d) for every d below the 14th primorial (about 1.3e16),
    since prod p/(p-1) over the first 13 primes is 6.89; so every candidate
    d is below 14 deg h.  Before an atom is built, its value at a point is
    tested against h's, in plain ints: y0 is the first positive integer
    with h(y0) != 0 (h(1) = 0 is possible for a polynomial that is not a
    Lucas quotient), and each P_d(1, y0) is positive there, since its roots
    are negative.  If P_d divides h, P_d(1, y0) divides h(y0), and so
    P_d(1, y0 + 1) divides h(y0 + 1), which may be 0 and then refuses
    nothing.  Only the candidates that pass at both points are divided: one
    point alone lets through the small P_d(1, 1) (2 for d = 3, 3 for d = 4)
    after an atom's last power is gone, since h(1) still holds the other
    atoms' values.  A failed division moves on to the next d.  The
    factorisation into irreducibles is unique, so the order does not change
    h.
    """
    weight, h = view.weight, view.coeffs
    f = view.generating_function()
    y0 = 1
    while not (value := f.evaluate(y0)):
        y0 += 1
    next_value = f.evaluate(y0 + 1)
    # The bound is rounded up to a power of two, so a sweep's inputs share a few cached tables.
    weights, values = atom_values(y0, 1 << (14 * (len(h) - 1)).bit_length())
    exponents: dict[int, int] = {}
    d = 3
    while d < 14 * (len(h) - 1):  # the bound falls as h loses atoms
        while (
            weights[d] <= 2 * (len(h) - 1)
            and value % values[d] == 0
            and next_value % _atom_value(d, y0 + 1) == 0
        ):
            try:
                h = _hom_exact_div(weight, h, weights[d], coeff_view(lucas_atom(d)).coeffs)
            except NotDivisible:
                break
            weight, value, next_value = weight - weights[d], value // values[d], next_value // _atom_value(d, y0 + 1)
            exponents[d] = exponents.get(d, 0) + 1
        d += 1
    return exponents, CoeffSeq(weight, h)


# Only the candidates that pass the first point read the second, a few per
# input, so P_d(1, y0 + 1) is evaluated per d; a second ``atom_values``
# table sieves every d below the bound, which took the analysis pool about
# 10 % longer than one point alone.  A sweep reads a few hundred (d, y).
@lru_cache(maxsize=1024)
def _atom_value(d: int, y: int) -> int:
    """P_d(1, y), from the atom's generating function."""
    return coeff_view(lucas_atom(d)).generating_function().evaluate(y)


def analyze(p: Poly2) -> CoeffReport:
    """Coefficient-sequence report for a nonzero weighted-homogeneous p.

    Unimodality and log-concavity are read off p's own sequence.  Real-
    rootedness is decided by one ``real_rooted`` call on what
    ``peel_atoms`` leaves of p: the atoms' generating functions have only
    real roots, so dividing them out keeps the verdict.
    """
    view: CoeffSeq = coeff_view(p)
    coeffs = view.coeffs
    _, rest = peel_atoms(view)
    return CoeffReport(
        weight=view.weight,
        coeffs=coeffs,
        unimodal=is_unimodal(coeffs),
        log_concave=is_log_concave(coeffs),
        real_rooted=real_rooted(rest.generating_function()),
    )

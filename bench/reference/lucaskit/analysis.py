"""Coefficient-sequence diagnostics: unimodality, log-concavity, real roots.

A weighted-homogeneous polynomial collapses to its coefficient sequence
a_0, ..., a_m (see ``polyring.coeff_view``); this module asks the standard
questions about that sequence.  Real-rootedness of f(y) = sum a_k y^k is
decided exactly by a Sturm count, and for positive sequences it implies
log-concavity, which implies unimodality.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass

from .polyring import CoeffSeq, Poly2, coeff_view, real_rooted


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


def analyze(p: Poly2) -> CoeffReport:
    """Coefficient-sequence report for a nonzero weighted-homogeneous p."""
    view: CoeffSeq = coeff_view(p)
    coeffs = view.coeffs
    return CoeffReport(
        weight=view.weight,
        coeffs=coeffs,
        unimodal=is_unimodal(coeffs),
        log_concave=is_log_concave(coeffs),
        real_rooted=real_rooted(view.generating_function()),
    )

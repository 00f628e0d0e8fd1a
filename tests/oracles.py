"""Independent oracles the tests check library results against.

Nothing here but ``brute_block_partition`` goes through Poly2 division or the
tiling machinery: integer sequences come from their defining recurrences,
q-analogues from univariate q-factorial quotients, and Coxeter products from
exact Fraction arithmetic.  ``brute_block_partition`` reuses the library's
per-tiling greedy walk (``_walk``), so it is independent of
``block_partition`` only in how it aggregates: it visits every tiling one by
one instead of folding rows.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from lucaskit.polyring import Poly1, Poly2
from lucaskit.shapes_tilings import LatticePath, PartialTiling, _path_from_xs, _row_data, _walk, row_tilings


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """F_0 = 0, F_1 = 1, F_n = F_{n-1} + F_{n-2}."""
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)


def q_integer(n: int) -> Poly1:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return Poly1({e: 1 for e in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> Poly1:
    if n == 0:
        return Poly1.const(1)
    return q_factorial(n - 1) * q_integer(n)


def gaussian_binomial(n: int, k: int) -> Poly1:
    """[n]_q! / ([k]_q! [n-k]_q!) by exact univariate division."""
    return q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))


def integer_coxeter_catalan(degrees, k: int = 1) -> int:
    """prod (k*h + d) / d over the degrees, h the largest degree; exact."""
    h = max(degrees)
    value = Fraction(1)
    for d in degrees:
        value *= Fraction(k * h + d, d)
    assert value.denominator == 1
    return int(value)


def integer_d_binomial(n: int, k: int, d: int) -> int:
    """(d)(2d)...(nd) / [(d)...(kd) * (d)...((n-k)d)]; exact integer."""
    value = Fraction(1)
    for j in range(1, n + 1):
        value *= j * d
    for j in range(1, k + 1):
        value /= j * d
    for j in range(1, n - k + 1):
        value /= j * d
    assert value.denominator == 1
    return int(value)


def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def fuss_number(n: int, k: int) -> int:
    return math.comb((k + 1) * n, n) // (k * n + 1)


def rational_catalan_number(a: int, b: int) -> int:
    assert math.gcd(a, b) == 1
    return math.comb(a + b, a) // (a + b)


def narayana_number(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def brute_block_partition(variant) -> dict[PartialTiling, Poly2]:
    """Group all tilings of the variant's shape by their partial tiling.

    Returns each distinct partial tiling with the exact weight of its block.
    Streams the row-tiling product, so nothing is materialized.
    """
    shape = variant.shape()
    row_lens = [shape.cells(r) for r in range(1, shape.n_rows + 1)]
    per_row = [row_tilings(m) for m in row_lens]
    start = variant.start_x()

    acc: dict[tuple, dict[tuple[int, int], int]] = {}
    labels_of: dict[tuple, list[str]] = {}
    datas = [[_row_data(t) for t in options] for options in per_row]
    for combo in itertools.product(*(range(len(options)) for options in per_row)):
        rows = tuple(per_row[i][j] for i, j in enumerate(combo))
        xs, labels, fixed = _walk(variant, rows)
        key = (tuple(xs), fixed)
        monos = sum(datas[i][j][2] for i, j in enumerate(combo))
        doms = sum(datas[i][j][3] for i, j in enumerate(combo))
        bucket = acc.get(key)
        if bucket is None:
            # The labels are a function of xs, so the block's first tiling has them.
            bucket = acc[key] = {}
            labels_of[key] = labels
        bucket[(monos, doms)] = bucket.get((monos, doms), 0) + 1

    out: dict[PartialTiling, Poly2] = {}
    for key, weight_terms in acc.items():
        xs, fixed = key
        path = LatticePath((start, 0), _path_from_xs(start, xs), tuple(labels_of[key]))
        partial = PartialTiling(variant, path, fixed)
        out[partial] = Poly2(dict(weight_terms.items()))
    return out

"""Independent oracles the tests check library results against.

Nothing here but ``factorial_quotient``, ``brute_block_partition``,
``materialised_verify`` and ``token_completion`` goes through Poly2
division or the tiling machinery: integer sequences come from their defining recurrences, q-analogues and
cyclotomic polynomials from univariate exact division, Coxeter products
from exact Fraction arithmetic, and ``lex_exact_div`` divides term maps by
lexicographic long division, with no Poly2 arithmetic.
``factorial_quotient`` is the quotient path the atom engine replaced: it
multiplies the Lucas polynomials out and divides once.  ``brute_block_partition``
reuses the library's greedy step (``_step``, ``_fixed_row``), so it is
independent of ``block_partition`` only in how it aggregates: it visits every
tiling one by one instead of folding rows.  ``materialised_verify`` checks a
block partition block by block on ``block_partition``, the cross-check for
the class-merged ``verify_block_partition``.  ``fraction_remainder_chain``
is the Euclidean chain ``polyring`` ran before its integer pseudo-remainder
chain: ``Fraction`` long division through ``fraction_divmod``, each negated
remainder made primitive by ``fraction_primitive``; ``fraction_real_rooted``,
``fraction_count_real_roots`` and ``fraction_poly1_gcd`` decide on it as the
library does on its own.  ``Poly1`` holds ints only, so the ``fraction_*``
helpers run on plain lists of ``Fraction``: ``fraction_coeffs`` reads a
``Poly1`` through its public coefficients, and ``integral_poly1`` builds
one back from a result whose entries are all integers.  ``monomial_product``
multiplies two coefficient sequences term by term into a map, the reference
for the packed multiply in ``polyring._convolve``; ``one_point_convolve`` is
that multiply as it was before it split each operand into its even and odd
halves, one bigint product of the operands packed whole.  ``term_substitute``
expands a substitution term by term in ``Poly1`` arithmetic, as
``Poly2.substitute`` did before it built each image's powers once.  ``token_completion`` is
the monomino completion ``partial_from_fixed`` used before it walked tile
tuples: each row written out as "M"/"D"/"." tokens, then parsed back.
``one_point_peel`` is ``analysis.peel_atoms`` as it was before it tested a
second point, and counts its failed divisions.  ``one_shot_atom_values`` is
``lucas.atom_values`` as it was before it kept a growing sieve per y0: each
call sieves from d = 2.  ``bench_workloads`` loads the benchmark's pools, its
checks and its pinned digests from ``bench/workloads.py``.
``per_type_verify_involution`` is ``verify_involution`` as it was before it
verified each mirror pair once: it enumerates its own class and the mirror
class, runs iota on every member and again on every image, and caches
nothing.  ``bottom_rows`` is the binomial bottom-row rule written out by
hand, as ``involution`` stated it before it read its rows off the greedy
row step.  ``loop_d_lucastorial`` is ``lucas.d_lucastorial`` as it was
before it went through ``lucas_quotient``: a plain loop product of the
Lucas polynomials.  ``tree_product`` is ``polyring.product`` as
``lucas_quotient`` multiplied its atom powers before any was evaluated as
an int: a balanced tree of ``Poly2`` products.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from lucaskit.lucas import atom_values, lucas, lucas_atom, symmetry_sides
from lucaskit.analysis import CoeffReport, is_log_concave, is_unimodal
from lucaskit.involution import InvolutionReport, Malformed, enumerate_extended, iota, iota_trace
from lucaskit.polyring import (
    CoeffSeq,
    DivisionByZero,
    Monomial,
    NotDivisible,
    Poly1,
    Poly2,
    _hom_exact_div,
    coeff_view,
)
from lucaskit.shapes_tilings import (
    BlockPartitionReport,
    LatticePath,
    MalformedPartial,
    PartialTiling,
    Tiling,
    _fixed_row,
    _path_from_xs,
    _row_data,
    _step,
    block_partition,
    count_tilings,
    row_tilings,
    tile_rows_from_json,
    tile_tokens,
)


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
    return poly1_exact_div(q_factorial(n), q_factorial(k) * q_factorial(n - k))


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Poly1:
    """Phi_d(q): q^d - 1 divided by Phi_e for every e | d with e < d."""
    value = Poly1({d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            value = poly1_exact_div(value, cyclotomic(e))
    return value


def monomial_product(f, g) -> dict[int, int | Fraction]:
    """{e: c} with c != 0 the coefficient of y^e in (sum f_i y^i)(sum g_j y^j), term by term."""
    out: dict[int, int | Fraction] = {}
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def one_point_convolve(f, g) -> list[int]:
    """f times g by one-point Kronecker substitution, as ``polyring._convolve`` packed long operands before it split them.

    Each operand becomes its value at 2^B, one bigint product is taken, and
    its balanced base-2^B digits are read back, one Python-level
    ``to_bytes``/``from_bytes`` per coefficient.  B is a whole number of
    bytes with B >= bits(max|f|) + bits(max|g|) + bits(min(len f, len g)) + 2,
    so every product coefficient c_k has |c_k| < 2^(B-2).  Takes any lengths
    of at least 1.
    """
    bits = max(map(abs, f)).bit_length() + max(map(abs, g)).bit_length() + min(len(f), len(g)).bit_length() + 2
    width = (bits + 7) // 8  # B / 8
    n = len(f) + len(g) - 1
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    digits = (_one_point_pack(f, width) * _one_point_pack(g, width) + offset).to_bytes(width * n, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(digits[i : i + width], "little") - half for i in range(0, width * n, width)]


def _one_point_pack(seq, width: int) -> int:
    """sum seq[i] 2^(8 width i), for entries with |seq[i]| < 2^(8 width - 1)."""
    value = int.from_bytes(b"".join(c.to_bytes(width, "little", signed=True) for c in seq), "little")
    if min(seq) >= 0:
        return value
    # The field of an entry c < 0 reads c + 2^(8 width): take that carry back out of the next field.
    one, zero = b"\x01" + bytes(width - 1), bytes(width)
    return value - (int.from_bytes(b"".join(one if c < 0 else zero for c in seq), "little") << 8 * width)


def term_substitute(p: Poly2, s_image: Poly1, t_image: Poly1) -> Poly1:
    """p(s_image, t_image): sum of c * s_image^a * t_image^b over p's terms, one term at a time."""
    out = Poly1()
    for (a, b), c in p.terms():
        out = out + (s_image**a) * (t_image**b) * c
    return out


def token_completion(variant, fixed) -> Tiling:
    """The tiling of the variant's shape holding ``fixed``, each blank a monomino, through token rows."""
    shape = variant.shape()
    token_rows = []
    for r in range(1, shape.n_rows + 1):
        row: list[str] = []
        col = 1
        for start, tiles in fixed[r - 1]:
            if start < col:
                raise MalformedPartial("overlapping fixed runs")
            row += ["."] * (start - col) + tile_tokens(tiles)
            col = start + sum(tiles)
        if col > shape.cells(r) + 1:
            raise MalformedPartial("a fixed run sticks out of its row")
        row += ["."] * (shape.cells(r) + 1 - col)
        token_rows.append(["M" if tok == "." else tok for tok in row])
    return Tiling(shape, tile_rows_from_json(token_rows))


def loop_d_lucastorial(n: int, d: int) -> Poly2:
    """{n:d}! = {d}{2d}...{nd}, multiplied one {id} at a time."""
    product = Poly2.one()
    for i in range(1, n + 1):
        product = product * lucas(i * d)
    return product


def tree_product(factors) -> Poly2:
    """The product of p**e over (p, e) as a balanced tree of ``Poly2`` products, neighbours pairwise, level by level."""
    powers = [p**e for p, e in factors]
    while len(powers) > 1:
        pairs = [a * b for a, b in zip(powers[::2], powers[1::2])]
        powers = pairs + powers[-1:] if len(powers) % 2 else pairs
    return powers[0] if powers else Poly2.one()


def factorial_quotient(num, den) -> Poly2:
    """prod {a} over num exactly divided by prod {b} over den; raises NotDivisible."""
    numerator = denominator = Poly2.one()
    for a in num:
        numerator = numerator * lucas(a)
    for b in den:
        denominator = denominator * lucas(b)
    return numerator.exact_div(denominator)


def fraction_coeffs(f: Poly1) -> list[Fraction]:
    """The coefficients of f, constant term first, each a ``Fraction``; [] for f == 0."""
    return [Fraction(f.coeff(e)) for e in range(f.degree() + 1)]


def integral_poly1(coeffs) -> Poly1:
    """The ``Poly1`` with ``coeffs[e]`` the coefficient of y^e; raises ValueError if one is not an integer."""
    coeffs = [Fraction(c) for c in coeffs]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("non-integer coefficients")
    return Poly1(enumerate(c.numerator for c in coeffs))


def fraction_divmod(f: list[Fraction], g: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Dense long division over the rationals: f == quot * g + rem, rem trimmed, deg rem < deg g."""
    if not g:
        raise DivisionByZero("univariate division by zero")
    *low, lc = g
    rem = list(f)
    quot = [Fraction(0)] * max(len(rem) - len(low), 0)
    for e in reversed(range(len(quot))):
        c = quot[e] = rem.pop() / lc
        for j, y in enumerate(low):
            rem[e + j] -= c * y
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def poly1_exact_div(f: Poly1, g: Poly1) -> Poly1:
    """The quotient f / g; raises NotDivisible when it is not a polynomial with integer coefficients."""
    quot, rem = fraction_divmod(fraction_coeffs(f), fraction_coeffs(g))
    if rem or any(c.denominator != 1 for c in quot):
        raise NotDivisible("nonzero univariate remainder or non-integer quotient")
    return integral_poly1(quot)


def fraction_primitive(coeffs: list[Fraction]) -> list[Fraction]:
    """coeffs divided by their positive rational content: integral, and the sign pattern is preserved."""
    if not coeffs:
        return coeffs
    den = math.lcm(*(c.denominator for c in coeffs))
    scale = Fraction(den, math.gcd(*(c.numerator for c in coeffs)))
    return [c * scale for c in coeffs]


def poly1_primitive(f: Poly1) -> Poly1:
    """f divided by its positive content, through ``fraction_primitive``."""
    return integral_poly1(fraction_primitive(fraction_coeffs(f)))


def _fraction_chain(f: Poly1, g: Poly1) -> list[list[Fraction]]:
    """``fraction_remainder_chain`` with each entry a list of ``Fraction``."""
    chain = [fraction_coeffs(f), fraction_coeffs(g)]
    while chain[-1]:
        _, rem = fraction_divmod(chain[-2], chain[-1])
        chain.append(fraction_primitive([-c for c in rem]))
    chain.pop()  # the zero remainder, or g itself when g == 0
    return chain


def fraction_remainder_chain(f: Poly1, g: Poly1) -> list[Poly1]:
    """f, g, then each negated remainder made primitive, down to the last nonzero one."""
    return [integral_poly1(seq) for seq in _fraction_chain(f, g)]


def _fraction_sturm_count(chain: list[Poly1]) -> int:
    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_pos = [p.coeff(p.degree()) > 0 for p in chain]
    at_neg = [pos == (p.degree() % 2 == 0) for p, pos in zip(chain, at_pos)]
    return variations(at_neg) - variations(at_pos)


def fraction_count_real_roots(f: Poly1) -> int:
    """Distinct real roots of f != 0: Sturm's theorem on the chain of (f, f')."""
    if f.degree() <= 0:
        return 0
    return _fraction_sturm_count(fraction_remainder_chain(f, f.derivative()))


def fraction_poly1_gcd(f: Poly1, g: Poly1) -> Poly1:
    """gcd(f, g), primitive with a positive leading coefficient; 1 if f == g == 0."""
    last = _fraction_chain(f, g)[-1]
    if not last:
        return Poly1.const(1)
    prim = fraction_primitive(last)
    return integral_poly1(prim if prim[-1] > 0 else [-c for c in prim])


def fraction_real_rooted(f: Poly1) -> bool:
    """Distinct real roots (Sturm) == distinct complex roots (deg f - deg gcd(f, f'))."""
    chain = fraction_remainder_chain(f, f.derivative())
    return _fraction_sturm_count(chain) == f.degree() - chain[-1].degree()


def fraction_analyze(p: Poly2) -> CoeffReport:
    """``analysis.analyze`` with real-rootedness decided on the ``Fraction`` chain."""
    view = coeff_view(p)
    return CoeffReport(
        weight=view.weight,
        coeffs=view.coeffs,
        unimodal=is_unimodal(view.coeffs),
        log_concave=is_log_concave(view.coeffs),
        real_rooted=fraction_real_rooted(view.generating_function()),
    )


def one_point_peel(view: CoeffSeq) -> tuple[dict[int, int], CoeffSeq, int]:
    """``analysis.peel_atoms`` as it was with one test point, with the number of its divisions that failed."""
    weight, h = view.weight, view.coeffs
    f = view.generating_function()
    y0 = 1
    while not (value := f.evaluate(y0)):
        y0 += 1
    weights, values = atom_values(y0, 1 << (14 * (len(h) - 1)).bit_length())
    exponents: dict[int, int] = {}
    failed = 0
    d = 3
    while d < 14 * (len(h) - 1):
        while weights[d] <= 2 * (len(h) - 1) and value % values[d] == 0:
            try:
                h = _hom_exact_div(weight, h, weights[d], coeff_view(lucas_atom(d)).coeffs)
            except NotDivisible:
                failed += 1
                break
            weight, value = weight - weights[d], value // values[d]
            exponents[d] = exponents.get(d, 0) + 1
        d += 1
    return exponents, CoeffSeq(weight, h), failed


def one_shot_atom_values(y0: int, bound: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For 2 <= d < bound, the weight phi(d) of P_d and P_d(1, y0), sieved from d = 2 on every call."""
    values = [0, 1]
    while len(values) < bound:
        values.append(values[-1] + y0 * values[-2])
    weights = [n - 1 for n in range(len(values))]
    for e in range(2, bound):
        for m in range(2 * e, bound, e):
            values[m] //= values[e]
            weights[m] -= weights[e]
    return tuple(weights), tuple(values)


@lru_cache(maxsize=None)
def bench_workloads():
    """``bench/workloads.py``, loaded without putting ``bench/`` on sys.path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def lex_exact_div(p: dict[Monomial, int], q: dict[Monomial, int]) -> dict[Monomial, int]:
    """The term map r with q * r == p, by long division in lex order (s > t).

    Raises NotDivisible when the leading monomial or coefficient of a
    remainder does not divide; ``q`` must be nonzero.
    """
    q_lead = max(q)
    q_lc = q[q_lead]
    rem = {m: c for m, c in p.items() if c}
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
    return quot


def brute_block_partition(variant) -> dict[PartialTiling, Poly2]:
    """Group all tilings of the variant's shape by their partial tiling.

    Returns each distinct partial tiling with the exact weight of its block.
    Takes the row product depth first.  A row's greedy step depends only on
    the walk state (x, used -1 lines) and that row's tiles, so the state and
    the path prefix are carried down and each (row, x, used, tiles) step is
    computed once.  Every tiling is still a leaf of the search, added to its
    block on its own.  Rows past the shape are empty rows.
    """
    shape = variant.shape()
    n_rows, terminal, start, mod_d = shape.n_rows, variant.terminal(), variant.start_x(), variant.mod_d()

    @lru_cache(maxsize=None)
    def row_steps(r: int, x: int, used: frozenset[int]) -> list[tuple]:
        """(x, label, used, fixed runs, #monominoes, #dominoes) of each tiling of row r."""
        row_len = shape.cells(r) if r <= n_rows else 0
        steps = []
        for tiles in row_tilings(row_len):
            blocked, _, monos, doms = _row_data(tiles)
            x2, label, used2 = _step(x, used, row_len, blocked, mod_d)
            steps.append((x2, label, used2, _fixed_row(variant, r, tiles, x2, label), monos, doms))
        return steps

    acc: dict[tuple, dict[tuple[int, int], int]] = {}
    labels_of: dict[tuple, tuple[str, ...]] = {}

    def descend(r: int, x: int, used: frozenset[int], xs: tuple, labels: tuple, fixed: tuple, monos: int, doms: int):
        if r > terminal:
            key = (xs, fixed[:n_rows])
            bucket = acc.get(key)
            if bucket is None:
                # The labels are a function of xs, so the block's first tiling has them.
                bucket = acc[key] = {}
                labels_of[key] = labels
            bucket[(monos, doms)] = bucket.get((monos, doms), 0) + 1
            return
        for x2, label, used2, runs, m, d in row_steps(r, x, used):
            descend(r + 1, x2, used2, xs + (x2,), labels + (label,), fixed + (runs,), monos + m, doms + d)

    descend(1, start, frozenset(), (), (), (), 0, 0)
    out: dict[PartialTiling, Poly2] = {}
    for key, weight_terms in acc.items():
        xs, fixed = key
        path = LatticePath((start, 0), _path_from_xs(start, xs), labels_of[key])
        out[PartialTiling(variant, path, fixed)] = Poly2(weight_terms)
    return out


def materialised_verify(variant) -> BlockPartitionReport:
    """``verify_block_partition`` block by block: list every block, multiply each by the divisor."""
    blocks = block_partition(variant)
    divisor = variant.divisor()
    expected = variant.expected_total()
    failures: list[str] = []
    partial_sum = Poly2.zero()
    tiling_count = count_tilings(variant.shape())
    covered = 0
    for partial, block_weight in blocks.items():
        pw = partial.weight()
        partial_sum = partial_sum + pw
        covered += block_weight.evaluate(1, 1)  # block size
        if divisor * pw != block_weight:
            try:
                quotient = block_weight.exact_div(divisor)
                detail = f"divisor*partial={divisor * pw}, block/divisor={quotient}"
            except NotDivisible:
                detail = "block weight not even divisible by the divisor"
            failures.append(f"block of path {partial.path.steps}: {detail}")
    if covered != tiling_count:
        failures.append(f"blocks cover {covered} of {tiling_count} tilings")
    if partial_sum != expected:
        failures.append(f"partial sum {partial_sum} != expected {expected}")
    return BlockPartitionReport(
        variant=variant,
        tiling_count=tiling_count,
        block_count=len(blocks),
        partial_sum=partial_sum,
        expected_total=expected,
        failures=failures,
    )


def per_type_verify_involution(n: int, k: int, r: int) -> InvolutionReport:
    """Check type contract, involutivity, weight preservation and class sums.

    Each tiling's weight is the monomial of its (#monominoes, #dominoes), so
    the class sums are tallied as counts per pair and built once, and an
    image preserves weight when its pair is its source's.
    """
    source = list(enumerate_extended(n, k, r))
    target = list(enumerate_extended(n, n - k + r, r))
    lhs, rhs = symmetry_sides(n, k, r)
    failures: list[str] = []
    class_counts: Counter[Monomial] = Counter()
    target_sum = Poly2(Counter(ext.tile_counts() for ext in target))
    images = []
    for ext in source:
        counts = ext.tile_counts()
        class_counts[counts] += 1
        try:
            image, trace = iota_trace(ext)
        except Malformed as exc:
            failures.append(f"iota failed on {ext.to_json_dict()}: {exc}")
            continue
        if image.type_triple() != (n, n - k + r, r):
            failures.append(f"type {image.type_triple()} != {(n, n - k + r, r)} after {''.join(trace)}")
            continue
        if image.tile_counts() != counts:
            failures.append(f"weight changed on {ext.to_json_dict()}")
        try:
            back = iota(image)
        except Malformed as exc:
            failures.append(f"iota failed on an image: {exc}")
            continue
        if back != ext:
            failures.append(f"iota^2 != id on {ext.to_json_dict()}")
        images.append(image)
    class_sum = Poly2(class_counts)
    if len(set(images)) != len(source):
        failures.append("iota is not injective on the class")
    if set(images) != set(target):
        failures.append("iota does not map onto the mirror class")
    if class_sum != lhs:
        failures.append(f"class weight {class_sum} != symmetry LHS {lhs}")
    if target_sum != rhs:
        failures.append(f"mirror class weight {target_sum} != symmetry RHS {rhs}")
    return InvolutionReport(
        n=n,
        k=k,
        r=r,
        class_size=len(source),
        target_size=len(target),
        class_sum=class_sum,
        target_sum=target_sum,
        lhs=lhs,
        rhs=rhs,
        failures=failures,
    )


def bottom_rows(n: int, k: int) -> list[tuple[int, list[tuple[tuple, Monomial]]]]:
    """The fixed bottom rows of Binomial(n, k) by label, NI first, each as (runs, counts).

    Each label comes with the next level's k.  The path starts at x = k on
    a row of n - 1 cells.  For k < n the step is NI and fixes the k cells
    left of it, in any tiling.  For 1 <= k <= n - 2 it may instead be NL: a
    domino covers cells k and k + 1, and it and any tiling of the rest of
    the row are fixed.  For k = n the path starts past the row, steps west
    to its end and fixes nothing.
    """
    labels = []
    if k < n:
        labels.append((k, [(((1, tiles),) if tiles else (), _row_data(tiles)[2:]) for tiles in row_tilings(k)]))
    if 1 <= k <= n - 2:
        tails = [(2,) + tiles for tiles in row_tilings(n - k - 2)]
        labels.append((k - 1, [(((k, tiles),), _row_data(tiles)[2:]) for tiles in tails]))
    if k == n:
        labels.append((k - 1, [((), (0, 0))]))
    return labels

"""Strips, extended binomial partial tilings and the recursive involution.

An extended binomial partial tiling of type (n, k, r) is a binomial partial
tiling B of delta_n with path from (k, 0) together with fully tiled strips
S_1, ..., S_r of lengths k-1, ..., k-r.  Summing weights over a type gives
one side of the Lucasnomial symmetry identity; the involution below maps type
(n, k, r) onto type (n, n-k+r, r) preserving weight, which proves it.

The recursion peels the bottom row of B off as a strip R, recurses on the
rest, and reassembles according to four cases keyed on whether (k, 0) and
(k-r-1, 0) admit a north step (NI) or not (NL) -- the second point tested on
B in the NI-start cases and on S_1 otherwise.  Strips are plain tuples of
tile lengths; cutting one through a domino is the error ``BrokenDomino``,
which the involution converts into ``Malformed`` since a well-formed input
can never trigger it.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterator, Mapping

from .lucas import symmetry_sides
from .polyring import Monomial, Poly2
from .shapes_tilings import (
    Binomial,
    FixedRows,
    MalformedPartial,
    PartialTiling,
    Run,
    Tiles,
    _row_data,
    check_keys,
    partial_from_fixed,
    row_tilings,
    tile_counts,
    tile_rows_from_json,
    tile_tokens,
)

Strip = Tiles  # a fully tiled strip is just its tile lengths, left to right
Key = tuple[FixedRows, tuple[Strip, ...]]  # an extended tiling as bare (B's fixed rows, strips)


class BrokenDomino(ValueError):
    """A strip cut that would split a domino."""


class Malformed(ValueError):
    """The involution hit a state its input type forbids."""


def strip_cells(strip: Strip) -> int:
    return sum(strip)


def strip_concat(left: Strip, right: Strip) -> Strip:
    return tuple(left) + tuple(right)


# iota reads only short rows and strips, so its row arithmetic repeats: a
# sweep to n = 8 makes 2.2 million bottom-row classifications of 880 keys
# and 1.4 million first cuts of 277 keys.  So those two are cached, bounded
# well above that, and take only tuples.  ``strip_last`` goes through the
# cached ``strip_first``; a cache of its own measured about 3 % faster but
# added about 64 KB to a pass's peak RSS.
_ROW_CACHE = 4096


@functools.lru_cache(maxsize=_ROW_CACHE)
def strip_first(strip: Strip, cells: int) -> Strip:
    """The first ``cells`` boxes; undefined if that would break a domino."""
    taken = 0
    if cells >= 0:
        for i, tile in enumerate(strip):
            if taken == cells:
                return strip[:i]
            taken += tile
            if taken > cells:
                raise BrokenDomino(f"cut at {cells} splits a domino")
        if taken == cells:
            return tuple(strip)
    raise ValueError(f"cannot take {cells} cells of a {strip_cells(strip)}-cell strip")


def strip_last(strip: Strip, cells: int) -> Strip:
    """The last ``cells`` boxes; undefined if that would break a domino."""
    head = strip_first(strip, strip_cells(strip) - cells)
    return strip[len(head):]


def strip_reverse(strip: Strip) -> Strip:
    return tuple(reversed(strip))


@functools.lru_cache(maxsize=_ROW_CACHE)
def _classify_bottom(row_len: int, runs: tuple[Run, ...], x: int) -> str:
    """NI/NL of (x, 0) for a bottom row of ``row_len`` cells holding fixed ``runs``."""
    if not 0 <= x <= row_len:
        return "NL"
    if any(x - start + 1 in _row_data(tiles)[0] for start, tiles in runs):
        return "NL"
    return "NI"


def classify_point(context: PartialTiling | Strip, x: int) -> str:
    """NI when a north step from (x, 0) stays inside and cuts no domino.

    Strips count as one-row partitions in the first quadrant; anything
    outside the diagram (x < 0 or beyond the row) is an NL point.  A partial
    tiling without rows admits only the north step at x = 0.
    """
    if isinstance(context, PartialTiling):
        shape = context.shape()
        if shape.n_rows == 0:
            return _classify_bottom(0, (), x)
        return _classify_bottom(shape.cells(1), context.fixed[0], x)
    return _classify_bottom(strip_cells(context), ((1, tuple(context)),), x)


# -- extended tilings -------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedTiling:
    """(B; S_1, ..., S_r) of type (n, k, r)."""

    partial: PartialTiling
    strips: tuple[Strip, ...]

    def __post_init__(self):
        if not isinstance(self.partial.variant, Binomial):
            raise ValueError("the extended tiling's core must be a binomial partial tiling")
        k = self.partial.variant.k
        for i, strip in enumerate(self.strips, start=1):
            if not {*strip} <= {1, 2}:
                raise ValueError(f"strip {i} tiles must be monominoes or dominoes")
            if strip_cells(strip) != k - i:
                raise ValueError(f"strip {i} has {strip_cells(strip)} cells, wants {k - i}")

    @property
    def n(self) -> int:
        return self.partial.variant.n

    @property
    def k(self) -> int:
        return self.partial.variant.k

    @property
    def r(self) -> int:
        return len(self.strips)

    def type_triple(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.r)

    def tile_counts(self) -> Monomial:
        """(#monominoes, #dominoes) over B's fixed tiles and the strips."""
        return tile_counts(self.partial.fixed_tiles() + list(self.strips))

    def weight(self) -> Poly2:
        return Poly2.monomial(*self.tile_counts())

    def to_json_dict(self) -> dict:
        return {"B": self.partial.to_json_dict(), "strips": [tile_tokens(s) for s in self.strips]}

    @staticmethod
    def from_json_dict(data: Mapping) -> ExtendedTiling:
        """Parse exactly ``B``, a partial-tiling document, and ``strips``, token lists."""
        check_keys(data, {"B", "strips"})
        return ExtendedTiling(PartialTiling.from_json_dict(data["B"]), tile_rows_from_json(data["strips"]))


def _prepend_row(rows: FixedRows, anchor: str, tiles: Strip, n: int) -> FixedRows:
    """Attach ``tiles`` as the bottom row of delta_n, flush left or right."""
    if n == 1:
        # delta_1 has no rows; the "bottom row" being attached holds no cells.
        if tiles:
            raise MalformedPartial("a nonempty strip cannot enter an empty bottom row")
        return ()
    if not tiles:
        return ((),) + rows
    start = 1 if anchor == "left" else n - strip_cells(tiles)
    return (((start, tiles),),) + rows


def iota(extended: ExtendedTiling) -> ExtendedTiling:
    """Apply the involution; type (n, k, r) maps to (n, n-k+r, r)."""
    return iota_trace(extended)[0]


def iota_trace(extended: ExtendedTiling) -> tuple[ExtendedTiling, tuple[str, ...]]:
    """The involution plus the case letter chosen at each recursion level.

    The input is valid by construction, so ``_trace_key`` runs the recursion
    on its bare fixed rows and strips, with an empty mirror class and a
    fresh memo, which one tiling never hits: n falls at every level.  So
    ``partial_from_fixed`` validates the image, in the one walk that builds
    the returned tiling, and any refusal, like a strip cut through a
    domino, is raised as ``_trace_key``'s ``Malformed``.
    ``verify_involution`` does not call this: it traces each member against
    the mirror class, and walks only an image that is not there.
    """
    n, k, _ = extended.type_triple()
    result = _trace_key(n, k, (extended.partial.fixed, extended.strips), (), {})
    if isinstance(result, Malformed):
        raise result
    image, trace = result
    return image, tuple(trace)


def _extended(n: int, k: int, key: Key) -> ExtendedTiling:
    """The key as an extended tiling of type (n, k, len(strips)), validated by ``partial_from_fixed``."""
    fixed, strips = key
    return ExtendedTiling(partial_from_fixed(Binomial(n, k), fixed), strips)


# A memo of recursive iota calls: (n, k, rows, strips) -> (image key, case letters).
_Memo = dict[tuple[int, int, FixedRows, tuple[Strip, ...]], tuple[Key, tuple[str, ...]]]


def _iota(n: int, k: int, rows: FixedRows, strips: tuple[Strip, ...], trace: list[str], memo: _Memo) -> Key:
    """iota on type (n, k, len(strips)) given B's fixed rows; returns the image's.

    Each level appends its case letter to ``trace`` and recurses through
    ``_inner``, so a subcall already in ``memo`` is not run again.
    """
    if n == 0:
        return rows, strips
    r = len(strips)
    bottom = rows[0] if rows else ()
    R = bottom[0][1] if bottom else ()
    inner_rows = rows[1:]

    if _classify_bottom(n - 1, bottom, k) == "NI":
        if _classify_bottom(n - 1, bottom, k - r - 1) == "NI":
            trace.append("a")
            s_new = strip_first(R, k - r - 1)
            res_rows, res_strips = _inner(n - 1, k, inner_rows, strips + (s_new,), trace, memo)
            row = strip_concat(res_strips[r], strip_reverse(strip_last(R, r + 1)))
            return _prepend_row(res_rows, "left", row, n), res_strips[:r]
        trace.append("b")
        res_rows, res_strips = _inner(n - 1, k, inner_rows, strips, trace, memo)
        row = strip_reverse(strip_first(R, k - r))
        out_rows = _prepend_row(res_rows, "right", row, n)
        if r == 0:
            return out_rows, ()
        first = strip_concat(res_strips[r - 1], strip_reverse(strip_last(R, r)))
        return out_rows, (first,) + res_strips[: r - 1]

    s1 = strips[0] if r >= 1 else ()
    # With r = 0 there is no S_1 and the NI branch applies by convention.
    second_ni = r == 0 or classify_point(s1, k - r - 1) == "NI"
    rs = strip_concat(strip_reverse(R), strip_reverse(s1))
    if second_ni:
        trace.append("c")
        # With r = 0 there is no S_1 to cut, and the inner call carries no strips.
        inner_strips = strips[1:] + (strip_first(s1, k - r - 1),) if r >= 1 else ()
        res_rows, res_strips = _inner(n - 1, k - 1, inner_rows, inner_strips, trace, memo)
        row = strip_first(rs, n - k + r)
        return _prepend_row(res_rows, "left", row, n), res_strips
    trace.append("d")
    res_rows, res_strips = _inner(n - 1, k - 1, inner_rows, strips[1:], trace, memo)
    row = strip_last(rs, k - r)
    first = strip_first(rs, n - k + r - 1)
    return _prepend_row(res_rows, "right", row, n), (first,) + res_strips


def _inner(n: int, k: int, rows: FixedRows, strips: tuple[Strip, ...], trace: list[str], memo: _Memo) -> Key:
    """A recursive iota call, run once per memo: a repeat extends ``trace`` with the stored letters.

    A call that raises is not stored, so a later caller runs it again and
    fails after its own case letters.
    """
    call = (n, k, rows, strips)
    hit = memo.get(call)
    if hit is not None:
        image, letters = hit
        trace.extend(letters)
        return image
    depth = len(trace)
    image = _iota(n, k, rows, strips, trace, memo)
    memo[call] = image, tuple(trace[depth:])
    return image


# -- enumeration and verification -----------------------------------------------


def enumerate_extended(n: int, k: int, r: int) -> Iterator[ExtendedTiling]:
    """Every extended binomial partial tiling of type (n, k, r), lazily.

    The type is checked, and the partials of ``_class_partials(n, k)``
    read, when this is called; the members are built as they are read, each
    partial rebuilt by ``partial_from_fixed``, which validates it, with
    every choice of strips.  ``verify_involution`` does not call this: it
    reads the same members, in the same order, as bare keys from
    ``_class_keys``.
    """
    if not 0 <= r <= k <= n:
        raise ValueError("need 0 <= r <= k <= n")
    variant, partials, strip_choices = Binomial(n, k), _class_partials(n, k), _strip_choices(k, r)
    return (
        ExtendedTiling(partial_from_fixed(variant, fixed), strips)
        for fixed, _ in partials
        for strips in strip_choices
    )


def _strip_choices(k: int, r: int) -> list[tuple[Strip, ...]]:
    """Every (S_1, ..., S_r) with S_i a tiling of k - i cells."""
    return list(itertools.product(*(row_tilings(k - i) for i in range(1, r + 1))))


# 45 is the number of (k, r) with 0 <= r <= k <= 8.  The counts of all 45
# hold 2.1 MB under tracemalloc; caching the choices themselves as well
# raised the peak RSS of ``verify involution --max-n 8`` from 135 to 155 MB.
@functools.lru_cache(maxsize=45)
def _strip_dominoes(k: int, r: int) -> tuple[int, ...]:
    """The number of dominoes in each of ``_strip_choices(k, r)``, in order.

    ``itertools.product`` varies S_r fastest, so the counts of (k, r) are
    each count of (k, r - 1) plus, in turn, that of each tiling of S_r.
    """
    if r == 0:
        return (0,)
    last = [tile_counts([tiles])[1] for tiles in row_tilings(k - r)]
    return tuple(a + b for a in _strip_dominoes(k, r - 1) for b in last)


@dataclass(frozen=True)
class InvolutionReport:
    """Exhaustive check of the involution on one type class.

    Frozen, with ``failures`` a tuple: ``verify_involution`` hands the same
    cached report to every caller.
    """

    n: int
    k: int
    r: int
    class_size: int
    target_size: int
    class_sum: Poly2
    target_sum: Poly2
    lhs: Poly2
    rhs: Poly2
    failures: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "failures", tuple(self.failures))

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "type": [self.n, self.k, self.r],
            "class_size": self.class_size,
            "target_size": self.target_size,
            "class_sum": self.class_sum.to_json_dict(),
            "target_sum": self.target_sum.to_json_dict(),
            "failures": list(self.failures),
            "ok": self.ok,
        }


def verify_involution(n: int, k: int, r: int) -> InvolutionReport:
    """Check type contract, involutivity, weight preservation and class sums.

    iota pairs type (n, k, r) with its mirror (n, n-k+r, r), so the two are
    verified together, once (``_verify_pair``), and a later call for either
    returns its cached report.
    """
    if not 0 <= r <= k <= n:
        raise ValueError("need 0 <= r <= k <= n")
    mirror = n - k + r
    low, high = _verify_pair(n, min(k, mirror), max(k, mirror), r)
    return low if k <= mirror else high


# iota's image with its case letters: the key of a member of the mirror
# class, or any other image as the extended tiling that validated it.
_Image = tuple[Key | ExtendedTiling, str]
# A traced class: each member key with its (#monominoes, #dominoes) and its
# image, or the Malformed that iota raised.
_Traced = dict[Key, tuple[Monomial, _Image | Malformed]]


@functools.lru_cache(maxsize=None)
def _verify_pair(n: int, k_lo: int, k_hi: int, r: int) -> tuple[InvolutionReport, InvolutionReport]:
    """The reports of the mirror types (n, k_lo, r) and (n, k_hi, r).

    Each class is enumerated once as bare keys, and iota runs once on each
    member's bare rows, with no ``ExtendedTiling`` built.  An image is valid
    exactly when it is a member of the mirror class, since a partial tiling
    is determined by its fixed rows; so a lookup in the mirror class
    validates it (``_trace_key``), and iota^2 = id is read off the mirror
    class's images.  Members that differ only in what the recursion has
    peeled off make the same recursive call, so both classes share one
    memo of iota's subcalls, and each subcall runs once per pair.  The
    memo, the keys and the images are dropped when the pair returns; this
    cache holds only the reports, so it grows with the number of types
    verified, not with their class sizes.  The classes' partials, which
    every r shares, are built from the row recursion, with no block
    partition, and kept apart in the bounded cache ``_class_partials``; the
    row arithmetic iota repeats (bottom-row classifications, first cuts)
    is in bounded caches of its own, which hold no member and no image.
    The classes, their traces and their reports are keyed by k, low k first,
    so when k_lo = k_hi the two classes are one, and so are the reports.
    """
    memo: _Memo = {}
    classes = {k: dict(_class_keys(n, k, r)) for k in dict.fromkeys((k_lo, k_hi))}
    traced = {
        k: {key: (counts, _trace_key(n, k, key, classes[n - k + r], memo)) for key, counts in members.items()}
        for k, members in classes.items()
    }
    reports = {k: _class_report(n, k, r, source, traced[n - k + r]) for k, source in traced.items()}
    return reports[k_lo], reports[k_hi]


def _class_keys(n: int, k: int, r: int) -> Iterator[tuple[Key, Monomial]]:
    """Each member of type (n, k, r) as a key with its (#monominoes, #dominoes).

    The members come in ``enumerate_extended``'s order: each partial of
    ``_class_partials(n, k)``, shared by every r, crossed with the strip
    choices.  A member's counts are its partial's, which the row recursion
    carried, plus its strips', so no member's tiles are walked.  Every
    strip choice tiles the same k-1 + ... + k-r cells, so its domino count,
    cached per (k, r), gives its monominoes too.
    """
    cells = r * k - r * (r + 1) // 2
    dominoes = _strip_dominoes(k, r)
    strip_choices = [(strips, (cells - 2 * j, j)) for strips, j in zip(_strip_choices(k, r), dominoes)]
    for fixed, (monos, doms) in _class_partials(n, k):
        for strips, (strip_monos, strip_doms) in strip_choices:
            yield (fixed, strips), (monos + strip_monos, doms + strip_doms)


# A fixed bottom row: its runs with their (#monominoes, #dominoes).
_Row = tuple[tuple[Run, ...], int, int]


# 45 is the number of Binomial(n, k) with n <= 8, the largest sweep
# ``verify involution`` is timed at, so such a sweep builds each one once.
# All 45 hold 5,576 partials in 1.25 MB under tracemalloc, and building
# them peaks no higher, since no block partition is held while they are
# built.  A longer sweep evicts the classes of its smaller n, which it no
# longer reads: a pair only reads classes of its own n.
@functools.lru_cache(maxsize=45)
def _class_partials(n: int, k: int) -> tuple[tuple[FixedRows, Monomial], ...]:
    """Each partial of Binomial(n, k) as its bare fixed rows with their (#monominoes, #dominoes).

    The partials are built from the row recursion, with no block partition:
    each level's bottom row is one of ``_bottom_rows`` for its label, and
    the rows above are a partial of the level below.  They come in
    ``enumerate_partials``'s order, which sorts by (``path.steps``, fixed
    rows).  A level's steps are "N" (NI) or "WN" (NL), so the steps order
    the partials by their label sequences, NI first, and the partials of
    one label sequence are the product of each level's rows, which
    ``row_tilings`` lists in tuple order.  The extended tilings of type
    (n, k, r) are these partials with r strips, so every r shares them.
    """
    return tuple(
        (tuple(runs for runs, _, _ in rows), (sum(m for _, m, _ in rows), sum(d for _, _, d in rows)))
        for levels in _label_sequences(n, k)
        for rows in itertools.product(*levels)
    )


def _label_sequences(n: int, k: int) -> list[tuple[tuple[_Row, ...], ...]]:
    """Each NI/NL label sequence of Binomial(n, k), in order, as the rows each level may fix.

    This is the recursion {n brace k} = {k+1}{n-1 brace k} +
    t{n-k-1}{n-1 brace k-1} on the tiling side: below delta_n's bottom row
    lies delta_{n-1}, entered at x = k after an NI step and at x = k - 1
    after an NL one.  delta_1 and delta_0 have no rows, so one empty partial.
    """
    if n <= 1:
        return [()]
    return [
        (rows,) + rest
        for k_rest, rows in _bottom_rows(n, k)
        for rest in _label_sequences(n - 1, k_rest)
    ]


def _bottom_rows(n: int, k: int) -> Iterator[tuple[int, tuple[_Row, ...]]]:
    """The fixed bottom rows of Binomial(n, k) by label, NI first, each with its counts.

    Yields the next level's k with the rows, each as (runs, #monominoes,
    #dominoes).  The path starts at x = k on a row of n - 1 cells.  For
    k < n the step is NI and fixes the k cells left of it, in any tiling.
    For 1 <= k <= n - 2 it may instead be NL: a domino covers cells k and
    k + 1, and it and any tiling of the rest of the row are fixed.  For
    k = n the path starts past the row, steps west to its end and fixes
    nothing.
    """
    if k < n:
        yield k, tuple((((1, tiles),) if tiles else (), *_row_data(tiles)[2:]) for tiles in row_tilings(k))
    if 1 <= k <= n - 2:
        tails = row_tilings(n - k - 2)
        yield k - 1, tuple((((k, (2,) + tiles),), *_row_data((2,) + tiles)[2:]) for tiles in tails)
    if k == n:
        yield k - 1, (((), 0, 0),)


def _trace_key(n: int, k: int, key: Key, mirror: Container[Key], memo: _Memo) -> _Image | Malformed:
    """iota of a key with its case letters, or the Malformed, caused by the refusal, that iota hit.

    This is the one place iota runs at the top level: ``iota_trace`` calls
    it with an empty ``mirror`` and raises its Malformed.  The top-level
    call is never stored in ``memo``: each key is traced once.  Its
    subcalls are read from ``memo`` and stored there.  An image in the
    ``mirror`` class is valid by membership and returned as its key; any
    other is validated by ``partial_from_fixed`` and returned as the
    ``ExtendedTiling`` that walk built, so no caller walks it again.
    """
    fixed, strips = key
    trace: list[str] = []
    try:
        image = _iota(n, k, fixed, strips, trace, memo)
        if image not in mirror:
            image = _extended(n, n - k + len(strips), image)
    except ValueError as exc:
        malformed = Malformed(f"after cases {''.join(trace)}: {exc}")
        malformed.__cause__ = exc
        return malformed
    return image, "".join(trace)


def _class_report(n: int, k: int, r: int, source: _Traced, target: _Traced) -> InvolutionReport:
    """Check class (n, k, r) against its mirror class from both classes' images.

    Each tiling's weight is the monomial of its (#monominoes, #dominoes), so
    the class sums are tallied as counts per pair and built once, and an
    image preserves weight when its pair is its source's.  Each image was
    validated when it was traced (``_trace_key``).  An image outside the
    mirror class has no entry there, so ``_trace_key`` returned it as the
    ``ExtendedTiling`` that validated it; its type and counts are read from
    that, and it is traced here with a memo of its own.  ``ExtendedTiling``
    is otherwise built only to write a failure line.
    Each image is looked up in the mirror class once; iota maps onto it
    when every image is a member and the distinct images are as many as
    its members, so the onto check needs no second lookup.
    """
    k_mirror = n - k + r
    mirror = (n, k_mirror, r)
    lhs, rhs = symmetry_sides(n, k, r)
    failures: list[str] = []
    hits = []
    outside = False  # whether an image in hits is not a member of the mirror class
    for key, (counts, result) in source.items():
        if isinstance(result, Malformed):
            failures.append(f"iota failed on {_extended(n, k, key).to_json_dict()}: {result}")
            continue
        image, trace = result
        outsider = isinstance(image, ExtendedTiling)
        if outsider:
            if image.type_triple() != mirror:
                failures.append(f"type {image.type_triple()} != {mirror} after {trace}")
                continue
            image_counts, image = image.tile_counts(), (image.partial.fixed, image.strips)
            back = _trace_key(n, k_mirror, image, source, {})
        else:
            image_counts, back = target[image]
        if image_counts != counts:
            failures.append(f"weight changed on {_extended(n, k, key).to_json_dict()}")
        if isinstance(back, Malformed):
            failures.append(f"iota failed on an image: {back}")
            continue
        if back[0] != key:
            failures.append(f"iota^2 != id on {_extended(n, k, key).to_json_dict()}")
        hits.append(image)
        outside |= outsider
    class_sum = Poly2(Counter(counts for counts, _ in source.values()))
    target_sum = Poly2(Counter(counts for counts, _ in target.values()))
    distinct = set(hits)
    if len(distinct) != len(source):
        failures.append("iota is not injective on the class")
    if outside or len(distinct) != len(target):
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

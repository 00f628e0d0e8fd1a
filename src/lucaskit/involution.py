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

from . import levels, shapes_tilings
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


# iota reads only short rows and strips, so its row arithmetic repeats: the
# level check's sweep to n = 8 makes 14,545 bottom-row classifications of
# 880 keys and 14,196 first cuts of 277 keys, the exhaustive fallback 2.2
# million of each over the same keys.  So those two are cached, on tuples
# only.  Past n = 8 the keys outgrow the bound: to n = 12 the classifications
# miss 11,221 times, and to n = 14 the two see 31,030 and 9,239 keys.  Yet
# unbounded caches ran that sweep at most about 5 % faster, while with neither
# (nor ``levels``' opaque-part caches) the sweep to n = 12 took 2.3-2.8 s
# against 1.3-1.9 s (2 cores, Python 3.11).  ``strip_last`` goes through
# ``strip_first``; a cache of its own ran about 3 % faster for 64 KB more peak RSS.
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
    ``verify_involution`` does not call this: it proves iota by levels, and
    its exhaustive fallback traces each member against the mirror class,
    and walks only an image that is not there.
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

    The type is checked, and the partials of Binomial(n, k) listed
    (``shapes_tilings.enumerate_partials``), when this is called; the
    members are built as they are read, each partial with every choice of
    strips.  ``verify_involution`` does not call this: its exhaustive check
    reads the same members as bare keys from ``_class_keys``.
    """
    if not 0 <= r <= k <= n:
        raise ValueError("need 0 <= r <= k <= n")
    partials, strip_choices = shapes_tilings.enumerate_partials(Binomial(n, k)), _strip_choices(k, r)
    return (ExtendedTiling(partial, strips) for partial in partials for strips in strip_choices)


def _strip_choices(k: int, r: int) -> list[tuple[Strip, ...]]:
    """Every (S_1, ..., S_r) with S_i a tiling of k - i cells."""
    return list(itertools.product(*(row_tilings(k - i) for i in range(1, r + 1))))


@dataclass(frozen=True)
class InvolutionReport:
    """The involution's check on one type class and its mirror.

    ``method`` names how it was made: ``"levels"`` when iota was proved on
    the type and its mirror level by level (``levels.holds``) and each
    class's partials summed to {n brace k}, ``"exhaustive"`` when iota was
    traced on every member (``_traced_pair``).  Both give the same
    fields, so ``to_json_dict`` leaves the method out.  Frozen, with
    ``failures`` a tuple: ``verify_involution`` hands the same cached report
    to every caller.
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
    method: str = "exhaustive"

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
    verified together, once, and a later call for either returns its cached
    report.  The pair is proved level by level (``levels.proves``),
    with no member traced; only when a level fails, or a class sum misses its
    symmetry side, is every member traced (``_traced_pair``), so that the
    report names what failed; past ``MAX_TRACED_MEMBERS`` members, counted
    as its symmetry sides at s = t = 1, the pair raises ValueError.  Both
    methods give the same report.
    """
    return _report(n, k, r, _checked_pair)


def _verify_exhaustively(n: int, k: int, r: int) -> InvolutionReport:
    """``verify_involution`` with every member traced (``_verify_pair``), never by levels."""
    return _report(n, k, r, _verify_pair)


def _report(n: int, k: int, r: int, verify_pair) -> InvolutionReport:
    """The report of type (n, k, r) from ``verify_pair`` of its mirror pair, low k first."""
    if not 0 <= r <= k <= n:
        raise ValueError("need 0 <= r <= k <= n")
    mirror = n - k + r
    low, high = verify_pair(n, min(k, mirror), max(k, mirror), r)
    return low if k <= mirror else high


# A pair whose levels fail traces each member of its two classes, about 1.2 KB a member at the
# peak: (9, 5, 2) with (9, 6, 2), 371,280 members, took 10 s and 446 MB (2 cores, Python 3.11).
# A larger pair is refused before any member is listed.
MAX_TRACED_MEMBERS = 10**6


@functools.lru_cache(maxsize=None)
def _checked_pair(n: int, k_lo: int, k_hi: int, r: int) -> tuple[InvolutionReport, InvolutionReport]:
    """The mirror pair's reports by levels, or, when the levels fail, by tracing every member.

    A class sum is its partials' sum (``levels._class_weight``) times the
    strips' {k}...{k-r+1}, and its symmetry side {n brace k} times the same
    nonzero factors (r <= k), so ``levels.proves`` compares the first
    factors.  The sums are then ``symmetry_sides(n, k_lo, r)``, swapped for
    the mirror; a class's size, which the fallback's bound counts, is its sum
    at s = t = 1, where every member weighs 1.  The fallback's reports are
    checked against the same sides, so a pair computes them once.
    """
    lhs, rhs = symmetry_sides(n, k_lo, r)
    size, target_size = lhs.evaluate(1, 1), rhs.evaluate(1, 1)
    if levels.proves(n, k_lo, k_hi, r):
        low = InvolutionReport(n, k_lo, r, size, target_size, lhs, rhs, lhs, rhs, method="levels")
        return low, InvolutionReport(n, k_hi, r, target_size, size, rhs, lhs, rhs, lhs, method="levels")
    if (members := size + target_size * (k_hi != k_lo)) > MAX_TRACED_MEMBERS:
        pair = f"{members} extended tilings in ({n},{k_lo},{r}) and its mirror"
        raise ValueError(f"{pair}; the exhaustive check traces at most {MAX_TRACED_MEMBERS}")
    return _traced_pair(n, k_lo, k_hi, r, lhs, rhs)


# iota's image with its case letters: the key of a member of the mirror
# class, or any other image as the extended tiling that validated it.
_Image = tuple[Key | ExtendedTiling, str]
# A traced class: each member key with its (#monominoes, #dominoes) and its
# image, or the Malformed that iota raised.
_Traced = dict[Key, tuple[Monomial, _Image | Malformed]]


@functools.lru_cache(maxsize=None)
def _verify_pair(n: int, k_lo: int, k_hi: int, r: int) -> tuple[InvolutionReport, InvolutionReport]:
    """``_traced_pair`` with the pair's symmetry sides, for a caller that has not computed them."""
    return _traced_pair(n, k_lo, k_hi, r, *symmetry_sides(n, k_lo, r))


def _traced_pair(
    n: int, k_lo: int, k_hi: int, r: int, lhs: Poly2, rhs: Poly2
) -> tuple[InvolutionReport, InvolutionReport]:
    """The reports of the mirror types (n, k_lo, r) and (n, k_hi, r), every member traced.

    Each class is enumerated once as bare keys, and iota runs once on each
    member's bare rows, with no ``ExtendedTiling`` built.  An image is valid
    exactly when it is a member of the mirror class, since a partial tiling
    is determined by its fixed rows; so a lookup in the mirror class
    validates it (``_trace_key``), and iota^2 = id is read off the mirror
    class's images.  Members that differ only in what the recursion has
    peeled off make the same recursive call, so both classes share one
    memo of iota's subcalls, and each subcall runs once per pair.  The
    memo, the keys and the images are dropped when the pair returns; the
    pair caches (``_checked_pair``, ``_verify_pair``) hold only the reports,
    so they grow with the number of types verified, not with their class
    sizes.  The row arithmetic iota repeats
    (bottom-row classifications, first cuts) is in bounded caches of its
    own, which hold no member and no image.
    The classes, their traces and their reports are keyed by k, low k first,
    so when k_lo = k_hi the two classes are one, and so are the reports.
    ``lhs`` and ``rhs`` are the pair's ``symmetry_sides(n, k_lo, r)``: each
    report checks its class sums against its own, the mirror's swapped.
    """
    memo: _Memo = {}
    classes = {k: dict(_class_keys(n, k, r)) for k in dict.fromkeys((k_lo, k_hi))}
    traced = {
        k: {key: (counts, _trace_key(n, k, key, classes[n - k + r], memo)) for key, counts in members.items()}
        for k, members in classes.items()
    }
    sides = {k_hi: (rhs, lhs), k_lo: (lhs, rhs)}
    reports = {k: _class_report(n, k, r, source, traced[n - k + r], *sides[k]) for k, source in traced.items()}
    return reports[k_lo], reports[k_hi]


def _class_keys(n: int, k: int, r: int) -> Iterator[tuple[Key, Monomial]]:
    """Each member of type (n, k, r), in ``enumerate_extended``'s order, as a key with its counts.

    The counts are the member's (#monominoes, #dominoes), its partial's plus its strips'.
    """
    strip_choices = [(strips, tile_counts(strips)) for strips in _strip_choices(k, r)]
    for partial in shapes_tilings.enumerate_partials(Binomial(n, k)):
        monos, doms = tile_counts(partial.fixed_tiles())
        for strips, (strip_monos, strip_doms) in strip_choices:
            yield (partial.fixed, strips), (monos + strip_monos, doms + strip_doms)


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


def _class_report(
    n: int, k: int, r: int, source: _Traced, target: _Traced, lhs: Poly2, rhs: Poly2
) -> InvolutionReport:
    """Check class (n, k, r) against its mirror class from both classes' images, and its sums against its sides.

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
        method="exhaustive",
    )

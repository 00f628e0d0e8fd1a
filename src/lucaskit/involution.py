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

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .lucas import symmetry_sides
from .polyring import Poly2
from .shapes_tilings import (
    Binomial,
    FixedRows,
    MalformedPartial,
    PartialTiling,
    Run,
    Tiles,
    _row_data,
    check_keys,
    enumerate_partials,
    partial_from_fixed,
    row_tilings,
    tile_rows_from_json,
    tile_tokens,
    tiles_weight,
)

Strip = Tiles  # a fully tiled strip is just its tile lengths, left to right


class BrokenDomino(ValueError):
    """A strip cut that would split a domino."""


class Malformed(ValueError):
    """The involution hit a state its input type forbids."""


def strip_cells(strip: Strip) -> int:
    return sum(strip)


def strip_concat(left: Strip, right: Strip) -> Strip:
    return tuple(left) + tuple(right)


def strip_first(strip: Strip, cells: int) -> Strip:
    """The first ``cells`` boxes; undefined if that would break a domino."""
    if not 0 <= cells <= strip_cells(strip):
        raise ValueError(f"cannot take {cells} cells of a {strip_cells(strip)}-cell strip")
    taken = 0
    for i, tile in enumerate(strip):
        if taken == cells:
            return strip[:i]
        taken += tile
        if taken > cells:
            raise BrokenDomino(f"cut at {cells} splits a domino")
    return tuple(strip)


def strip_last(strip: Strip, cells: int) -> Strip:
    """The last ``cells`` boxes; undefined if that would break a domino."""
    head = strip_first(strip, strip_cells(strip) - cells)
    return strip[len(head):]


def strip_reverse(strip: Strip) -> Strip:
    return tuple(reversed(strip))


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
    return _classify_bottom(strip_cells(context), ((1, context),), x)


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

    def weight(self) -> Poly2:
        return tiles_weight(self.partial.fixed_tiles() + list(self.strips))

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

    The input is valid by construction, so the recursion runs on bare fixed
    rows and strips; only the image is validated, once, as it is rebuilt.
    """
    n, k, r = extended.type_triple()
    trace: list[str] = []
    try:
        rows, strips = _iota(n, k, extended.partial.fixed, extended.strips, trace)
        result = ExtendedTiling(partial_from_fixed(Binomial(n, n - k + r), rows), strips)
    except ValueError as exc:
        raise Malformed(f"after cases {''.join(trace)}: {exc}") from exc
    return result, tuple(trace)


def _iota(
    n: int, k: int, rows: FixedRows, strips: tuple[Strip, ...], trace: list[str]
) -> tuple[FixedRows, tuple[Strip, ...]]:
    """iota on type (n, k, len(strips)) given B's fixed rows; returns the image's."""
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
            res_rows, res_strips = _iota(n - 1, k, inner_rows, strips + (s_new,), trace)
            row = strip_concat(res_strips[r], strip_reverse(strip_last(R, r + 1)))
            return _prepend_row(res_rows, "left", row, n), res_strips[:r]
        trace.append("b")
        res_rows, res_strips = _iota(n - 1, k, inner_rows, strips, trace)
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
        res_rows, res_strips = _iota(n - 1, k - 1, inner_rows, inner_strips, trace)
        row = strip_first(rs, n - k + r)
        return _prepend_row(res_rows, "left", row, n), res_strips
    trace.append("d")
    res_rows, res_strips = _iota(n - 1, k - 1, inner_rows, strips[1:], trace)
    row = strip_last(rs, k - r)
    first = strip_first(rs, n - k + r - 1)
    return _prepend_row(res_rows, "right", row, n), (first,) + res_strips


# -- enumeration and verification -----------------------------------------------


def enumerate_extended(n: int, k: int, r: int) -> Iterator[ExtendedTiling]:
    """Every extended binomial partial tiling of type (n, k, r)."""
    if not 0 <= r <= k <= n:
        raise ValueError("need 0 <= r <= k <= n")
    partials = enumerate_partials(Binomial(n, k))
    strip_choices = [row_tilings(k - i) for i in range(1, r + 1)]
    for partial in partials:
        for strips in itertools.product(*strip_choices):
            yield ExtendedTiling(partial, strips)


@dataclass
class InvolutionReport:
    """Exhaustive check of the involution on one type class."""

    n: int
    k: int
    r: int
    class_size: int
    target_size: int
    class_sum: Poly2
    target_sum: Poly2
    lhs: Poly2
    rhs: Poly2
    failures: list[str] = field(default_factory=list)

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
            "failures": self.failures,
            "ok": self.ok,
        }


def verify_involution(n: int, k: int, r: int) -> InvolutionReport:
    """Check type contract, involutivity, weight preservation and class sums."""
    source = list(enumerate_extended(n, k, r))
    target = list(enumerate_extended(n, n - k + r, r))
    lhs, rhs = symmetry_sides(n, k, r)
    failures: list[str] = []
    class_sum = Poly2.zero()
    target_sum = Poly2.zero()
    for ext in target:
        target_sum = target_sum + ext.weight()
    images = []
    for ext in source:
        class_sum = class_sum + ext.weight()
        try:
            image, trace = iota_trace(ext)
        except Malformed as exc:
            failures.append(f"iota failed on {ext.to_json_dict()}: {exc}")
            continue
        if image.type_triple() != (n, n - k + r, r):
            failures.append(f"type {image.type_triple()} != {(n, n - k + r, r)} after {''.join(trace)}")
            continue
        if image.weight() != ext.weight():
            failures.append(f"weight changed on {ext.to_json_dict()}")
        try:
            back = iota(image)
        except Malformed as exc:
            failures.append(f"iota failed on an image: {exc}")
            continue
        if back != ext:
            failures.append(f"iota^2 != id on {ext.to_json_dict()}")
        images.append(image)
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

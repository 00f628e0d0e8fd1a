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

from .lucas import lucas, lucasnomial
from .polyring import Poly2
from .shapes_tilings import (
    DOMINO,
    MONO,
    Binomial,
    MalformedPartial,
    PartialTiling,
    Tiles,
    partial_from_fixed,
    enumerate_partials,
    row_tilings,
    tokens_to_tiles,
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


def strip_weight(strip: Strip) -> Poly2:
    return Poly2.monomial(strip.count(MONO), strip.count(DOMINO))


def _blocked(strip: Strip) -> set[int]:
    """x coordinates interior to a domino of the strip laid out from x = 0."""
    out = set()
    pos = 0
    for tile in strip:
        if tile == DOMINO:
            out.add(pos + 1)
        pos += tile
    return out


def classify_point(context: PartialTiling | Strip, x: int) -> str:
    """NI when a north step from (x, 0) stays inside and cuts no domino.

    Strips count as one-row partitions in the first quadrant; anything
    outside the diagram (x < 0 or beyond the row) is an NL point.
    """
    if isinstance(context, PartialTiling):
        shape = context.shape()
        if shape.n_rows == 0:
            return "NI" if x == 0 else "NL"
        if not 0 <= x <= shape.cells(1):
            return "NL"
        blocked: set[int] = set()
        for start, tiles in context.fixed[0]:
            pos = start - 1
            for tile in tiles:
                if tile == DOMINO:
                    blocked.add(pos + 1)
                pos += tile
        return "NL" if x in blocked else "NI"
    if not 0 <= x <= strip_cells(context):
        return "NL"
    return "NL" if x in _blocked(context) else "NI"


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
        total = self.partial.weight()
        for strip in self.strips:
            total = total * strip_weight(strip)
        return total

    def to_json_dict(self) -> dict:
        return {
            "B": self.partial.to_json_dict(),
            "strips": [["M" if t == MONO else "D" for t in s] for s in self.strips],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> ExtendedTiling:
        partial = PartialTiling.from_json_dict(data["B"])
        strips = tuple(tokens_to_tiles(s) for s in data["strips"])
        return ExtendedTiling(partial, strips)


def _bottom_strip(partial: PartialTiling) -> Strip:
    runs = partial.fixed[0] if partial.fixed else ()
    return runs[0][1] if runs else ()


def _drop_bottom(partial: PartialTiling, k_inner: int) -> PartialTiling:
    n = partial.variant.n
    return partial_from_fixed(Binomial(n - 1, k_inner), partial.fixed[1:])


def _prepend_row(inner: PartialTiling, anchor: str, tiles: Strip, n: int, k_out: int) -> PartialTiling:
    if n == 1:
        # delta_1 has no rows; the "bottom row" being attached holds no cells.
        if tiles:
            raise MalformedPartial("a nonempty strip cannot enter an empty bottom row")
        return partial_from_fixed(Binomial(1, k_out), ())
    if tiles:
        start = 1 if anchor == "left" else n - strip_cells(tiles)
        bottom: tuple = ((start, tuple(tiles)),)
    else:
        bottom = ()
    return partial_from_fixed(Binomial(n, k_out), (bottom,) + inner.fixed)


def iota(extended: ExtendedTiling) -> ExtendedTiling:
    """Apply the involution; type (n, k, r) maps to (n, n-k+r, r)."""
    return iota_trace(extended)[0]


def iota_trace(extended: ExtendedTiling) -> tuple[ExtendedTiling, tuple[str, ...]]:
    """The involution plus the case letter chosen at each recursion level."""
    trace: list[str] = []
    try:
        result = _iota(extended, trace)
    except (BrokenDomino, MalformedPartial, ValueError) as exc:
        if isinstance(exc, Malformed):
            raise
        raise Malformed(f"after cases {''.join(trace)}: {exc}") from exc
    return result, tuple(trace)


def _iota(extended: ExtendedTiling, trace: list[str]) -> ExtendedTiling:
    n, k, r = extended.type_triple()
    if n == 0:
        return extended
    partial = extended.partial
    strips = extended.strips
    R = _bottom_strip(partial)
    start_ni = classify_point(partial, k) == "NI"

    if start_ni:
        second_ni = classify_point(partial, k - r - 1) == "NI"
        if second_ni:
            trace.append("a")
            s_new = strip_first(R, k - r - 1)
            inner = ExtendedTiling(_drop_bottom(partial, k), strips + (s_new,))
            res = _iota(inner, trace)
            row = strip_concat(res.strips[r], strip_reverse(strip_last(R, r + 1)))
            out_partial = _prepend_row(res.partial, "left", row, n, n - k + r)
            return ExtendedTiling(out_partial, res.strips[:r])
        trace.append("b")
        inner = ExtendedTiling(_drop_bottom(partial, k), strips)
        res = _iota(inner, trace)
        row = strip_reverse(strip_first(R, k - r))
        out_partial = _prepend_row(res.partial, "right", row, n, n - k + r)
        if r == 0:
            return ExtendedTiling(out_partial, ())
        first = strip_concat(res.strips[r - 1], strip_reverse(strip_last(R, r)))
        return ExtendedTiling(out_partial, (first,) + res.strips[: r - 1])

    s1 = strips[0] if r >= 1 else ()
    # With r = 0 there is no S_1 and the NI branch applies by convention.
    second_ni = r == 0 or classify_point(s1, k - r - 1) == "NI"
    rs = strip_concat(strip_reverse(R), strip_reverse(s1))
    if second_ni:
        trace.append("c")
        # With r = 0 there is no S_1 to cut, and the inner call carries no strips.
        inner_strips = strips[1:] + (strip_first(s1, k - r - 1),) if r >= 1 else ()
        inner = ExtendedTiling(_drop_bottom(partial, k - 1), inner_strips)
        res = _iota(inner, trace)
        row = strip_first(rs, n - k + r)
        out_partial = _prepend_row(res.partial, "left", row, n, n - k + r)
        return ExtendedTiling(out_partial, res.strips)
    trace.append("d")
    inner = ExtendedTiling(_drop_bottom(partial, k - 1), strips[1:])
    res = _iota(inner, trace)
    row = strip_last(rs, k - r)
    out_partial = _prepend_row(res.partial, "right", row, n, n - k + r)
    first = strip_first(rs, n - k + r - 1)
    return ExtendedTiling(out_partial, (first,) + res.strips)


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


def symmetry_sides(n: int, k: int, r: int) -> tuple[Poly2, Poly2]:
    """LHS and RHS of the symmetry identity for type (n, k, r)."""
    lhs = lucasnomial(n, k)
    for i in range(r):
        lhs = lhs * lucas(k - i)
    rhs = lucasnomial(n, n - k + r)
    for j in range(1, r + 1):
        rhs = rhs * lucas(n - k + j)
    return lhs, rhs


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

"""Young diagrams, monomino/domino tilings, lattice paths and partial tilings.

Geometry: a shape lives in the first quadrant with its southwest corner at the
origin, rows indexed 1..l from the bottom (French notation).  Cell [r, j]
occupies x in [j-1, j], y in [r-1, r].  Two unit boundary segments, from
(outer_1, 0) east and from (0, l) north, count as part of the diagram, which
is what lets greedy paths finish their climb along the y-axis.

A tiling covers each row by monominoes (length 1) and dominoes (length 2);
its weight is s^(#monominoes) t^(#dominoes).  For each variant below, a
deterministic greedy lattice path is carved through a tiling and the tiling
set splits into blocks, one per *partial tiling* (the cells every member of
the block agrees on).  The block sums recover Lucasnomials, the Catalan and
Fuss-Catalan analogues, and their d-divisible versions, which is exactly what
``verify_block_partition`` checks against the algebraic side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Mapping

from . import coxcat
from .lucas import d_lucasnomial, d_lucastorial, lucas, lucasnomial, lucastorial
from .polyring import NotDivisible, Poly2

MONO = 1
DOMINO = 2

Tiles = tuple[int, ...]  # tile lengths, each 1 or 2
Run = tuple[int, Tiles]  # (start column, tiles) of one fixed stretch
FixedRows = tuple[tuple[Run, ...], ...]


class MalformedPartial(ValueError):
    """Fixed cells that no actual block representative produces."""


class MalformedModel(ValueError):
    """A rectangle tiling outside the image of the bijection."""


# -- shapes -------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """A straight or skew Young diagram; row r holds columns inner_r+1..outer_r."""

    outer: tuple[int, ...]
    inner: tuple[int, ...] = ()

    def __post_init__(self):
        if any(a < b for a, b in zip(self.outer, self.outer[1:])):
            raise ValueError("outer rows must weakly decrease")
        if any(a < 0 for a in self.outer):
            raise ValueError("negative row length")
        padded = self.inner + (0,) * (len(self.outer) - len(self.inner))
        if len(self.inner) > len(self.outer):
            raise ValueError("inner shape longer than outer")
        if any(a < b for a, b in zip(padded, padded[1:])):
            raise ValueError("inner rows must weakly decrease")
        if any(m > o for m, o in zip(padded, self.outer)):
            raise ValueError("inner shape sticks out of outer shape")
        object.__setattr__(self, "inner", padded)

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    def cells(self, r: int) -> int:
        """Number of boxes in row r (1-indexed from the bottom)."""
        return self.outer[r - 1] - self.inner[r - 1]

    def is_straight(self) -> bool:
        return all(m == 0 for m in self.inner)

    def to_json_dict(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner)}

    @staticmethod
    def from_json_dict(data: Mapping) -> Shape:
        return Shape(tuple(data["outer"]), tuple(data.get("inner", ())))


def staircase(n: int) -> Shape:
    """delta_n = (n-1, n-2, ..., 1); empty for n <= 1."""
    if n < 0:
        raise ValueError("negative staircase index")
    return Shape(tuple(range(n - 1, 0, -1)))


def d_staircase(n: int, d: int) -> Shape:
    """delta_{n:d} = (nd-1, (n-1)d-1, ..., d-1).

    For d == 1 the printed last row is empty, so the shape degenerates to the
    plain staircase delta_n (same boxes, one less row).
    """
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    if d == 1:
        return staircase(n)
    return Shape(tuple(j * d - 1 for j in range(n, 0, -1)))


# -- tilings ------------------------------------------------------------------


@dataclass(frozen=True)
class Tiling:
    """One monomino/domino tiling per row of a shape."""

    shape: Shape
    rows: tuple[Tiles, ...]

    def __post_init__(self):
        if len(self.rows) != self.shape.n_rows:
            raise ValueError("row count mismatch")
        for r, tiles in enumerate(self.rows, start=1):
            if sum(tiles) != self.shape.cells(r):
                raise ValueError(f"row {r} tiles cover {sum(tiles)} of {self.shape.cells(r)} cells")
            if any(t not in (MONO, DOMINO) for t in tiles):
                raise ValueError("tiles must be monominoes or dominoes")

    def weight(self) -> Poly2:
        monos = sum(tiles.count(MONO) for tiles in self.rows)
        doms = sum(tiles.count(DOMINO) for tiles in self.rows)
        return Poly2.monomial(monos, doms)

    def to_json_dict(self) -> dict:
        return {
            "shape": self.shape.to_json_dict(),
            "rows": [[("M" if t == MONO else "D") for t in tiles] for tiles in self.rows],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> Tiling:
        shape = Shape.from_json_dict(data["shape"])
        rows = tuple(tokens_to_tiles(row) for row in data["rows"])
        return Tiling(shape, rows)


def tokens_to_tiles(tokens) -> Tiles:
    out = []
    for tok in tokens:
        if tok == "M":
            out.append(MONO)
        elif tok == "D":
            out.append(DOMINO)
        else:
            raise ValueError(f"unknown tile token {tok!r}")
    return tuple(out)


@lru_cache(maxsize=None)
def row_tilings(m: int) -> tuple[Tiles, ...]:
    """All tilings of a row of m cells; there are F_{m+1} of them."""
    if m < 0:
        return ()
    if m == 0:
        return ((),)
    if m == 1:
        return ((MONO,),)
    return tuple((MONO,) + u for u in row_tilings(m - 1)) + tuple(
        (DOMINO,) + u for u in row_tilings(m - 2)
    )


def enumerate_tilings(shape: Shape) -> Iterator[Tiling]:
    """Every tiling exactly once, rows varying independently, stable order."""
    per_row = [row_tilings(shape.cells(r)) for r in range(1, shape.n_rows + 1)]
    for combo in itertools.product(*per_row):
        yield Tiling(shape, combo)


def count_tilings(shape: Shape) -> int:
    total = 1
    for r in range(1, shape.n_rows + 1):
        total *= len(row_tilings(shape.cells(r)))
    return total


def tiling_weight(tiling: Tiling) -> Poly2:
    return tiling.weight()


@lru_cache(maxsize=None)
def _row_weight(m: int) -> Poly2:
    total = Poly2.zero()
    for tiles in row_tilings(m):
        total = total + Poly2.monomial(tiles.count(MONO), tiles.count(DOMINO))
    return total


def shape_weight(shape: Shape) -> Poly2:
    """Sum of tiling weights over all tilings of the shape.

    Rows tile independently, so the full sum is the product of the per-row
    enumeration sums; a test pins this against the literal all-tilings sum.
    """
    total = Poly2.one()
    for r in range(1, shape.n_rows + 1):
        total = total * _row_weight(shape.cells(r))
    return total


# -- lattice paths -------------------------------------------------------------


@dataclass(frozen=True)
class LatticePath:
    """N/W path from ``start`` with one NI/NL label per N step."""

    start: tuple[int, int]
    steps: str
    labels: tuple[str, ...]

    def crossings(self) -> tuple[tuple[int, int, str], ...]:
        """(row, x, label) of each N step, bottom row first."""
        x, _ = self.start
        out = []
        row = 1
        i = 0
        for step in self.steps:
            if step == "W":
                x -= 1
            else:
                out.append((row, x, self.labels[i]))
                row += 1
                i += 1
        return tuple(out)


@lru_cache(maxsize=None)
def _row_data(tiles: Tiles) -> tuple[frozenset[int], dict[int, int], int, int]:
    """(blocked x's, clean-cut positions -> tile index, #monominoes, #dominoes)."""
    blocked = set()
    bounds = {0: 0}
    pos = 0
    for i, t in enumerate(tiles):
        if t == DOMINO:
            blocked.add(pos + 1)
        pos += t
        bounds[pos] = i + 1
    return frozenset(blocked), bounds, tiles.count(MONO), tiles.count(DOMINO)


def _trace(row_lens, blocked_rows, start_x: int, terminal: int, mod_d: int | None):
    """Greedy N-else-W walk; returns (x per crossed row, NI/NL labels).

    An N step along x crossing row y+1 is legal when it stays inside the
    diagram (or rides the (0, l) boundary segment), does not cut a domino,
    and, in the d-divisible case, has x = 0 or -1 mod d with each -1 line
    used at most once.
    """
    x = start_x
    xs: list[int] = []
    labels: list[str] = []
    used: set[int] = set()
    n_rows = len(row_lens)
    prev_w = False
    for y in range(terminal):
        while True:
            if y < n_rows:
                ok = 0 <= x <= row_lens[y] and x not in blocked_rows[y]
            else:
                ok = x == 0
            if ok and mod_d is not None:
                rem = x % mod_d
                if rem == 0:
                    pass
                elif rem == mod_d - 1 and x not in used:
                    pass
                else:
                    ok = False
            if ok:
                break
            x -= 1
            prev_w = True
            if x < 0:
                raise AssertionError("greedy path fell off the diagram")
        xs.append(x)
        if mod_d is not None:
            if x % mod_d == 0:
                labels.append("NI")
            else:
                labels.append("NL")
                used.add(x)
        else:
            labels.append("NL" if prev_w else "NI")
        prev_w = False
    return xs, labels


def _path_from_xs(start_x: int, xs) -> str:
    steps = []
    x = start_x
    for nx in xs:
        steps.append("W" * (x - nx))
        steps.append("N")
        x = nx
    return "".join(steps)


# -- variants -------------------------------------------------------------------


@dataclass(frozen=True)
class Binomial:
    """Path from (k, 0) in delta_n; blocks realize the Lucasnomial {n brace k}."""

    n: int
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError("need 0 <= k <= n")

    def shape(self) -> Shape:
        return staircase(self.n)

    def start_x(self) -> int:
        return self.k

    def terminal(self) -> int:
        return self.n

    def mod_d(self) -> int | None:
        return None

    def divisor(self) -> Poly2:
        return lucastorial(self.k) * lucastorial(self.n - self.k)

    def expected_total(self) -> Poly2:
        return lucasnomial(self.n, self.k)


@dataclass(frozen=True)
class Catalan:
    """Path from (n-1, 0) in delta_2n; blocks realize the Catalan analogue."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("need n >= 0")

    def shape(self) -> Shape:
        return staircase(2 * self.n)

    def start_x(self) -> int:
        return max(self.n - 1, 0)

    def terminal(self) -> int:
        return 2 * self.n

    def mod_d(self) -> int | None:
        return None

    def divisor(self) -> Poly2:
        return lucastorial(self.n) * lucastorial(self.n + 1)

    def expected_total(self) -> Poly2:
        return coxcat.lucas_catalan(self.n)


@dataclass(frozen=True)
class FussCatalan:
    """Path from (n-1, 0) in delta_{(k+1)n}; blocks realize the Fuss analogue."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 0 or self.k < 1:
            raise ValueError("need n >= 0 and k >= 1")

    def shape(self) -> Shape:
        return staircase((self.k + 1) * self.n)

    def start_x(self) -> int:
        return max(self.n - 1, 0)

    def terminal(self) -> int:
        return (self.k + 1) * self.n

    def mod_d(self) -> int | None:
        return None

    def divisor(self) -> Poly2:
        return lucastorial(self.n) * lucastorial(self.k * self.n + 1)

    def expected_total(self) -> Poly2:
        return coxcat.fuss_catalan(self.n, self.k)


@dataclass(frozen=True)
class DDivisible:
    """Path from (kd, 0) in delta_{n:d}; blocks realize {n:d brace k:d}.

    N steps must sit on x = 0 or -1 (mod d), -1 lines once each; an N step is
    NI precisely when d divides its x.  d = 1 degenerates to Binomial rules.
    """

    n: int
    k: int
    d: int

    def __post_init__(self):
        if not 0 <= self.k <= self.n or self.d < 1:
            raise ValueError("need 0 <= k <= n and d >= 1")

    def shape(self) -> Shape:
        return d_staircase(self.n, self.d)

    def start_x(self) -> int:
        return self.k * self.d

    def terminal(self) -> int:
        return self.n

    def mod_d(self) -> int | None:
        return self.d if self.d >= 2 else None

    def divisor(self) -> Poly2:
        return d_lucastorial(self.k, self.d) * d_lucastorial(self.n - self.k, self.d)

    def expected_total(self) -> Poly2:
        return d_lucasnomial(self.n, self.k, self.d)


Variant = Binomial | Catalan | FussCatalan | DDivisible


# -- partial tilings --------------------------------------------------------------


@dataclass(frozen=True)
class PartialTiling:
    """The canonical representative of a block: fixed tiles plus the path."""

    variant: Variant
    path: LatticePath
    fixed: FixedRows

    def shape(self) -> Shape:
        return self.variant.shape()

    def weight(self) -> Poly2:
        monos = doms = 0
        for runs in self.fixed:
            for _, tiles in runs:
                monos += tiles.count(MONO)
                doms += tiles.count(DOMINO)
        return Poly2.monomial(monos, doms)

    def to_json_dict(self) -> dict:
        rows = []
        shape = self.shape()
        for r in range(1, shape.n_rows + 1):
            runs = self.fixed[r - 1]
            row = []
            col = 1
            for start, tiles in runs:
                row.extend(["."] * (start - col))
                row.extend("M" if t == MONO else "D" for t in tiles)
                col = start + sum(tiles)
            row.extend(["."] * (shape.cells(r) + 1 - col))
            rows.append(row)
        return {
            "variant": _variant_to_json(self.variant),
            "rows": rows,
            "start": list(self.path.start),
            "path": self.path.steps,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> PartialTiling:
        """Parse strictly: the document must be the partial's own serialisation.

        Unknown tokens, a wrong number of rows, and any field (``start``,
        ``path``, row padding, extra keys) that differs from the rebuilt
        partial's ``to_json_dict`` raise ``MalformedPartial``.
        """
        variant = _variant_from_json(data["variant"])
        n_rows = variant.shape().n_rows
        if len(data["rows"]) != n_rows:
            raise MalformedPartial(f"{len(data['rows'])} rows for a shape with {n_rows}")
        fixed = []
        for row in data["rows"]:
            runs: list[Run] = []
            col = 1
            current: list[int] = []
            start = None
            for tok in row:
                if tok == ".":
                    if current:
                        runs.append((start, tuple(current)))
                        current = []
                    col += 1
                elif tok in ("M", "D"):
                    if not current:
                        start = col
                    tile = MONO if tok == "M" else DOMINO
                    current.append(tile)
                    col += tile
                else:
                    raise MalformedPartial(f"unknown tile token {tok!r}")
            if current:
                runs.append((start, tuple(current)))
            fixed.append(tuple(runs))
        partial = partial_from_fixed(variant, tuple(fixed))
        canonical = partial.to_json_dict()
        wrong = sorted(key for key in canonical.keys() | data.keys() if canonical.get(key) != data.get(key))
        if wrong:
            raise MalformedPartial(f"{', '.join(wrong)} disagree with the partial the rows describe")
        return partial


def _variant_to_json(v: Variant) -> dict:
    if isinstance(v, Binomial):
        return {"kind": "binomial", "n": v.n, "k": v.k}
    if isinstance(v, Catalan):
        return {"kind": "catalan", "n": v.n}
    if isinstance(v, FussCatalan):
        return {"kind": "fuss", "n": v.n, "k": v.k}
    return {"kind": "ddivisible", "n": v.n, "k": v.k, "d": v.d}


def _variant_from_json(data: Mapping) -> Variant:
    kind = data["kind"]
    if kind == "binomial":
        return Binomial(data["n"], data["k"])
    if kind == "catalan":
        return Catalan(data["n"])
    if kind == "fuss":
        return FussCatalan(data["n"], data["k"])
    if kind == "ddivisible":
        return DDivisible(data["n"], data["k"], data["d"])
    raise ValueError(f"unknown variant kind {kind!r}")


def path_from_tiling(tiling: Tiling, variant: Variant) -> LatticePath:
    """The deterministic greedy path the variant carves through the tiling."""
    shape = variant.shape()
    if tiling.shape != shape:
        raise ValueError("tiling does not live on the variant's shape")
    if not shape.is_straight():
        raise ValueError("paths are defined on straight shapes only")
    row_lens = [shape.cells(r) for r in range(1, shape.n_rows + 1)]
    blocked = [_row_data(tiles)[0] for tiles in tiling.rows]
    xs, labels = _trace(row_lens, blocked, variant.start_x(), variant.terminal(), variant.mod_d())
    return LatticePath((variant.start_x(), 0), _path_from_xs(variant.start_x(), xs), tuple(labels))


def _fixed_rows(variant: Variant, tiling_rows, xs, labels) -> FixedRows:
    """Fixed cells per row: left of NI, right of NL, plus first-row specials."""
    n_rows = len(tiling_rows)
    fixed: list[tuple[Run, ...]] = []
    for r in range(1, n_rows + 1):
        tiles = tiling_rows[r - 1]
        x, label = xs[r - 1], labels[r - 1]
        _, bounds, _, _ = _row_data(tiles)
        if r == 1 and isinstance(variant, Catalan) and variant.n >= 1:
            if label == "NL":
                # Only the domino that deflected the path stays fixed.
                fixed.append(((variant.n - 1, (DOMINO,)),))
            else:
                fixed.append(())
            continue
        if r == 1 and isinstance(variant, FussCatalan) and variant.n >= 1:
            if label == "NL":
                fixed.append(_fuss_first_row(variant, tiles, bounds))
            else:
                fixed.append(())
            continue
        if label == "NI":
            cut = bounds[x]
            fixed.append(((1, tiles[:cut]),) if cut else ())
        else:
            cut = bounds[x]
            fixed.append(((x + 1, tiles[cut:]),) if cut < len(tiles) else ())
    return tuple(fixed)


def _fuss_first_row(variant: FussCatalan, tiles: Tiles, bounds) -> tuple[Run, ...]:
    """First-row fixing when the Fuss path opens with a west step.

    m is the least index whose block of n columns ends without a spanning
    domino; columns mn+1 .. (m+1)n - 1 then go blank while the rest right of
    the deflecting domino stays fixed.
    """
    n = variant.n
    blocked = _row_data(tiles)[0]
    length = sum(tiles)
    m = 1
    while (m + 1) * n - 1 in blocked:
        m += 1
    runs: list[Run] = [(n - 1, tiles[bounds[n - 2] : bounds[m * n]])]
    tail_start = (m + 1) * n - 1
    if tail_start < length:
        runs.append(((m + 1) * n, tiles[bounds[tail_start] :]))
    return tuple(runs)


def partial_from_tiling(tiling: Tiling, variant: Variant) -> PartialTiling:
    """The canonical partial tiling of the block containing ``tiling``."""
    shape = variant.shape()
    if tiling.shape != shape:
        raise ValueError("tiling does not live on the variant's shape")
    row_lens = [shape.cells(r) for r in range(1, shape.n_rows + 1)]
    blocked = [_row_data(tiles)[0] for tiles in tiling.rows]
    start = variant.start_x()
    xs, labels = _trace(row_lens, blocked, start, variant.terminal(), variant.mod_d())
    fixed = _fixed_rows(variant, tiling.rows, xs, labels)
    path = LatticePath((start, 0), _path_from_xs(start, xs), tuple(labels))
    return PartialTiling(variant, path, fixed)


def partial_weight(partial: PartialTiling) -> Poly2:
    return partial.weight()


def completion(variant: Variant, fixed: FixedRows) -> Tiling:
    """Fill every blank cell with a monomino; a member of the intended block."""
    shape = variant.shape()
    rows = []
    for r in range(1, shape.n_rows + 1):
        tiles: list[int] = []
        col = 1
        for start, run in fixed[r - 1]:
            if start < col:
                raise MalformedPartial(f"overlapping fixed runs in row {r}")
            tiles.extend([MONO] * (start - col))
            tiles.extend(run)
            col = start + sum(run)
        remaining = shape.cells(r) + 1 - col
        if remaining < 0:
            raise MalformedPartial(f"fixed run sticks out of row {r}")
        tiles.extend([MONO] * remaining)
        rows.append(tuple(tiles))
    return Tiling(shape, tuple(rows))


def partial_from_fixed(variant: Variant, fixed: FixedRows) -> PartialTiling:
    """Rebuild the canonical partial with the given fixed tiles, validating it.

    The monomino completion of the fixed cells must map back onto exactly the
    same fixed cells; otherwise no block has this representative.
    """
    candidate = partial_from_tiling(completion(variant, fixed), variant)
    if candidate.fixed != tuple(tuple(runs) for runs in fixed):
        raise MalformedPartial("fixed cells are not a block representative")
    return candidate


# -- block partitions --------------------------------------------------------------


@dataclass
class BlockPartitionReport:
    """Outcome of checking one variant's block partition exhaustively."""

    variant: Variant
    tiling_count: int
    block_count: int
    partial_sum: Poly2
    expected_total: Poly2
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "variant": _variant_to_json(self.variant),
            "tilings": self.tiling_count,
            "blocks": self.block_count,
            "partial_sum": self.partial_sum.to_json_dict(),
            "expected_total": self.expected_total.to_json_dict(),
            "failures": self.failures,
            "ok": self.ok,
        }


def block_partition(variant: Variant) -> dict[PartialTiling, Poly2]:
    """Group all tilings of the variant's shape by their partial tiling.

    Returns each distinct partial tiling with the exact weight of its block.
    Streams the row-tiling product, so nothing is materialized.
    """
    shape = variant.shape()
    row_lens = [shape.cells(r) for r in range(1, shape.n_rows + 1)]
    per_row = [row_tilings(m) for m in row_lens]
    start = variant.start_x()
    terminal = variant.terminal()
    mod_d = variant.mod_d()

    acc: dict[tuple, dict[tuple[int, int], int]] = {}
    datas = [[_row_data(t) for t in options] for options in per_row]
    for combo in itertools.product(*(range(len(options)) for options in per_row)):
        rows = tuple(per_row[i][j] for i, j in enumerate(combo))
        blocked = [datas[i][j][0] for i, j in enumerate(combo)]
        xs, labels = _trace(row_lens, blocked, start, terminal, mod_d)
        fixed = _fixed_rows(variant, rows, xs, labels)
        key = (tuple(xs), fixed)
        monos = sum(datas[i][j][2] for i, j in enumerate(combo))
        doms = sum(datas[i][j][3] for i, j in enumerate(combo))
        bucket = acc.setdefault(key, {})
        bucket[(monos, doms)] = bucket.get((monos, doms), 0) + 1

    out: dict[PartialTiling, Poly2] = {}
    for (xs, fixed), weight_terms in acc.items():
        path = LatticePath((start, 0), _path_from_xs(start, list(xs)), _labels_for(variant, xs))
        partial = PartialTiling(variant, path, fixed)
        out[partial] = Poly2(dict(weight_terms.items()))
    return out


def _labels_for(variant: Variant, xs) -> tuple[str, ...]:
    mod_d = variant.mod_d()
    labels = []
    if mod_d is not None:
        for x in xs:
            labels.append("NI" if x % mod_d == 0 else "NL")
        return tuple(labels)
    prev = variant.start_x()
    for x in xs:
        labels.append("NI" if x == prev else "NL")
        prev = x
    return tuple(labels)


def enumerate_partials(variant: Variant) -> list[PartialTiling]:
    """All distinct partial tilings of the variant, in a stable order."""
    partials = block_partition(variant).keys()
    return sorted(partials, key=lambda p: (p.path.steps, p.fixed))


def verify_block_partition(variant: Variant) -> BlockPartitionReport:
    """Exhaustively check the variant's block partition.

    Asserts that (a) the partial weights sum to the algebraic quantity, and
    (b) every block's weight is exactly divisor * (partial weight) -- hence in
    particular evenly divisible by the divisor.
    """
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


# -- the rectangle model ---------------------------------------------------------


@dataclass(frozen=True)
class RectangleTiling:
    """The rectangle form of a binomial partial tiling.

    ``lam`` holds one horizontal row tiling per NI step (bottom step first);
    ``lam_star`` one vertical column tiling per NL step, read from the bottom
    of the column, which is why each nonempty one must start with a domino.
    """

    n: int
    k: int
    lam: tuple[Tiles, ...]
    lam_star: tuple[Tiles, ...]

    def weight(self) -> Poly2:
        monos = doms = 0
        for tiles in self.lam + self.lam_star:
            monos += tiles.count(MONO)
            doms += tiles.count(DOMINO)
        return Poly2.monomial(monos, doms)


def to_rectangle_model(partial: PartialTiling) -> RectangleTiling:
    """Split the fixed tiles into the rows of lam and the columns of lam*."""
    variant = partial.variant
    if not isinstance(variant, Binomial):
        raise ValueError("the rectangle model applies to binomial partial tilings")
    lam: list[Tiles] = []
    lam_star: list[Tiles] = []
    by_row = {r: runs for r, runs in enumerate(partial.fixed, start=1)}
    for row, _, label in partial.path.crossings():
        runs = by_row.get(row, ())
        tiles = runs[0][1] if runs else ()
        if label == "NI":
            lam.append(tiles)
        else:
            lam_star.append(tiles)
    return RectangleTiling(variant.n, variant.k, tuple(lam), tuple(lam_star))


def from_rectangle_model(rect: RectangleTiling) -> PartialTiling:
    """Inverse of ``to_rectangle_model``; raises MalformedModel off the image."""
    n, k = rect.n, rect.k
    if len(rect.lam) != n - k or len(rect.lam_star) != k:
        raise MalformedModel("wrong numbers of rows/columns")
    for tiles in rect.lam_star:
        if tiles and tiles[0] != DOMINO:
            raise MalformedModel("a lam* column does not begin with a domino")
    # Interleave: NL steps sit at x = k-1..0, NI steps at x = |row|; the true
    # path visits them in weakly decreasing x with the NL first on ties.
    events = [(k - 1 - i, 0, tiles) for i, tiles in enumerate(rect.lam_star)]
    events += [(sum(tiles), 1, tiles) for tiles in rect.lam]
    events.sort(key=lambda e: (-e[0], e[1]))
    fixed: list[tuple[Run, ...]] = []
    for row, (x, kind, tiles) in enumerate(events, start=1):
        if row >= n:  # the crossing of the boundary segment fixes nothing
            if tiles:
                raise MalformedModel("tiles attached to the boundary crossing")
            continue
        row_len = n - row
        if kind == 1:  # NI: tiles occupy columns 1..x
            fixed.append(((1, tiles),) if tiles else ())
        else:  # NL: tiles occupy columns x+1..row_len
            if sum(tiles) != row_len - x:
                raise MalformedModel(f"column of {sum(tiles)} cells cannot fill row {row}")
            fixed.append(((x + 1, tiles),) if tiles else ())
    try:
        partial = partial_from_fixed(Binomial(n, k), tuple(fixed))
    except MalformedPartial as exc:
        raise MalformedModel(str(exc)) from exc
    if to_rectangle_model(partial) != rect:
        raise MalformedModel("rectangle tiling is not in the image of the bijection")
    return partial


# -- skew-shape weight check -------------------------------------------------------


def verify_skew_numerator(n: int, d: int) -> bool:
    """Weight of the skew shape delta_{2n-1:d}/((d-1)n) against the algebra.

    The clipped bottom row contributes {(d+1)n - d} and the remaining rows a
    full d-divisible Lucastorial, which is the numerator used by the type-D
    style quotients.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    base = d_staircase(2 * n - 1, d)
    inner = ((d - 1) * n,) if (d - 1) * n else ()
    skew = Shape(base.outer, inner)
    algebraic = lucas((d + 1) * n - d) * d_lucastorial(2 * n - 2, d)
    return shape_weight(skew) == algebraic

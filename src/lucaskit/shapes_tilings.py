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

Both partition functions fold the rows with one transfer step: the greedy
path is Markov in rows, so each walk state groups the next row's tilings
(``_row_groups``).  ``block_partition`` keeps every block, as a partial tiling
with its weight.  ``verify_block_partition`` needs no block's identity, so it
merges blocks into classes by walk state and *free product*, the weight of
the tilings of a block's blank cells; every block weighs its fixed monomial
times its free product, so one check per class covers every tiling exactly.
A row's groups depend only on its length, the walk state, d and, on row 1 of
a Fuss variant, n, never on the variant or the class being folded, so the
verification reads them, merged by what it checks, from one cached table that
every variant shares (``_row_classes``): each distinct row state is listed
once per process.
Every tally is a ``polyring`` coefficient sequence (entry k counts tilings
with k dominoes), added and multiplied on polyring's kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import AbstractSet, Iterator, Mapping, Sequence

from . import coxcat
from .lucas import d_lucasnomial, d_lucastorial, lucas, lucastorial
from .polyring import Monomial, NotDivisible, Poly2, _add, _add_part, _convolve, _graded, _scatter

MONO = 1
DOMINO = 2

Tiles = tuple[int, ...]  # tile lengths, each 1 or 2
Run = tuple[int, Tiles]  # (start column, tiles) of one fixed stretch
FixedRows = tuple[tuple[Run, ...], ...]


class MalformedPartial(ValueError):
    """Fixed cells that no actual block representative produces."""


class MalformedModel(ValueError):
    """A rectangle tiling outside the image of the bijection."""


class MalformedDocument(ValueError):
    """A JSON document that is not a serialised shape, tiling or extended tiling."""


def check_keys(data, required: AbstractSet[str], optional: AbstractSet[str] = frozenset()) -> None:
    """Raise MalformedDocument unless ``data`` is an object with exactly these keys."""
    if not isinstance(data, dict):
        raise MalformedDocument(f"want a JSON object, got {data!r}")
    if not required <= data.keys() <= required | optional:
        also = f" and optionally {sorted(optional)}" if optional else ""
        raise MalformedDocument(f"want the keys {sorted(required)}{also}, got {sorted(data)}")


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

    def to_json_dict(self) -> dict:
        return {"outer": list(self.outer), "inner": list(self.inner)}

    @staticmethod
    def from_json_dict(data: Mapping) -> Shape:
        """Parse ``outer`` and an optional ``inner`` of the same length (straight when omitted), integer lists."""
        check_keys(data, {"outer"}, {"inner"})
        outer, inner = data["outer"], data.get("inner", [])
        for parts in (outer, inner):
            if not isinstance(parts, list) or any(type(x) is not int for x in parts):
                raise MalformedDocument(f"want a list of integers, got {parts!r}")
        if "inner" in data and len(inner) != len(outer):
            raise MalformedDocument(f"inner {inner} and outer {outer} differ in length")
        try:
            return Shape(tuple(outer), tuple(inner))
        except ValueError as exc:
            raise MalformedDocument(str(exc)) from exc


@lru_cache(maxsize=None)
def staircase(n: int) -> Shape:
    """delta_n = (n-1, n-2, ..., 1); empty for n <= 1.

    Cached, like ``d_staircase``: every variant asks for its shape on each
    walk, and a ``Shape`` is frozen, so one instance serves every caller.
    """
    if n < 0:
        raise ValueError("negative staircase index")
    return Shape(tuple(range(n - 1, 0, -1)))


@lru_cache(maxsize=None)
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
        return tiles_weight(self.rows)

    def to_json_dict(self) -> dict:
        return {"shape": self.shape.to_json_dict(), "rows": [tile_tokens(tiles) for tiles in self.rows]}

    @staticmethod
    def from_json_dict(data: Mapping) -> Tiling:
        """Parse exactly ``shape`` and ``rows``, the rows lists of "M"/"D" tokens that tile the shape."""
        check_keys(data, {"shape", "rows"})
        shape, rows = Shape.from_json_dict(data["shape"]), tile_rows_from_json(data["rows"])
        try:
            return Tiling(shape, rows)
        except ValueError as exc:
            raise MalformedDocument(str(exc)) from exc


def tile_rows_from_json(rows) -> tuple[Tiles, ...]:
    """A JSON list of "M"/"D" token lists, such as [["M", "D"], []], as tile lengths."""
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(tok in ("M", "D") for tok in row) for row in rows
    ):
        raise MalformedDocument(f"want a list of lists of 'M'/'D' tokens, got {rows!r}")
    return tuple(tuple(MONO if tok == "M" else DOMINO for tok in row) for row in rows)


def tile_tokens(tiles: Tiles) -> list[str]:
    """The JSON tokens of a run of tiles: "M" per monomino, "D" per domino."""
    return ["M" if t == MONO else "D" for t in tiles]


def _row_gaps(cells: int, runs) -> Iterator[tuple[int, Tiles]]:
    """(blank cells before it, its tiles) per fixed run of a ``cells``-cell row, then (blank cells left, ()).

    Runs that overlap or start left of column 1, and a run past the row's
    end, raise MalformedPartial.
    """
    col = 1
    for start, tiles in runs:
        if start < col:
            raise MalformedPartial("overlapping fixed runs")
        yield start - col, tiles
        col = start + sum(tiles)
    if col > cells + 1:
        raise MalformedPartial("a fixed run sticks out of its row")
    yield cells + 1 - col, ()


def _row_tokens(cells: int, runs) -> list[str]:
    """A row of ``cells`` cells holding fixed ``runs``: "M"/"D" per tile, "." per blank cell."""
    row: list[str] = []
    for blanks, tiles in _row_gaps(cells, runs):
        row += ["."] * blanks
        row += tile_tokens(tiles)
    return row


def _completed_rows(shape: Shape, fixed: FixedRows) -> tuple[Tiles, ...]:
    """Each row of ``shape`` holding its ``fixed`` runs, every blank cell a monomino.

    Refuses what ``_row_gaps`` refuses, and any tile other than a monomino
    or a domino, with MalformedPartial.
    """
    rows = []
    for r in range(1, shape.n_rows + 1):
        row: list[int] = []
        for blanks, tiles in _row_gaps(shape.cells(r), fixed[r - 1]):
            if not {*tiles} <= {MONO, DOMINO}:
                raise MalformedPartial("fixed tiles must be monominoes or dominoes")
            row += [MONO] * blanks
            row += tiles
        rows.append(tuple(row))
    return tuple(rows)


def _filled(shape: Shape, token_rows) -> Tiling:
    """The tiling of ``shape`` whose token rows read each blank "." as a monomino."""
    return Tiling(shape, tile_rows_from_json([["M" if tok == "." else tok for tok in row] for row in token_rows]))


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


def tile_counts(rows) -> Monomial:
    """(#monominoes, #dominoes) over every tile of ``rows``, each a tuple of tile lengths."""
    counts = [_row_data(tiles)[2:] for tiles in rows]
    return sum(m for m, _ in counts), sum(d for _, d in counts)


def tiles_weight(rows) -> Poly2:
    """s^(#monominoes) t^(#dominoes) over every tile of ``rows``."""
    return Poly2.monomial(*tile_counts(rows))


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
    """The number of tilings, a product of F_{cells+1} over the rows, with no tiling listed.

    The rows are taken shortest first, so one Fibonacci walk serves them all.
    """
    total, m, fib, next_fib = 1, 0, 1, 1  # fib = F_{m+1}, the tilings of a row of m cells
    for cells in sorted(outer - inner for outer, inner in zip(shape.outer, shape.inner)):
        while m < cells:
            m, fib, next_fib = m + 1, next_fib, fib + next_fib
        total *= fib
    return total


@lru_cache(maxsize=None)
def _row_weight(m: int) -> Poly2:
    return sum((tiles_weight((tiles,)) for tiles in row_tilings(m)), Poly2.zero())


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


def _step(
    x: int, used: frozenset[int], row_len: int, blocked: AbstractSet[int], mod_d: int | None
) -> tuple[int, str, frozenset[int]]:
    """One greedy crossing: step W from x until an N step across the row is legal.

    An N step along x is legal when 0 <= x <= row_len, x cuts none of the
    row's dominoes (``blocked``), and, in the d-divisible case, x = 0 or
    -1 mod d with each -1 line used at most once.  A row past the shape is
    row length 0 with no dominoes, which leaves only the (0, l) boundary
    segment.  Returns the crossing x, its NI/NL label and the used -1 lines.
    """
    start = x
    while not (
        x <= row_len
        and x not in blocked
        and (mod_d is None or x % mod_d == 0 or (x % mod_d == mod_d - 1 and x not in used))
    ):
        x -= 1
        if x < 0:
            raise AssertionError("greedy path fell off the diagram")
    if mod_d is None:
        return x, "NL" if x < start else "NI", used
    if x % mod_d == 0:
        return x, "NI", used
    return x, "NL", used | {x}


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

    def longest_row(self) -> int:
        """The cells of the shape's bottom row, read off n and k without building the shape."""
        return max(self.terminal() - 1, 0)

    def mod_d(self) -> int | None:
        return None

    def divisor(self) -> Poly2:
        return lucastorial(self.n) * lucastorial(self.k * self.n + 1)

    def expected_total(self) -> Poly2:
        return coxcat.fuss_catalan(self.n, self.k)


@dataclass(frozen=True)
class Catalan(FussCatalan):
    """Path from (n-1, 0) in delta_2n; blocks realize the Catalan analogue.

    The Fuss variant at k = 1.
    """

    k: int = field(default=1, init=False, repr=False)


@dataclass(frozen=True)
class DDivisible:
    """Path from (kd, 0) in delta_{n:d}; blocks realize {n:d brace k:d}.

    N steps must sit on x = 0 or -1 (mod d), -1 lines once each; an N step is
    NI precisely when d divides its x.
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

    def longest_row(self) -> int:
        """The cells of the shape's bottom row, read off n and d without building the shape."""
        return max(self.n * self.d - 1, 0)

    def mod_d(self) -> int | None:
        return self.d if self.d >= 2 else None

    def divisor(self) -> Poly2:
        return d_lucastorial(self.k, self.d) * d_lucastorial(self.n - self.k, self.d)

    def expected_total(self) -> Poly2:
        return d_lucasnomial(self.n, self.k, self.d)


@dataclass(frozen=True)
class Binomial(DDivisible):
    """Path from (k, 0) in delta_n; blocks realize the Lucasnomial {n brace k}.

    The d-divisible variant at d = 1.
    """

    d: int = field(default=1, init=False, repr=False)


Variant = FussCatalan | DDivisible

# The wire name of each variant; its JSON document is the name plus its integers.
VARIANTS = {"binomial": Binomial, "catalan": Catalan, "fuss": FussCatalan, "ddivisible": DDivisible}
_KINDS = {cls: kind for kind, cls in VARIANTS.items()}


def variant_integers(cls: type) -> tuple[str, ...]:
    """The integers a variant is built from, in argument order: its init fields."""
    return tuple(f.name for f in fields(cls) if f.init)


# -- partial tilings --------------------------------------------------------------


@dataclass(frozen=True)
class PartialTiling:
    """The canonical representative of a block: fixed tiles plus the path."""

    variant: Variant
    path: LatticePath
    fixed: FixedRows

    def shape(self) -> Shape:
        return self.variant.shape()

    def fixed_tiles(self) -> list[Tiles]:
        """The tiles of every fixed run, bottom row first."""
        return [tiles for runs in self.fixed for _, tiles in runs]

    def weight(self) -> Poly2:
        return tiles_weight(self.fixed_tiles())

    def to_json_dict(self) -> dict:
        shape = self.shape()
        return {
            "variant": _variant_to_json(self.variant),
            "rows": [_row_tokens(shape.cells(r), self.fixed[r - 1]) for r in range(1, shape.n_rows + 1)],
            "start": list(self.path.start),
            "path": self.path.steps,
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> PartialTiling:
        """Parse strictly: the document must be the partial's own serialisation.

        Read with each blank as a monomino, the rows are the block's monomino
        completion, so the partial of that tiling is the only candidate.
        Rows that are not lists of tokens, unknown tokens, a wrong number of
        rows, and any field (``start``, ``path``, rows, extra keys) that
        differs from the candidate's ``to_json_dict`` raise ``MalformedPartial``.
        Every variant's shape has at least ``terminal() - 1`` rows, so fewer
        rows are refused before the shape, which may be far larger, is built.
        """
        if not isinstance(data, dict):
            raise MalformedPartial(f"want a JSON object, got {data!r}")
        variant = _variant_from_json(data.get("variant"))
        rows = data.get("rows")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise MalformedPartial("rows must be a list of token lists")
        if len(rows) < variant.terminal() - 1:
            raise MalformedPartial(f"{len(rows)} rows for a shape with at least {variant.terminal() - 1}")
        shape = variant.shape()
        if len(rows) != shape.n_rows:
            raise MalformedPartial(f"{len(rows)} rows for a shape with {shape.n_rows}")
        for tok in (tok for row in rows for tok in row):
            if tok not in ("M", "D", "."):
                raise MalformedPartial(f"unknown tile token {tok!r}")
        try:
            completed = _filled(shape, rows)
        except ValueError as exc:
            raise MalformedPartial(str(exc)) from exc
        partial = partial_from_tiling(completed, variant)
        canonical = partial.to_json_dict()
        # An extra key is wrong even when its value is null.
        wrong = sorted(
            key for key in canonical.keys() | data.keys() if key not in canonical or data.get(key) != canonical[key]
        )
        if wrong:
            raise MalformedPartial(f"{', '.join(wrong)} disagree with the partial the rows describe")
        return partial


def _variant_to_json(v: Variant) -> dict:
    return {"kind": _KINDS[type(v)], **{name: getattr(v, name) for name in variant_integers(type(v))}}


def _variant_from_json(data) -> Variant:
    """Exactly ``kind`` plus the variant's integers."""
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = VARIANTS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise MalformedPartial(f"want a variant with a kind in {sorted(VARIANTS)}, got {data!r}")
    names = variant_integers(cls)
    if data.keys() != {"kind", *names} or any(type(data[name]) is not int for name in names):
        raise MalformedPartial(f"a {kind} variant is kind plus integers {', '.join(names)}, got {data!r}")
    return cls(*(data[name] for name in names))


def path_from_tiling(tiling: Tiling, variant: Variant) -> LatticePath:
    """The deterministic greedy path the variant carves through the tiling."""
    return partial_from_tiling(tiling, variant).path


def _fuss_rule(variant: Variant, r: int) -> int | None:
    """The n of the Fuss first-row rule when it fixes row r of the variant, else None.

    This is the one place a row's fixed runs read the variant: row 1 of a
    ``FussCatalan`` with n >= 1.
    """
    return variant.n if r == 1 and isinstance(variant, FussCatalan) and variant.n >= 1 else None


def _fixed_row(variant: Variant, r: int, tiles: Tiles, x: int, label: str) -> tuple[Run, ...]:
    """Fixed runs of row r crossed at x: left of NI, right of NL, or the Fuss first-row rule."""
    bounds = _row_data(tiles)[1]
    if (n := _fuss_rule(variant, r)) is not None:
        return _fuss_first_row(n, tiles, bounds) if label == "NL" else ()
    cut = bounds[x]
    if label == "NI":
        return ((1, tiles[:cut]),) if cut else ()
    return ((x + 1, tiles[cut:]),) if cut < len(tiles) else ()


def _fuss_first_row(n: int, tiles: Tiles, bounds) -> tuple[Run, ...]:
    """First-row fixing when the Fuss path opens with a west step.

    m is the least index whose block of n columns ends without a spanning
    domino; columns mn+1 .. (m+1)n - 1 then go blank while the rest right of
    the deflecting domino stays fixed.
    """
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


def _walk(variant: Variant, rows: tuple[Tiles, ...]) -> PartialTiling:
    """The partial tiling the variant's greedy path fixes in a tiling with these rows."""
    start, mod_d = variant.start_x(), variant.mod_d()
    x, used = start, frozenset()
    xs: list[int] = []
    labels: list[str] = []
    fixed: list[tuple[Run, ...]] = []
    # Rows past the shape are empty rows.
    for r, tiles in enumerate(rows + ((),) * (variant.terminal() - len(rows)), start=1):
        blocked, _, monos, doms = _row_data(tiles)
        x, label, used = _step(x, used, monos + 2 * doms, blocked, mod_d)
        xs.append(x)
        labels.append(label)
        fixed.append(_fixed_row(variant, r, tiles, x, label))
    path = LatticePath((start, 0), _path_from_xs(start, xs), tuple(labels))
    return PartialTiling(variant, path, tuple(fixed[: len(rows)]))


def partial_from_tiling(tiling: Tiling, variant: Variant) -> PartialTiling:
    """The canonical partial tiling of the block containing ``tiling``."""
    if tiling.shape != variant.shape():
        raise ValueError("tiling does not live on the variant's shape")
    return _walk(variant, tiling.rows)


def completion(variant: Variant, fixed: FixedRows) -> Tiling:
    """Fill every blank cell with a monomino; a member of the intended block."""
    shape = variant.shape()
    return Tiling(shape, _completed_rows(shape, fixed))


def partial_from_fixed(variant: Variant, fixed: FixedRows) -> PartialTiling:
    """Rebuild the canonical partial with the given fixed tiles, validating it.

    The monomino completion of the fixed cells must map back onto exactly the
    same fixed cells; otherwise no block has this representative.  The
    completed rows are built as tile tuples and walked directly, with no
    ``Tiling`` and no token rows in between; ``_completed_rows`` refuses
    runs that no row can hold, and the round trip refuses the rest.
    """
    shape = variant.shape()
    if len(fixed) != shape.n_rows:
        raise MalformedPartial(f"{len(fixed)} fixed rows for a shape with {shape.n_rows}")
    candidate = _walk(variant, _completed_rows(shape, fixed))
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


def _row_groups(
    variant: Variant, r: int, row_len: int, x: int, used: frozenset[int], mod_d: int | None
) -> dict[tuple, list[int]]:
    """Row r's tilings from walk state (x, used), grouped by their crossing and fixed runs.

    Maps each (x, label, used, fixed runs) to its tally: entry k is the
    number of its tilings with k dominoes.
    """
    groups: dict[tuple, list[int]] = {}
    for tiles in row_tilings(row_len):
        blocked, _, _, doms = _row_data(tiles)
        x2, label, used2 = _step(x, used, row_len, blocked, mod_d)
        _scatter(groups.setdefault((x2, label, used2, _fixed_row(variant, r, tiles, x2, label)), []), doms, 1)
    return groups


# The 637 variants ``tilings partition`` accepts (rows of at most ``cli.MAX_PARTITION_ROW`` = 23
# cells) reach 1,603 walk states in all, 8,304 entries and about 2.4 MB of table; the test suite's
# large variants with Catalan(11), Catalan(12) and Binomial(24, 12) reach 437 (Python 3.11).
# So the bound holds that whole reach, and no state is listed twice in a process.
_ROW_CLASSES = 2048


@lru_cache(maxsize=_ROW_CLASSES)
def _row_classes(
    row_len: int, x: int, used: frozenset[int], mod_d: int | None, fuss_n: int | None
) -> tuple[tuple, ...]:
    """A row's groups from walk state (x, used), merged by what the verification fold reads.

    Each entry is (x2, used2, fixed cells, fixed dominoes, free tally,
    multiplicity): that many groups of ``_row_groups`` cross at x2, leave
    the -1 lines used2, fix those cells and dominoes, and leave that free
    tally (the tally with the fixed dominoes shifted out).  An entry sits
    where its first group does.  The groups read the variant only through
    ``fuss_n`` (``_fuss_rule``), so Catalan(fuss_n or 0) stands in for
    every variant that reaches the state.
    """
    merged: dict[tuple, int] = {}
    for (x2, _, used2, runs), tally in _row_groups(Catalan(fuss_n or 0), 1, row_len, x, used, mod_d).items():
        monos, doms = tile_counts(tiles for _, tiles in runs)
        key = (x2, used2, monos + 2 * doms, doms, tuple(tally[doms:]))
        merged[key] = merged.get(key, 0) + 1
    return tuple((*key, mult) for key, mult in merged.items())


def block_partition(variant: Variant) -> dict[PartialTiling, Poly2]:
    """Group all tilings of the variant's shape by their partial tiling.

    Returns each distinct partial tiling with the exact weight of its block.

    The greedy path is Markov in rows: a row's crossing, label and fixed
    runs depend only on the walk state (x, used -1 lines) and that row's
    tiles.  So the blocks are a transfer-matrix sum folded row by row, with
    no tiling visited on its own.  The frontier maps each walk state to the
    (crossings, fixed rows) prefixes that reach it, each with its tally over
    the rows so far (entry k counts the tilings with k dominoes; monominoes
    cover the remaining cells).  Per state, the next row's tilings are
    grouped by (x, label, used, fixed runs), and each group's tally is
    convolved into every prefix.  Rows past the shape are rows of length 0.
    """
    shape = variant.shape()
    start, mod_d = variant.start_x(), variant.mod_d()
    frontier: dict[tuple[int, frozenset[int]], dict[tuple, Sequence[int]]] = {(start, frozenset()): {((), ()): (1,)}}
    for r in range(1, variant.terminal() + 1):
        row_len = shape.cells(r) if r <= shape.n_rows else 0
        successors: dict[tuple[int, frozenset[int]], dict[tuple, Sequence[int]]] = {}
        for (x, used), prefixes in frontier.items():
            for (x2, label, used2, runs), row_tally in _row_groups(variant, r, row_len, x, used, mod_d).items():
                # The state is a function of the crossings, so no two
                # (state, prefix) pairs extend to the same prefix.
                dest = successors.setdefault((x2, used2), {})
                for (crossings, fixed), tally in prefixes.items():
                    dest[(crossings + ((x2, label),), fixed + (runs,))] = _convolve(tally, row_tally)
        frontier = successors

    cells = sum(shape.cells(r) for r in range(1, shape.n_rows + 1))
    out: dict[PartialTiling, Poly2] = {}
    for prefixes in frontier.values():
        for (crossings, fixed), tally in prefixes.items():
            xs = [x for x, _ in crossings]
            path = LatticePath((start, 0), _path_from_xs(start, xs), tuple(label for _, label in crossings))
            out[PartialTiling(variant, path, fixed[: shape.n_rows])] = _graded({cells: tally})
    return out


def enumerate_partials(variant: Variant) -> list[PartialTiling]:
    """All distinct partial tilings of the variant, in a stable order."""
    partials = block_partition(variant).keys()
    return sorted(partials, key=lambda p: (p.path.steps, p.fixed))


def verify_block_partition(variant: Variant) -> BlockPartitionReport:
    """Exhaustively check the variant's block partition, merging blocks by class.

    Asserts that (a) the partial weights sum to the algebraic quantity,
    (b) every block's weight is exactly divisor * (partial weight), and
    (c) the blocks cover every tiling.

    A block's weight is a product over rows of a group's fixed runs times
    its free factor, the group's tally with the fixed dominoes shifted out.
    So it is the block's fixed monomial (its partial weight) times the
    product of its free factors, and (b) holds for the block exactly when
    that free product equals the divisor.  None of the checks needs a
    block's identity, so this folds the rows of ``block_partition`` over
    classes keyed by (x, used, free cells, free product).  A class's blocks
    cover the same fixed cells, so it tallies them as one sequence, entry k
    its blocks with k fixed dominoes.  Each final class is then checked
    once: its free product against the divisor for (b), the summed tallies
    against the expected total for (a), and the free product's tiling count
    times the class's block count summed against the tiling count for (c).
    That is still exact over every tiling.  Each class carries the path and
    fixed dominoes of its first block as the witness a failure names.
    A row's groups come from ``_row_classes``, one listing per walk state
    that every class and variant shares.  Groups that differ only in where
    their fixed runs lie reach the same class, so each entry adds its
    multiplicity times the shifted block tally; it sits where its first
    group does, so every class keeps its witness and its place.
    """
    shape = variant.shape()
    start, mod_d = variant.start_x(), variant.mod_d()
    # (x, used, free cells, free product) -> [blocks by fixed dominoes, (witness crossings, witness fixed dominoes)]
    frontier: dict[tuple, list] = {(start, frozenset(), 0, (1,)): [(1,), ((), 0)]}
    for r in range(1, variant.terminal() + 1):
        row_len = shape.cells(r) if r <= shape.n_rows else 0
        successors: dict[tuple, list] = {}
        fuss_n = _fuss_rule(variant, r)
        for (x, used, free_cells, free), (blocks, (xs, wd)) in frontier.items():
            for x2, used2, fixed_cells, doms, free_tally, mult in _row_classes(row_len, x, used, mod_d, fuss_n):
                key = (x2, used2, free_cells + row_len - fixed_cells, tuple(_convolve(free, free_tally)))
                dest = successors.setdefault(key, [(), (xs + (x2,), wd + doms)])
                dest[0] = _add(dest[0], (0,) * doms + tuple(mult * c for c in blocks))
        frontier = successors

    cells = sum(shape.cells(r) for r in range(1, shape.n_rows + 1))
    divisor = variant.divisor()
    expected = variant.expected_total()
    failures: list[str] = []
    partial_parts: dict[int, Sequence[int]] = {}
    block_count = covered = 0
    for (_, _, free_cells, free), (blocks, (xs, wd)) in frontier.items():
        block_count += sum(blocks)
        covered += sum(free) * sum(blocks)  # each block holds free(1, 1) tilings
        _add_part(partial_parts, cells - free_cells, blocks)
        free_weight = _graded({free_cells: free})
        if free_weight != divisor:
            pw = Poly2.monomial(cells - free_cells - 2 * wd, wd)
            try:
                quotient = (free_weight * pw).exact_div(divisor)
                detail = f"divisor*partial={divisor * pw}, block/divisor={quotient}"
            except NotDivisible:
                detail = "block weight not even divisible by the divisor"
            failures.append(f"block of path {_path_from_xs(start, xs)}: {detail}")
    tiling_count = count_tilings(shape)
    partial_sum = _graded(partial_parts)
    if covered != tiling_count:
        failures.append(f"blocks cover {covered} of {tiling_count} tilings")
    if partial_sum != expected:
        failures.append(f"partial sum {partial_sum} != expected {expected}")
    return BlockPartitionReport(
        variant=variant,
        tiling_count=tiling_count,
        block_count=block_count,
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
        return tiles_weight(self.lam + self.lam_star)


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

"""The involution checked level by level: iota proved by induction on n, with no member traced.

``check_level`` runs the recursive involution, ``involution._iota``
itself, never a copy of its cases, on one level of type (m, k, r): a
member whose bottom row R, a row of ``_bottom_table``, is concrete and
whose other parts are opaque (``_Opaque``): the rows above R, the strips,
and the image the recursive call returns, which ``_Answer``, passed as
the memo that ``involution._inner`` consults, hands back.
Reading an opaque part fails the level, but for S_1 and the first and last
strips of the inner image, which are made concrete, tiling by tiling, when
a run reads them.  For each such configuration the level checks that

- the recursive call is on level m - 1, gets the k that R leaves the rows
  above it, those rows untouched, and legal strips for its type;
- the image is a key of type (m, m-k+r, r): its bottom row is a legal
  bottom row of Binomial(m, m-k+r) for the k of the inner image's type,
  the rows above it are the inner image's, and its strips are legal;
- every opaque strip is passed on exactly once, into the recursive call or
  into the image, and every part of the inner image is kept;
- the weights add: the concrete tiles of the input and of the inner image
  are those of the image and of the recursive call;
- iota on the image makes its recursive call on exactly that inner image
  and, answered with the first call's input, returns the input: the
  image's own level rebuilds it;
- run again as a subcall, with a case letter already in its trace, both
  runs make the same calls and return the same keys, as a top-level call.

At m = 0 iota must return its input, the empty member, with no call.

The induction (``holds``): a level holds when every configuration passes
and every type its recursive calls reach holds.  Then iota maps each
member x of type (m, k, r) to a member of type (m, m-k+r, r) of the same
weight, and iota(iota(x)) = x.  At m = 0 iota is the identity.  For m > 0,
x's recursive call is on a member of a type that holds, so, by induction,
it returns that member's image, a member of the mirror type with the same
weight, and iota of that image returns the call's input.  The
configuration of x, with those tilings for its lazy strips, covers this
run: iota never read the opaque parts, so their values cannot change what
it does, and the checks above become the three claims.  The check
over-approximates, since it pairs every input with every inner image, so a
level may fail on a run no member makes; ``verify_involution`` then falls
back to tracing every member.  No class sum lists a member either:
``_class_weight`` folds each over ``_bottom_table``, the greedy row step's
bottom rows, and ``proves`` checks it against {n brace k}.

``involution`` imports this module; it reads ``involution`` only as a level runs.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping

from . import involution
from .lucas import lucasnomial
from .polyring import Monomial, Poly2
from .shapes_tilings import Binomial, Run, Tiles, _row_groups, row_tilings, tile_counts


class _Read(Exception):
    """A level run used the value of an opaque part."""

    def __init__(self, part: _Opaque):
        super().__init__(part.name)
        self.part = part


class _Opaque:
    """A part of a member that a level run may pass along but not read.

    ``name`` says which part it stands for and ``cells`` is a strip's
    length (None for a row); only the level check reads them.  Any use of
    its value raises ``_Read``, hashing and comparison included, so it is
    never found in a cache or a dict.  Identity is free: a tuple holding it
    still equals itself.
    """

    __slots__ = ("name", "cells")

    def __init__(self, name: str, cells: int | None = None):
        self.name, self.cells = name, cells

    def _read(self, *args):
        raise _Read(self)

    __hash__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _read
    __bool__ = __len__ = __iter__ = __reversed__ = __contains__ = __getitem__ = _read
    __add__ = __radd__ = __mul__ = __rmul__ = __index__ = __int__ = _read


class _Branch(_Read):
    """A level run read a lazy strip: run the configuration again with each of its tilings."""


class _Refused(Exception):
    """A level run broke one of the level check's rules."""


def _require(ok: bool, rule: str) -> None:
    if not ok:
        raise _Refused(rule)


# The strips a level may read: each is made concrete when a run first reads it.
_LAZY = frozenset({"S1", "image S1", "image S_last"})
# The trace a level runs under as a subcall; as a top-level call its trace is empty.
_SUBCALL = ("a",)
# Opaque parts are shared by every level run, which tells them apart by
# identity alone: (name, cells) for every level it reaches takes a few hundred.
_OPAQUE_CACHE = 4096


@functools.lru_cache(maxsize=_OPAQUE_CACHE)
def _opaque(name: str, cells: int | None = None) -> _Opaque:
    return _Opaque(name, cells)


@functools.lru_cache(maxsize=_OPAQUE_CACHE)
def _opaque_rows(name: str, count: int) -> tuple[_Opaque, ...]:
    """``count`` opaque rows, numbered from 2: the rows of delta_m above its bottom row."""
    return tuple(_Opaque(f"{name} {j}") for j in range(2, count + 2))


def _strip_part(values: Mapping[str, Tiles], name: str, cells: int) -> Tiles | _Opaque:
    """The tiling ``values`` fixes for the strip ``name``, else an opaque strip of ``cells`` cells."""
    return values[name] if name in values else _opaque(name, cells)


class _Answer:
    """The memo of a forward level run: it answers the recursive call with an opaque image.

    The image's rows are opaque, and so are its strips but the first and
    last, which are lazy and take the tilings fixed in ``values``.
    """

    def __init__(self, values: Mapping[str, Tiles]):
        self.values = values
        self.call = self.image = None

    def get(self, call):
        _require(self.call is None, "one recursive call")
        n, k, rows, strips = call
        _require(type(strips) is tuple and 0 <= len(strips) <= k <= n, "the recursive call has a type")
        r = len(strips)
        k_image = n - k + r
        names = ["image S1" if i == 1 else "image S_last" if i == r else f"image S{i}" for i in range(1, r + 1)]
        image_strips = tuple(_strip_part(self.values, name, k_image - i) for i, name in enumerate(names, 1))
        self.call = call
        self.image = _opaque_rows("image row", n - 1), image_strips
        return self.image, ()


class _Expect:
    """The memo of a replayed level run: it answers only ``call``, with ``answer``."""

    def __init__(self, call, answer):
        self.call, self.answer, self.used = call, answer, False

    def get(self, call):
        _require(not self.used and _same(call, self.call), "the replayed call is the expected one")
        self.used = True
        return self.answer, ()


def _same(x, y) -> bool:
    """Equality that reads no opaque part: an opaque part equals only itself."""
    try:
        return x is y or x == y
    except _Read:
        return False


def _strip_ok(strip, cells: int) -> bool:
    """Whether ``strip`` may be a strip of ``cells`` cells: an opaque one of that length, or a tiling of it."""
    if type(strip) is _Opaque:
        return strip.cells == cells
    return type(strip) is tuple and sum(strip) == cells and strip.count(1) + strip.count(2) == len(strip)


def _concrete_counts(*groups) -> Monomial:
    """(#monominoes, #dominoes) over the strips of ``groups`` that are not opaque."""
    return tile_counts(strip for strips in groups for strip in strips if type(strip) is tuple)


def _opaque_ids(strips) -> list[int]:
    return [id(strip) for strip in strips if type(strip) is _Opaque]


def _run(n: int, k: int, rows, strips, trace: tuple[str, ...], memo):
    """``involution._iota``, as the module holds it now, on partly opaque input.

    Reading a lazy strip raises ``_Branch``.
    """
    try:
        return involution._iota(n, k, rows, strips, list(trace), memo)
    except _Read as read:
        if read.part.name in _LAZY:
            raise _Branch(read.part) from None
        raise


def _replay(n: int, k: int, rows, strips, trace: tuple[str, ...], call, answer):
    """``_run`` with the recursive call required to be ``call``, and answered with ``answer``."""
    memo = _Expect(call, answer)
    out = _run(n, k, rows, strips, trace, memo)
    _require(memo.used, "one recursive call")
    return out


def _level_run(m: int, k: int, r: int, bottom, values: Mapping[str, Tiles]) -> tuple[int, int, int]:
    """Check one configuration of level (m, k, r) >= 1; returns the type of its recursive call.

    The input is the bottom row ``bottom`` under opaque rows, with opaque
    strips but those ``values`` fixes.  Raises ``_Refused`` when a check
    fails and ``_Branch`` when a run reads a lazy strip left open.
    """
    rows = ((bottom,) if m >= 2 else ()) + _opaque_rows("row", m - 2)
    strips = tuple(_strip_part(values, f"S{i}", k - i) for i in range(1, r + 1))
    forward = _Answer(values)
    out = _run(m, k, rows, strips, (), forward)
    _require(forward.call is not None, "one recursive call")
    call, image = forward.call, forward.image
    n_in, k_in, rows_in, strips_in = call
    image_rows, image_strips = image
    k_next, counts = _bottom_table(m, k)[bottom]
    _require(n_in == m - 1 and k_in == k_next, "the recursive call gets the bottom row's k")
    _require(_same(rows_in, rows[1:]), "the recursive call gets the rows above the bottom row")
    _require(all(_strip_ok(s, k_in - i) for i, s in enumerate(strips_in, 1)), "the recursive call gets strips")
    _require(type(out) is tuple and len(out) == 2 and type(out[0]) is type(out[1]) is tuple, "iota returns a key")
    out_rows, out_strips = out
    k_out = m - k + r
    if m >= 2:
        _require(len(out_rows) >= 1, "the image has a bottom row")
        out_bottom, above = out_rows[0], out_rows[1:]
    else:
        out_bottom, above = (), out_rows
    # Hashing a row that holds an opaque part reads it, which fails the level.
    legal = _bottom_table(m, k_out).get(out_bottom)
    _require(legal is not None, "the image's bottom row is legal")
    k_image = n_in - k_in + len(strips_in)
    _require(legal[0] == k_image, "the image's bottom row leaves the inner image's k")
    _require(_same(above, image_rows), "the image's rows above its bottom row are the inner image's")
    out_ok = len(out_strips) == r and all(_strip_ok(s, k_out - i) for i, s in enumerate(out_strips, 1))
    _require(out_ok, "the image gets strips")
    # Rows are checked in place above; an opaque strip is passed on once, into the call or the image.
    given, passed = set(_opaque_ids(strips)), _opaque_ids(strips_in)
    made, kept = set(_opaque_ids(image_strips)), _opaque_ids(out_strips)
    _require(
        len(set(passed)) == len(passed) <= len(given)
        and set(passed) <= given
        and len(set(kept)) == len(kept)
        and set(kept) == made | (given - set(passed)),
        "every opaque strip is passed on once",
    )
    (monos, doms), (strip_monos, strip_doms) = counts, _concrete_counts(strips, image_strips)
    (out_monos, out_doms), (call_monos, call_doms) = legal[1], _concrete_counts(out_strips, strips_in)
    _require(
        (monos + strip_monos, doms + strip_doms) == (out_monos + call_monos, out_doms + call_doms), "the weights add"
    )
    inverse = (n_in, k_image, image_rows, image_strips)
    back = _replay(m, k_out, out_rows, out_strips, (), inverse, (rows_in, strips_in))
    _require(_same(back, (rows, strips)), "the image's level rebuilds the input")
    # As a subcall, both runs must make the same calls and return the same keys.
    _require(_same(_replay(m, k, rows, strips, _SUBCALL, call, image), out), "a subcall runs as a top-level call")
    again = _replay(m, k_out, out_rows, out_strips, _SUBCALL, inverse, (rows_in, strips_in))
    _require(_same(again, back), "a subcall runs as a top-level call")
    return n_in, k_in, len(strips_in)


def check_level(m: int, k: int, r: int) -> frozenset[tuple[int, int, int]] | None:
    """Run ``involution._iota`` on every local configuration of level (m, k, r).

    Returns the types of the recursive calls the level makes, or None when
    a configuration fails a check (``_level_run``).  A configuration is a
    legal bottom row of Binomial(m, k) with the tilings of the lazy strips
    the runs read: S_1, and the first and last strips of the recursive
    call's image.  It starts with every strip opaque; a run that reads a
    lazy strip is run again once for each tiling of it.
    """
    try:
        if m == 0:
            for trace in ((), _SUBCALL):
                _require(_same(_run(0, 0, (), (), trace, _Expect(None, None)), ((), ())), "iota(x) = x at n = 0")
            return frozenset()
        calls = set()
        for bottom in _bottom_table(m, k):
            pending: list[dict[str, Tiles]] = [{}]
            while pending:
                values = pending.pop()
                try:
                    calls.add(_level_run(m, k, r, bottom, values))
                except _Branch as branch:
                    part = branch.part
                    pending += ({**values, part.name: tiles} for tiles in row_tilings(part.cells))
        return frozenset(calls)
    except Exception:
        # Whatever a faulty ``_iota`` raises fails the level; the exhaustive fallback reports it.
        return None


# The level check's work grows about 1.8-fold per n: every type with n <= 12 proves in 1.4-1.9 s,
# n <= 17 in 27-34 s and 35 MB (2 cores, Python 3.11).  The level caches hold every level up to
# N = MAX_LEVEL_N: its C(N + 2, 2) pairs (m, k), 171 when N = 17, and its C(N + 3, 3) types
# (m, k, r), 1,140.
MAX_LEVEL_N = 17


@functools.lru_cache(maxsize=math.comb(MAX_LEVEL_N + 2, 2))
def _bottom_table(n: int, k: int) -> dict[tuple[Run, ...], tuple[int, Monomial]]:
    """Each legal bottom row of Binomial(n, k), as its fixed runs, with the next level's k and its counts.

    The rows are read off the greedy row step: ``_row_groups`` groups the
    tilings of delta_n's bottom row, n - 1 cells entered at x = k, by
    where the path crosses it and the runs it fixes.  The crossing is the
    k that delta_{n-1} above is entered at, and the counts are the fixed
    runs' (#monominoes, #dominoes).  Only this module reads it; every
    caller shares the cached table, and none changes it.
    """
    groups = _row_groups(Binomial(n, k), 1, n - 1, k, frozenset(), None)
    return {runs: (x, tile_counts(tiles for _, tiles in runs)) for x, _, _, runs in groups}


@functools.lru_cache(maxsize=math.comb(MAX_LEVEL_N + 3, 3))
def holds(m: int, k: int, r: int) -> bool:
    """Whether iota is proved, by induction on m, to be a weight-preserving map
    from type (m, k, r) into type (m, m-k+r, r) that its mirror's iota inverts.

    Level m holds when ``check_level`` passes every configuration of it and
    every type its recursive calls reach holds.
    """
    calls = check_level(m, k, r)
    return calls is not None and all(holds(*call) for call in calls)


@functools.lru_cache(maxsize=math.comb(MAX_LEVEL_N + 2, 2))
def _class_weight(n: int, k: int) -> Poly2:
    """The weight sum of Binomial(n, k)'s partials, by the row recursion, with no partial listed.

    A partial is a legal bottom row (``_bottom_table``) under a partial of
    the level below, entered at the row's next k.  So the sum is, over the
    bottom rows, the row's monomial times that level's sum.  delta_1 and
    delta_0 have one empty partial.
    """
    if n <= 1:
        return Poly2.one()
    rows = _bottom_table(n, k).values()
    return sum((Poly2.monomial(*counts) * _class_weight(n - 1, k_next) for k_next, counts in rows), Poly2.zero())


def proves(n: int, k_lo: int, k_hi: int, r: int) -> bool:
    """Whether the mirror types (n, k_lo, r) and (n, k_hi, r) pass with no member traced.

    Both types' levels must hold and both classes' partial sums must be
    {n brace k}.  When both levels hold, iota is a weight-preserving
    bijection between the two classes, so the exhaustive check would find
    no failure but a class sum that misses its symmetry side.  One type's
    levels would do with both sums, as the two sides are equal and an
    injection that keeps weights between classes of equal sum is onto; the
    mirror's are required too, so that each report rests on its own levels.
    """
    return all(holds(n, k, r) and _class_weight(n, k) == lucasnomial(n, k) for k in (k_lo, k_hi))

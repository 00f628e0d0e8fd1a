"""Shapes, tilings, lattice paths, partial tilings and block partitions."""

import dataclasses
import math

import pytest

from oracles import brute_block_partition, fib, materialised_verify, token_completion
from lucaskit.lucas import d_lucastorial, lucas, lucasnomial, lucastorial
from lucaskit.polyring import Poly2
from lucaskit.shapes_tilings import (
    DOMINO,
    Binomial,
    Catalan,
    DDivisible,
    FussCatalan,
    MalformedDocument,
    MalformedModel,
    MalformedPartial,
    VARIANTS,
    PartialTiling,
    RectangleTiling,
    Shape,
    Tiling,
    _row_groups,
    _variant_to_json,
    block_partition,
    completion,
    count_tilings,
    d_staircase,
    enumerate_partials,
    enumerate_tilings,
    from_rectangle_model,
    partial_from_fixed,
    partial_from_tiling,
    path_from_tiling,
    row_tilings,
    shape_weight,
    staircase,
    to_rectangle_model,
    verify_block_partition,
    verify_skew_numerator,
)

# One variant of each kind, including the empty ones; a DDivisible shape has more than terminal() - 1 rows.
SIZED_VARIANTS = [
    Binomial(0, 0),
    Binomial(1, 1),
    Binomial(5, 2),
    Catalan(0),
    Catalan(3),
    FussCatalan(1, 3),
    FussCatalan(2, 2),
    DDivisible(0, 0, 3),
    DDivisible(4, 2, 2),
    DDivisible(3, 1, 3),
]

# A delta_6 tiling that exercises every path behaviour: rows bottom-up,
# row 1 = M M D M, row 2 = D M M, row 3 = M D, row 4 = M M, row 5 = M.
EXAMPLE_TILING = Tiling(staircase(6), ((1, 1, 2, 1), (2, 1, 1), (1, 2), (1, 1), (1,)))

# A 2-divisible example on delta_{4:2}: rows D M D M M / M D D / M M M / M.
DDIV_TILING = Tiling(d_staircase(4, 2), ((2, 1, 2, 1, 1), (1, 2, 2), (1, 1, 1), (1,)))


def binomial_4_2_document() -> dict:
    """JSON of the Binomial(4,2) partial with rows [D .], [D], [.]."""
    return partial_from_tiling(Tiling(staircase(4), ((2, 1), (2,), (1,))), Binomial(4, 2)).to_json_dict()


class TestShape:
    def test_staircases(self):
        assert staircase(6).outer == (5, 4, 3, 2, 1)
        assert staircase(1) == Shape(())
        assert d_staircase(4, 2).outer == (7, 5, 3, 1)
        assert d_staircase(3, 1) == staircase(3)

    def test_cached_staircases_are_shared(self):
        for n in range(8):
            assert staircase(n) is staircase(n)
            assert d_staircase(n, 1) == staircase(n)
            assert d_staircase(n, 3) is d_staircase(n, 3)

    def test_cached_staircase_is_frozen(self):
        shape = staircase(5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shape.outer = (9,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d_staircase(3, 2).inner = ()
        assert staircase(5).outer == (4, 3, 2, 1)

    def test_staircase_refusals_are_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="negative staircase index"):
                staircase(-1)
            with pytest.raises(ValueError, match="need n >= 0 and d >= 1"):
                d_staircase(3, 0)

    def test_skew_rows(self):
        skew = Shape((9, 7, 5, 3, 1), (5,))
        assert skew.cells(1) == 4
        assert skew.cells(2) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            Shape((1, 2))
        with pytest.raises(ValueError):
            Shape((2, 1), (3,))


class TestShapeJson:
    @pytest.mark.parametrize(
        "document",
        [
            {"outer": [2, 1], "inner": [1]},
            {"outer": [2, 1], "inner": [1, 0, 0]},
            {"outer": [2, 1], "inner": []},
            {"outer": [1, 2]},
            {"outer": [2, -1]},
            {"outer": [2, 1], "inner": [0, 1]},
            {"outer": [2, 1], "inner": [3, 0]},
            {"outer": 2},
        ],
        ids=["inner-short", "inner-long", "inner-empty", "outer-rising", "outer-negative",
             "inner-rising", "inner-sticks-out", "outer-int"],
    )
    def test_rejects_malformed(self, document):
        with pytest.raises(MalformedDocument):
            Shape.from_json_dict(document)

    @pytest.mark.parametrize(
        "document, shape",
        [
            ({"outer": [2, 1]}, Shape((2, 1))),
            ({"outer": [2, 1], "inner": [1, 0]}, Shape((2, 1), (1,))),
            ({"outer": []}, Shape(())),
            ({"outer": [], "inner": []}, Shape(())),
        ],
    )
    def test_reads_canonical_and_straight(self, document, shape):
        assert Shape.from_json_dict(document) == shape
        assert Shape.from_json_dict(shape.to_json_dict()) == shape


class TestTilingJson:
    DOCUMENT = {"shape": {"outer": [2, 1], "inner": [0, 0]}, "rows": [["D"], ["M"]]}

    def test_round_trip(self):
        tiling = Tiling(Shape((2, 1)), ((2,), (1,)))
        assert tiling.to_json_dict() == self.DOCUMENT
        assert Tiling.from_json_dict(self.DOCUMENT) == tiling

    def test_omitted_inner_is_straight(self):
        data = {**self.DOCUMENT, "shape": {"outer": [2, 1]}}
        assert Tiling.from_json_dict(data) == Tiling(Shape((2, 1)), ((2,), (1,)))

    @pytest.mark.parametrize(
        "edit",
        [
            {"rows": "DM"},
            {"rows": ["D", "M"]},
            {"rows": [["D"], [1]]},
            {"extra": 1},
            {"shape": {"outer": "21"}},
            {"shape": {"outer": [2.0, 1]}},
            {"shape": {"outer": [2, 1], "inner": "0"}},
            {"shape": {"outer": [2, 1], "extra": []}},
            {"shape": [2, 1]},
            {"rows": [["M"], ["M"]]},
            {"shape": {"outer": [2, 1], "inner": [1]}},
            {"shape": {"outer": [2, 1], "inner": [1, 0]}},
        ],
        ids=[
            "rows-string", "row-strings", "int-token", "extra-key", "outer-string",
            "outer-float", "inner-string", "shape-extra-key", "shape-list",
            "rows-short", "rows-long", "rows-long-full-inner",
        ],
    )
    def test_rejects_malformed(self, edit):
        with pytest.raises(MalformedDocument):
            Tiling.from_json_dict({**self.DOCUMENT, **edit})

    def test_rejects_non_object(self):
        with pytest.raises(MalformedDocument):
            Tiling.from_json_dict([["D"], ["M"]])


class TestEnumeration:
    def test_single_row_counts(self):
        for m in range(13):
            assert count_tilings(Shape((m,)) if m else Shape(())) == fib(m + 1)

    def test_three_cell_row(self):
        tilings = list(enumerate_tilings(Shape((3,))))
        assert len(tilings) == 3

    def test_staircase_product(self):
        assert count_tilings(staircase(4)) == 6
        assert len(list(enumerate_tilings(staircase(4)))) == 6

    def test_empty_shape(self):
        assert [t.rows for t in enumerate_tilings(Shape(()))] == [()]

    @pytest.mark.parametrize("shape", [Shape((5, 4, 4, 2), (3, 1)), Shape((4, 4, 1), (3,)), staircase(6)])
    def test_count_is_the_enumerated_count(self, shape):
        # The skew rows are out of length order: 2, 3, 4, 2 and 1, 4, 1 cells.
        assert count_tilings(shape) == len(list(enumerate_tilings(shape)))

    @pytest.mark.parametrize(
        "shape",
        [staircase(12), staircase(20), d_staircase(7, 3), Shape((9, 9, 6, 3), (4, 2, 1))],
        ids=["delta_12", "delta_20", "delta_7:3", "skew"],
    )
    def test_count_is_the_product_of_row_list_lengths(self, shape):
        # Too many tilings to list; the rows' own listings, multiplied, are the oracle.
        lengths = [len(row_tilings(shape.cells(r))) for r in range(1, shape.n_rows + 1)]
        assert count_tilings(shape) == math.prod(lengths)



class TestWeights:
    def test_monomino_row(self):
        assert Tiling(Shape((3,)), ((1, 1, 1),)).weight() == Poly2.monomial(3, 0)

    def test_empty(self):
        assert Tiling(Shape(()), ()).weight() == Poly2.one()

    def test_example_tiling(self):
        assert EXAMPLE_TILING.weight() == Poly2.monomial(9, 3)

    def test_row_weight_is_lucas(self):
        for m in range(11):
            shape = Shape((m,)) if m else Shape(())
            assert shape_weight(shape) == lucas(m + 1)

    def test_staircase_weight(self):
        assert shape_weight(staircase(4)) == lucastorial(4)
        assert shape_weight(staircase(6)) == lucastorial(6)

    def test_d_staircase_weight(self):
        assert shape_weight(d_staircase(3, 2)) == d_lucastorial(3, 2)

    def test_product_form_matches_full_sum(self):
        # shape_weight distributes the sum over rows; pin it to the literal sum
        for shape in (staircase(5), d_staircase(3, 2), Shape((4, 2), (1,))):
            total = Poly2.zero()
            for tiling in enumerate_tilings(shape):
                total = total + tiling.weight()
            assert total == shape_weight(shape)


class TestPaths:
    def test_example_path(self):
        path = path_from_tiling(EXAMPLE_TILING, Binomial(6, 3))
        assert path.steps == "WNNWNNNWN"
        assert path.labels == ("NL", "NI", "NL", "NI", "NI", "NL")

    def test_all_monomino_path(self):
        tiling = Tiling(staircase(5), ((1,) * 4, (1,) * 3, (1,) * 2, (1,)))
        assert path_from_tiling(tiling, Binomial(5, 2)).steps == "NNN" + "WN" * 2

    def test_ddivisible_example_path(self):
        path = path_from_tiling(DDIV_TILING, DDivisible(4, 2, 2))
        assert path.steps == "WNWWNWNN"
        assert path.labels == ("NL", "NL", "NI", "NI")

    def test_crossings(self):
        path = path_from_tiling(EXAMPLE_TILING, Binomial(6, 3))
        assert path.crossings() == (
            (1, 2, "NL"), (2, 2, "NI"), (3, 1, "NL"), (4, 1, "NI"), (5, 1, "NI"), (6, 0, "NL"),
        )


class TestPartials:
    def test_example_partial(self):
        partial = partial_from_tiling(EXAMPLE_TILING, Binomial(6, 3))
        assert partial.fixed == (
            ((3, (2, 1)),),   # right of the NL at x=2: domino on cells 3,4 then a monomino
            ((1, (2,)),),     # left of the NI at x=2: a domino
            ((2, (2,)),),     # right of the NL at x=1
            ((1, (1,)),),
            ((1, (1,)),),
        )
        # 3 fixed monominoes and 3 fixed dominoes survive
        assert partial.weight() == Poly2.monomial(3, 3)

    def test_blank_partial_weight(self):
        blank = partial_from_fixed(Binomial(4, 4), ((), (), ()))
        assert blank.weight() == Poly2.one()

    def test_all_monomino_partial(self):
        # the N-run pins k monominoes per crossed row; the staircase NL steps
        # have nothing to their right
        n, k = 6, 3
        tiling = Tiling(staircase(n), tuple((1,) * m for m in range(n - 1, 0, -1)))
        partial = partial_from_tiling(tiling, Binomial(n, k))
        assert partial.fixed == tuple(
            ((1, (1,) * k),) if r <= n - k else () for r in range(1, n)
        )
        assert partial.weight() == Poly2.monomial(k * (n - k), 0)

    def test_catalan_example_partial(self):
        # rows bottom-up: M D M M / M M M M / D M / M M / M  (delta_6, start (2,0))
        tiling = Tiling(staircase(6), ((1, 2, 1, 1), (1, 1, 1, 1), (2, 1), (1, 1), (1,)))
        partial = partial_from_tiling(tiling, Catalan(3))
        assert partial.path.steps == "WNNWNNNN"
        assert partial.fixed == (
            ((2, (2,)),),     # only the deflecting domino stays in row 1
            ((1, (1,)),),     # left of the NI at x=1
            ((1, (2, 1)),),   # right of the NL at x=0 fixes the whole row
            (),
            (),
        )
        assert partial.weight() == Poly2.monomial(2, 2)

    def test_fuss_example_partial(self):
        # a delta_9 instance with n=3, k=2: bottom row M D M D M M M M has the
        # m = 2 window blank; upper rows leave single fixed cells and one full row.
        rows = [
            (1, 2, 1, 2, 1, 1),          # row 1 (8 cells)
            (1, 1, 1, 1, 1, 1, 1),       # row 2
            (1, 1, 1, 1, 1, 1),          # row 3
            (1, 1, 1, 1, 1),             # row 4
            (2, 1, 1),                   # row 5 (D M M)
            (1, 1, 1),                   # row 6
            (1, 1),                      # row 7
            (1,),                        # row 8
        ]
        tiling = Tiling(staircase(9), tuple(rows))
        partial = partial_from_tiling(tiling, FussCatalan(3, 2))
        assert partial.fixed[0] == ((2, (2, 1, 2)),)  # domino, M(4), domino(5,6); cells 7,8 blank
        assert partial.fixed[1:5] == (((1, (1,)),), ((1, (1,)),), ((1, (1,)),), ((1, (2, 1, 1)),))
        assert partial.fixed[5:] == ((), (), ())
        # weight also drops the blank window
        assert partial.weight() == Poly2.monomial(6, 3)

    def test_fixed_cells_belong_to_tiling(self):
        for variant in (Binomial(5, 2), Catalan(2), DDivisible(3, 1, 2)):
            for tiling in enumerate_tilings(variant.shape()):
                partial = partial_from_tiling(tiling, variant)
                for r, runs in enumerate(partial.fixed, start=1):
                    row = tiling.rows[r - 1]
                    bounds = {}
                    pos = 0
                    for i, tile in enumerate(row):
                        bounds[pos] = i
                        pos += tile
                    for start, tiles in runs:
                        first = bounds[start - 1]
                        assert row[first : first + len(tiles)] == tiles

    def test_partial_from_fixed_rejects_garbage(self):
        with pytest.raises(MalformedPartial):
            # a lone fixed monomino in the middle of row 1 fixes nothing a path makes
            partial_from_fixed(Binomial(4, 2), (((2, (1,)),), (), ()))

    @pytest.mark.parametrize(
        "row, message",
        [
            (((1, (1, 1)), (2, (1,))), "overlapping fixed runs"),
            (((0, (1,)),), "overlapping fixed runs"),
            (((-1, (2,)),), "overlapping fixed runs"),
            (((3, (2,)),), "sticks out of its row"),
            (((1, (2,)), (3, (2,))), "sticks out of its row"),
            (((1, (3,)),), "monominoes or dominoes"),
            (((1, (0,)),), "monominoes or dominoes"),
            (((1, (0, 4)),), "monominoes or dominoes"),
        ],
        ids=["overlap", "column-0", "column-minus-1", "sticks-out", "second-run-sticks-out",
             "tile-3", "tile-0", "tiles-0-and-4"],
    )
    def test_partial_from_fixed_refuses_runs_no_row_holds(self, row, message):
        fixed = (row, (), ())
        with pytest.raises(MalformedPartial, match=message):
            partial_from_fixed(Binomial(4, 2), fixed)
        with pytest.raises(MalformedPartial, match=message):
            completion(Binomial(4, 2), fixed)
        # The token round trip refused the same rows, with a bare ValueError for the tile lengths.
        with pytest.raises(ValueError):
            partial_from_tiling(token_completion(Binomial(4, 2), fixed), Binomial(4, 2))

    def test_partial_from_fixed_rejects_too_few_rows(self):
        with pytest.raises(MalformedPartial, match="1 fixed rows for a shape with 3"):
            partial_from_fixed(Binomial(4, 2), ((),))

    def test_partial_from_fixed_rejects_too_many_rows(self):
        with pytest.raises(MalformedPartial, match="4 fixed rows for a shape with 3"):
            partial_from_fixed(Binomial(4, 2), ((), (), (), ()))

    def test_json_round_trip(self):
        partial = partial_from_tiling(EXAMPLE_TILING, Binomial(6, 3))
        data = partial.to_json_dict()
        assert data["rows"][0] == [".", ".", "D", "M"]
        assert data["path"] == "WNNWNNNWN"
        assert PartialTiling.from_json_dict(data) == partial

    def test_json_rejects_unknown_token(self):
        data = binomial_4_2_document()
        assert data["rows"][0] == ["D", "."]
        data["rows"][0][0] = "X"
        with pytest.raises(MalformedPartial, match="'X'"):
            PartialTiling.from_json_dict(data)

    def test_json_rejects_foreign_start_and_path(self):
        data = binomial_4_2_document()
        data["start"], data["path"] = [0, 0], "WWWW"
        with pytest.raises(MalformedPartial, match="path, start"):
            PartialTiling.from_json_dict(data)

    @pytest.mark.parametrize("value", [None, 0, []])
    def test_json_rejects_an_extra_key(self, value):
        data = {**binomial_4_2_document(), "extra": value}
        with pytest.raises(MalformedPartial, match="extra"):
            PartialTiling.from_json_dict(data)

    def test_json_rejects_missing_row(self):
        data = binomial_4_2_document()
        data["rows"].pop()
        with pytest.raises(MalformedPartial, match="2 rows"):
            PartialTiling.from_json_dict(data)

    @pytest.mark.parametrize("variant", SIZED_VARIANTS, ids=repr)
    def test_shape_has_at_least_terminal_minus_one_rows(self, variant):
        # What lets from_json_dict refuse too few rows before it builds the shape.
        assert variant.shape().n_rows >= variant.terminal() - 1

    @pytest.mark.parametrize("variant", SIZED_VARIANTS + [Binomial(2, 1), DDivisible(1, 0, 4)], ids=repr)
    def test_longest_row_is_the_shapes(self, variant):
        # What lets `tilings partition` refuse a long row before it builds the shape.
        assert variant.longest_row() == max(variant.shape().outer, default=0)

    @pytest.mark.parametrize("variant", SIZED_VARIANTS, ids=repr)
    def test_json_row_counts_the_bound_admits_keep_their_message(self, variant):
        shape_rows = variant.shape().n_rows
        for count in range(max(variant.terminal() - 1, 0), shape_rows + 2):
            if count != shape_rows:
                data = {"variant": _variant_to_json(variant), "rows": [[]] * count, "start": [0, 0], "path": ""}
                with pytest.raises(MalformedPartial, match=f"^{count} rows for a shape with {shape_rows}$"):
                    PartialTiling.from_json_dict(data)

    @pytest.mark.parametrize(
        "variant",
        [
            {"kind": "binomial", "n": 10**9, "k": 1},
            {"kind": "catalan", "n": 10**9},
            {"kind": "fuss", "n": 10**9, "k": 3},
            {"kind": "ddivisible", "n": 10**9, "k": 1, "d": 2},
        ],
        ids=lambda variant: variant["kind"],
    )
    def test_json_refuses_too_few_rows_before_the_shape(self, variant, monkeypatch):
        def refuse(self):
            raise AssertionError(f"built the shape of {self!r}")

        for cls in (FussCatalan, DDivisible):
            monkeypatch.setattr(cls, "shape", refuse)
        data = {"variant": variant, "rows": [[]] * 3, "start": [0, 0], "path": ""}
        least = VARIANTS[variant["kind"]](*(v for name, v in variant.items() if name != "kind")).terminal() - 1
        with pytest.raises(MalformedPartial, match=f"^3 rows for a shape with at least {least}$"):
            PartialTiling.from_json_dict(data)

    @pytest.mark.parametrize("rows", [5, "D..", [".", "D", "."], None])
    def test_json_rejects_rows_that_are_not_token_lists(self, rows):
        data = {**binomial_4_2_document(), "rows": rows}
        with pytest.raises(MalformedPartial, match="rows"):
            PartialTiling.from_json_dict(data)

    def test_json_one_token_mutations(self):
        # Every single-token set, insertion or deletion is either rejected or
        # is itself a canonical document.
        for variant in (Binomial(4, 2), Catalan(3), FussCatalan(2, 2), DDivisible(3, 1, 2)):
            for partial in enumerate_partials(variant):
                data = partial.to_json_dict()
                for r, row in enumerate(data["rows"]):
                    edits = [row[:i] + [token] + row[i + 1 :] for i in range(len(row)) for token in ("M", "D", ".", "X")]
                    edits += [row[:i] + [token] + row[i:] for i in range(len(row) + 1) for token in ("M", "D", ".")]
                    edits += [row[:i] + row[i + 1 :] for i in range(len(row))]
                    for edited in edits:
                        mutated = {**data, "rows": data["rows"][:r] + [edited] + data["rows"][r + 1 :]}
                        try:
                            parsed = PartialTiling.from_json_dict(mutated)
                        except MalformedPartial:
                            continue
                        assert parsed.to_json_dict() == mutated


# Every variant family, including the Fuss first-row rule and both d-divisible moduli.
COMPLETION_VARIANTS = (
    [Binomial(n, k) for n in range(7) for k in range(n + 1)]
    + [Catalan(3), FussCatalan(2, 2), FussCatalan(2, 3)]
    + [DDivisible(3, k, d) for d in (2, 3) for k in range(4)]
)


def token_partial_from_fixed(variant, fixed) -> PartialTiling:
    """``partial_from_fixed`` on the token-parsed completion, as it ran before it walked tile tuples."""
    if len(fixed) != variant.shape().n_rows:
        raise MalformedPartial("wrong number of fixed rows")
    candidate = partial_from_tiling(token_completion(variant, fixed), variant)
    if candidate.fixed != tuple(tuple(runs) for runs in fixed):
        raise MalformedPartial("fixed cells are not a block representative")
    return candidate


def near_misses(fixed):
    """``fixed`` with one run shifted, one tile swapped, grown or dropped, or one tile of length 0 or 3."""
    for r, runs in enumerate(fixed):
        for i, (start, tiles) in enumerate(runs):
            edits = [(start - 1, tiles), (start + 1, tiles), (start, tiles + (1,)), (start, tiles[:-1])]
            edits += [(start, tiles[:j] + (3 - t,) + tiles[j + 1 :]) for j, t in enumerate(tiles)]
            edits += [(start, tiles[:1] + (bad,) + tiles[1:]) for bad in (0, 3)]
            for edit in edits:
                yield fixed[:r] + (runs[:i] + (edit,) + runs[i + 1 :],) + fixed[r + 1 :]
        yield fixed[:r] + (runs + ((1, (1,)),),) + fixed[r + 1 :]


class TestDirectCompletion:
    """partial_from_fixed walks the completed rows; the token round trip is the oracle."""

    @pytest.mark.parametrize("variant", COMPLETION_VARIANTS, ids=repr)
    def test_every_partial_round_trips(self, variant):
        for partial in enumerate_partials(variant):
            completed = token_completion(variant, partial.fixed)
            assert completion(variant, partial.fixed) == completed
            assert partial_from_fixed(variant, partial.fixed) == partial == partial_from_tiling(completed, variant)

    @pytest.mark.parametrize("variant", [Binomial(5, 2), Catalan(3), FussCatalan(2, 2), DDivisible(3, 1, 2)], ids=repr)
    def test_near_misses_refused_alike(self, variant):
        refused = 0
        for partial in enumerate_partials(variant):
            for fixed in near_misses(partial.fixed):
                try:
                    want = token_partial_from_fixed(variant, fixed)
                except ValueError:
                    with pytest.raises(MalformedPartial):
                        partial_from_fixed(variant, fixed)
                    refused += 1
                else:
                    assert partial_from_fixed(variant, fixed) == want
        assert refused


class TestVariantFamilies:
    """Binomial is the d-divisible variant at d = 1, Catalan the Fuss variant at k = 1."""

    @staticmethod
    def blocks(variant) -> dict:
        return {(p.path, p.fixed): weight for p, weight in block_partition(variant).items()}

    def test_binomial_blocks_are_ddivisible_at_d_one(self):
        for n in range(8):
            for k in range(n + 1):
                assert self.blocks(Binomial(n, k)) == self.blocks(DDivisible(n, k, 1))

    def test_catalan_blocks_are_fuss_at_k_one(self):
        for n in range(5):
            assert self.blocks(Catalan(n)) == self.blocks(FussCatalan(n, 1))

    def test_catalan_first_row_keeps_only_the_deflecting_domino(self):
        # every tiling lies in one block, so the blocks' first rows are all of them
        for n in range(5):
            first_rows = {p.fixed[0] for p in block_partition(Catalan(n)) if p.fixed}
            assert first_rows <= {(), ((n - 1, (DOMINO,)),)}
            assert len(first_rows) == (2 if n >= 2 else 1 if n == 1 else 0)

    def test_wire_form_repr_and_equality_are_their_own(self):
        assert repr(Catalan(3)) == "Catalan(n=3)"
        assert repr(Binomial(4, 2)) == "Binomial(n=4, k=2)"
        assert Catalan(3) != FussCatalan(3, 1)
        assert Binomial(4, 2) != DDivisible(4, 2, 1)
        for variant, document in (
            (Binomial(4, 2), {"kind": "binomial", "n": 4, "k": 2}),
            (Catalan(3), {"kind": "catalan", "n": 3}),
        ):
            data = enumerate_partials(variant)[0].to_json_dict()
            assert list(data["variant"].items()) == list(document.items())
            assert PartialTiling.from_json_dict(data).variant == variant

    def test_no_base_field_on_the_wire(self):
        data = binomial_4_2_document()
        data["variant"]["d"] = 1
        with pytest.raises(MalformedPartial, match="kind plus integers n, k"):
            PartialTiling.from_json_dict(data)


# The variants of acceptance criteria 1 and 4.
CRITERIA_VARIANTS = (
    [Binomial(n, k) for n in range(8) for k in range(n + 1)]
    + [Catalan(n) for n in range(5)]
    + [FussCatalan(n, k) for n, k in [(2, 2), (3, 2), (2, 3)]]
    + [DDivisible(n, k, d) for d in range(1, 4) for n in range(5) for k in range(n + 1)]
)

# Past the bounds the brute-force oracle runs at: Catalan(5) has 122,522,400
# tilings and FussCatalan(3, 3) about 1.57e12.
BEYOND_BRUTE_FORCE = (
    [Catalan(5), FussCatalan(3, 3), FussCatalan(2, 4)]
    + [DDivisible(4, k, 4) for k in range(5)]
    + [DDivisible(5, k, 3) for k in range(6)]
    + [Binomial(8, k) for k in range(9)]
)

# Past the bounds the materialised check runs at: Catalan(10) has about
# 7.3e18 blocks and Binomial(20, 10) about 6.5e20.
LARGE_VARIANTS = (
    [Catalan(n) for n in (8, 9, 10)]
    + [Binomial(16, 8), Binomial(20, 10)]
    + [FussCatalan(4, 2), FussCatalan(4, 4), FussCatalan(5, 3)]
    + [DDivisible(8, k, 3) for k in range(9)]
)


def row_lengths(variant) -> list[int]:
    """The row lengths of the variant's staircase, read off its definition."""
    if isinstance(variant, FussCatalan):
        return list(range((variant.k + 1) * variant.n - 1, 0, -1))
    if variant.d == 1:
        return list(range(variant.n - 1, 0, -1))
    return [j * variant.d - 1 for j in range(variant.n, 0, -1)]


class TestBlockPartition:
    @pytest.mark.parametrize("variant", CRITERIA_VARIANTS, ids=repr)
    def test_row_fold_matches_brute_force(self, variant):
        assert block_partition(variant) == brute_block_partition(variant)

    @pytest.mark.parametrize("variant", BEYOND_BRUTE_FORCE, ids=repr)
    def test_row_fold_beyond_brute_force(self, variant):
        report = verify_block_partition(variant)
        assert report.ok, report.failures
        # every partial weight is a monic monomial, so each block adds 1 at s = t = 1
        assert report.block_count == report.partial_sum.evaluate(1, 1)

    @pytest.mark.parametrize("variant", CRITERIA_VARIANTS + BEYOND_BRUTE_FORCE, ids=repr)
    def test_merged_fold_matches_materialised_check(self, variant):
        assert verify_block_partition(variant).to_json_dict() == materialised_verify(variant).to_json_dict()

    @pytest.mark.parametrize("variant", LARGE_VARIANTS, ids=repr)
    def test_merged_fold_at_large_sizes(self, variant):
        report = verify_block_partition(variant)
        assert report.ok, report.failures
        assert report.block_count == report.partial_sum.evaluate(1, 1)
        # a row of m cells has F_{m+1} tilings
        assert report.tiling_count == math.prod(fib(m + 1) for m in row_lengths(variant))

    def test_naive_grouping_matches_stream(self):
        for variant in (Binomial(5, 2), Catalan(2), FussCatalan(2, 2), DDivisible(3, 2, 2)):
            naive: dict[PartialTiling, Poly2] = {}
            for tiling in enumerate_tilings(variant.shape()):
                partial = partial_from_tiling(tiling, variant)
                naive[partial] = naive.get(partial, Poly2.zero()) + tiling.weight()
            assert naive == block_partition(variant)

    def test_binomial_sum(self):
        report = verify_block_partition(Binomial(4, 2))
        assert report.ok
        assert report.partial_sum == lucasnomial(4, 2)

    def test_catalan_small(self):
        report = verify_block_partition(Catalan(2))
        assert report.ok
        assert report.partial_sum.evaluate(2, -1) == 2

    def test_ddivisible_small(self):
        report = verify_block_partition(DDivisible(2, 1, 2))
        assert report.ok

    def test_block_weights_factor(self):
        variant = Binomial(5, 2)
        divisor = variant.divisor()
        for partial, weight in block_partition(variant).items():
            assert weight == divisor * partial.weight()

    def test_every_tiling_lands_in_its_own_block(self):
        variant = Binomial(4, 2)
        for tiling in enumerate_tilings(variant.shape()):
            partial = partial_from_tiling(tiling, variant)
            again = partial_from_tiling(tiling, variant)
            assert partial == again  # deterministic canonical representative


ROW_GROUP_VARIANTS = (Binomial(6, 3), Catalan(4), FussCatalan(3, 2), DDivisible(4, 2, 3))


def reached_row_groups(variant):
    """(row length, row groups) for every walk state the fold reaches, row by row."""
    shape = variant.shape()
    states = {(variant.start_x(), frozenset())}
    for r in range(1, variant.terminal() + 1):
        row_len = shape.cells(r) if r <= shape.n_rows else 0
        successors = set()
        for x, used in states:
            groups = _row_groups(variant, r, row_len, x, used, variant.mod_d())
            yield row_len, groups
            successors |= {(x2, used2) for x2, _, used2, _ in groups}
        states = successors


class TestRowGroups:
    """Each group's tally is a trimmed sequence, entry k its tilings with k dominoes."""

    @pytest.mark.parametrize("variant", ROW_GROUP_VARIANTS, ids=repr)
    def test_tallies_are_trimmed(self, variant):
        for _, groups in reached_row_groups(variant):
            for tally in groups.values():
                assert tally and tally[-1], tally

    @pytest.mark.parametrize("variant", ROW_GROUP_VARIANTS, ids=repr)
    def test_no_tiling_below_the_fixed_dominoes(self, variant):
        # every tiling of a group holds its fixed runs, dominoes included
        for _, groups in reached_row_groups(variant):
            for (_, _, _, runs), tally in groups.items():
                fixed_doms = sum(tiles.count(DOMINO) for _, tiles in runs)
                assert not any(tally[:fixed_doms]), (runs, tally)

    @pytest.mark.parametrize("variant", ROW_GROUP_VARIANTS, ids=repr)
    def test_groups_split_the_row(self, variant):
        # the tilings of a row of m cells weigh {m+1}: each lands in exactly one group
        states = 0
        for row_len, groups in reached_row_groups(variant):
            states += 1
            parts = [Poly2({(row_len - 2 * k, k): c for k, c in enumerate(tally)}) for tally in groups.values()]
            assert sum(parts, Poly2.zero()) == lucas(row_len + 1)
        assert states > variant.terminal()


def assert_canonical(p: Poly2) -> None:
    """p equals, and hashes like, the Poly2 built afresh from its terms."""
    rebuilt = Poly2(dict(p.terms()))
    assert p == rebuilt
    assert hash(p) == hash(rebuilt)


class TestFoldOutputsAreCanonical:
    """The folds build their Poly2s from coefficient sequences; each must be canonical."""

    @pytest.mark.parametrize("variant", CRITERIA_VARIANTS, ids=repr)
    def test_block_weights(self, variant):
        for weight in block_partition(variant).values():
            assert_canonical(weight)

    @pytest.mark.parametrize("variant", CRITERIA_VARIANTS, ids=repr)
    def test_partial_sum(self, variant):
        assert_canonical(verify_block_partition(variant).partial_sum)


# Wrong divisors: one monomial too many, and one factor s too many.
WRONG_DIVISORS = {
    "plus-one": lambda divisor: divisor + Poly2.one(),
    "times-s": lambda divisor: divisor * Poly2.monomial(1, 0),
}


class TestBadClass:
    """A wrong divisor fails its class, which names one real block as the witness."""

    @pytest.mark.parametrize("mutation", WRONG_DIVISORS.values(), ids=list(WRONG_DIVISORS))
    @pytest.mark.parametrize(
        "variant",
        [Binomial(5, 2), Catalan(3), FussCatalan(2, 2), DDivisible(4, 2, 2), DDivisible(3, 1, 3)],
        ids=repr,
    )
    def test_wrong_divisor_names_a_real_block(self, monkeypatch, variant, mutation):
        right = type(variant).divisor
        monkeypatch.setattr(type(variant), "divisor", lambda self: mutation(right(self)))
        report = verify_block_partition(variant)
        assert not report.ok
        paths = {partial.path.steps for partial in enumerate_partials(variant)}
        blockwise = materialised_verify(variant).failures
        for failure in report.failures:
            assert failure.startswith("block of path ")
            assert failure.removeprefix("block of path ").split(":")[0] in paths
            # the witness's line is the one the block-by-block check prints for it
            assert failure in blockwise
        assert verify_block_partition(variant).failures == report.failures


class TestRectangleModel:
    def test_example_instance(self):
        partial = partial_from_tiling(EXAMPLE_TILING, Binomial(6, 3))
        rect = to_rectangle_model(partial)
        assert rect.lam == ((2,), (1,), (1,))          # D, M, M rows
        assert rect.lam_star == ((2, 1), (2,), ())     # D M and D columns
        assert rect.weight() == partial.weight()
        assert from_rectangle_model(rect) == partial

    def test_round_trip_exhaustive(self):
        for n in range(7):
            for k in range(n + 1):
                for partial in enumerate_partials(Binomial(n, k)):
                    rect = to_rectangle_model(partial)
                    assert rect.weight() == partial.weight()
                    assert from_rectangle_model(rect) == partial

    def test_empty_lam_star(self):
        tiling = Tiling(staircase(4), ((1, 1, 1), (1, 1), (1,)))
        rect = to_rectangle_model(partial_from_tiling(tiling, Binomial(4, 2)))
        assert rect.lam_star == ((), ())

    def test_missing_leading_domino(self):
        with pytest.raises(MalformedModel):
            from_rectangle_model(RectangleTiling(4, 2, ((1,), ()), ((1, 1), ())))

    def test_wrong_shape(self):
        with pytest.raises(MalformedModel):
            from_rectangle_model(RectangleTiling(4, 2, ((1,),), ((), ())))


class TestSkewNumerator:
    def test_two_two(self):
        # bottom row of delta_{3:2}/(2) has 3 cells, contributing {4}
        skew = Shape(d_staircase(3, 2).outer, (2,))
        assert skew.cells(1) == 3
        assert verify_skew_numerator(2, 2)

    def test_degenerate_row(self):
        for d in range(1, 5):
            assert verify_skew_numerator(1, d)

    def test_three_two(self):
        assert verify_skew_numerator(3, 2)

    def test_small_sweep(self):
        assert all(verify_skew_numerator(n, d) for n in range(1, 4) for d in range(1, 4))

"""Strips, extended tilings and the symmetry involution."""

import pytest

from lucaskit import involution
from lucaskit.involution import (
    BrokenDomino,
    ExtendedTiling,
    Malformed,
    classify_point,
    enumerate_extended,
    iota,
    iota_trace,
    strip_concat,
    strip_first,
    strip_last,
    strip_reverse,
    symmetry_sides,
    verify_involution,
)
from lucaskit.polyring import Poly2
from lucaskit.shapes_tilings import Binomial, MalformedDocument, partial_from_fixed

# Strips of the running example: S1 = M D M (4 cells), S2 = D M (3 cells).
S1 = (1, 2, 1)
S2 = (2, 1)


def worked_example() -> ExtendedTiling:
    """A type (7,5,2) extended tiling whose orbit walks through all four cases."""
    partial = partial_from_fixed(
        Binomial(7, 5),
        (
            ((5, (2,)),),      # row 1: domino on cells 5,6
            ((4, (2,)),),      # row 2: domino on cells 4,5
            ((1, (2, 1)),),    # row 3: D M on cells 1..3
            ((1, (1, 2)),),    # row 4: M D on cells 1..3
            (),
            (),
        ),
    )
    return ExtendedTiling(partial, (S1, S2))


class TestStrips:
    def test_concat(self):
        joined = strip_concat(S1, S2)
        assert joined == (1, 2, 1, 2, 1)
        assert sum(joined) == 7

    def test_concat_identity(self):
        assert strip_concat(S1, ()) == S1

    def test_first_and_last(self):
        assert strip_first(S1, 3) == (1, 2)
        assert strip_last(S1, 3) == (2, 1)

    def test_whole(self):
        assert strip_first(S1, 4) == S1
        assert strip_last(S1, 0) == ()

    def test_broken_domino(self):
        with pytest.raises(BrokenDomino):
            strip_first((2,), 1)
        with pytest.raises(BrokenDomino):
            strip_last(S1, 2)

    def test_cut_outside_the_strip(self):
        for cells in (-1, 5):
            with pytest.raises(ValueError, match=f"cannot take {cells} cells of a 4-cell strip"):
                strip_first(S1, cells)
        with pytest.raises(ValueError, match="cannot take -1 cells of a 4-cell strip"):
            strip_last(S1, 5)

    def test_reverse(self):
        assert strip_reverse(S2) == (1, 2)
        assert strip_reverse(strip_reverse(S1)) == S1
        assert strip_reverse((1, 1, 1)) == (1, 1, 1)


class TestClassifyPoint:
    def test_example_points(self):
        example = worked_example()
        assert classify_point(example.partial, 5) == "NL"
        assert classify_point(S1, 2) == "NL"  # inside the domino

    def test_outside_strip(self):
        assert classify_point(S2, 5) == "NL"
        assert classify_point(S2, -1) == "NL"

    def test_all_monomino_interior(self):
        assert all(classify_point((1, 1, 1), x) == "NI" for x in range(4))

    def test_domino_edges(self):
        assert classify_point(S2, 0) == "NI"
        assert classify_point(S2, 2) == "NI"
        assert classify_point(S2, 1) == "NL"


class TestIotaWorkedExample:
    def test_case_trace(self):
        _, trace = iota_trace(worked_example())
        assert trace == ("d", "c", "b", "a", "c", "d", "d")

    def test_final_configuration(self):
        result = iota(worked_example())
        assert result.type_triple() == (7, 4, 2)
        assert result.partial.fixed == (
            ((4, (2, 1)),),    # row 1: D on cells 4,5 then M on 6
            ((1, (2, 1)),),    # row 2: D M
            ((3, (2,)),),      # row 3: D on cells 3,4
            ((1, (2,)),),      # row 4
            ((1, (2,)),),      # row 5
            (),
        )
        assert result.strips == ((2, 1), (1, 1))

    def test_weight_preserved(self):
        example = worked_example()
        assert iota(example).weight() == example.weight()

    def test_involution(self):
        example = worked_example()
        assert iota(iota(example)) == example


class TestExtendedWeight:
    def test_weight_is_core_times_strip_monomials(self):
        count = 0
        for n in range(6):
            for k in range(n + 1):
                for r in range(k + 1):
                    for ext in enumerate_extended(n, k, r):
                        expected = ext.partial.weight()
                        for strip in ext.strips:
                            expected = expected * Poly2.monomial(strip.count(1), strip.count(2))
                        assert ext.weight() == expected
                        count += 1
        assert count == 478


class TestIotaBaseCases:
    def test_n_zero_identity(self):
        empty = partial_from_fixed(Binomial(0, 0), ())
        example = ExtendedTiling(empty, ())
        result, trace = iota_trace(example)
        assert result == example
        assert trace == ()

    def test_type_contract_small(self):
        for example in enumerate_extended(4, 2, 1):
            assert iota(example).type_triple() == (4, 3, 1)

    def test_involution_class(self):
        for example in enumerate_extended(4, 2, 1):
            assert iota(iota(example)) == example


class TestIotaInnerInputs:
    def test_first_level_inner_input_is_extended_tiling(self):
        # iota validates only its image; this checks that each recursion level
        # hands the next one a well-formed extended tiling of type (n-1, k', r').
        # Smaller types stand for the deeper levels, so every level to n = 6 is covered.
        checked = 0
        for n in range(1, 7):
            for k in range(n + 1):
                for r in range(k + 1):
                    for ext in enumerate_extended(n, k, r):
                        fixed, strips = ext.partial.fixed, ext.strips
                        R = fixed[0][0][1] if fixed and fixed[0] else ()
                        case = iota_trace(ext)[1][0]
                        if case == "a":
                            inner_k, inner_strips = k, strips + (strip_first(R, k - r - 1),)
                        elif case == "b":
                            inner_k, inner_strips = k, strips
                        elif case == "c":
                            cut = (strip_first(strips[0], k - r - 1),) if r else ()
                            inner_k, inner_strips = k - 1, strips[1:] + cut
                        else:
                            inner_k, inner_strips = k - 1, strips[1:]
                        inner = partial_from_fixed(Binomial(n - 1, inner_k), fixed[1:])
                        ExtendedTiling(inner, inner_strips)
                        checked += 1
        assert checked == 3691


class TestVerifyInvolution:
    def test_4_2_1(self):
        report = verify_involution(4, 2, 1)
        assert report.ok
        assert report.class_sum == report.lhs == report.rhs == report.target_sum

    def test_r_zero_realizes_plain_symmetry(self):
        report = verify_involution(5, 2, 0)
        assert report.ok
        from lucaskit.lucas import lucasnomial

        assert report.lhs == lucasnomial(5, 2)
        assert report.rhs == lucasnomial(5, 3)

    def test_paper_type(self):
        report = verify_involution(7, 5, 2)
        assert report.ok

    def test_symmetry_sides(self):
        from lucaskit.lucas import lucas, lucasnomial

        lhs, rhs = symmetry_sides(7, 5, 2)
        assert lhs == lucas(5) * lucas(4) * lucasnomial(7, 5)
        assert rhs == lucas(4) * lucas(3) * lucasnomial(7, 4)
        assert lhs == rhs


class TestTalliedSums:
    def test_class_sums_are_plain_weight_sums(self):
        checked = 0
        for n in range(6):
            for k in range(n + 1):
                for r in range(k + 1):
                    report = verify_involution(n, k, r)
                    assert report.ok
                    for ext_type, tallied in (((n, k, r), report.class_sum), ((n, n - k + r, r), report.target_sum)):
                        plain = Poly2.zero()
                        for ext in enumerate_extended(*ext_type):
                            plain = plain + ext.weight()
                        assert tallied == plain, ext_type
                    checked += 1
        assert checked == 56

    def test_weight_is_monomial_of_tile_counts(self):
        for ext in enumerate_extended(5, 3, 2):
            assert ext.weight() == Poly2.monomial(*ext.tile_counts())


class TestImageValidation:
    """iota_trace validates its image with partial_from_fixed and reports every refusal as Malformed."""

    @pytest.mark.parametrize(
        "row, message",
        [
            (((1, (1, 1)), (2, (1,))), "overlapping fixed runs"),
            (((0, (1,)),), "overlapping fixed runs"),
            (((3, (2,)),), "sticks out of its row"),
            (((1, (3,)),), "monominoes or dominoes"),
            (((1, (0,)),), "monominoes or dominoes"),
        ],
        ids=["overlap", "column-0", "sticks-out", "tile-3", "tile-0"],
    )
    def test_refused_image_is_malformed(self, monkeypatch, row, message):
        ext = next(enumerate_extended(4, 2, 0))
        monkeypatch.setattr(involution, "_iota", lambda n, k, rows, strips, trace: ((row, (), ()), strips))
        with pytest.raises(Malformed, match=message):
            iota_trace(ext)


class TestJson:
    def test_round_trip(self):
        example = worked_example()
        again = ExtendedTiling.from_json_dict(example.to_json_dict())
        assert again == example

    @pytest.mark.parametrize(
        "edit",
        [{"strips": "M"}, {"strips": ["MDM", "DM"]}, {"extra": []}],
        ids=["string", "strings", "extra-key"],
    )
    def test_rejects_malformed_document(self, edit):
        data = {**worked_example().to_json_dict(), **edit}
        with pytest.raises(MalformedDocument):
            ExtendedTiling.from_json_dict(data)

    def test_malformed_input(self):
        data = worked_example().to_json_dict()
        data["strips"][0] = ["M"]  # wrong length for a type (7,5,2) strip
        with pytest.raises(ValueError):
            ExtendedTiling.from_json_dict(data)

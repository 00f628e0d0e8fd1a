"""Strips, extended tilings and the symmetry involution."""

import dataclasses
import functools
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracles
import pytest
from oracles import per_type_verify_involution

from lucaskit import cli, involution, levels, shapes_tilings
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
from lucaskit.lucas import lucasnomial
from lucaskit.polyring import Poly2
from lucaskit.shapes_tilings import (
    Binomial,
    MalformedDocument,
    enumerate_partials,
    partial_from_fixed,
    tile_counts,
)


def clear_pair_caches():
    """Empty verify_involution's pair, level and class caches."""
    for cache in (
        involution._checked_pair,
        involution._verify_pair,
        levels.holds,
        levels._class_weight,
        levels._bottom_table,
    ):
        cache.cache_clear()


@pytest.fixture
def fresh_pairs():
    """Empty verify_involution's caches around a test, so nothing made under a patch outlives it."""
    clear_pair_caches()
    yield
    clear_pair_caches()


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


class TestStripTiles:
    @pytest.mark.parametrize(
        "k, strips, bad",
        [(4, ((3,),), 1), (3, ((0, 1, 1),), 1), (4, ((1, 2), (3, -1)), 2), (3, ((2,), (0, 1)), 2)],
    )
    def test_refuses_a_tile_other_than_a_monomino_or_a_domino(self, k, strips, bad):
        partial = enumerate_partials(Binomial(5, k))[0]
        with pytest.raises(ValueError, match=f"^strip {bad} tiles must be monominoes or dominoes$"):
            ExtendedTiling(partial, strips)

    def test_accepts_monominoes_and_dominoes(self):
        partial = enumerate_partials(Binomial(5, 4))[0]
        assert ExtendedTiling(partial, ((1, 2), (2,))).to_json_dict()["strips"] == [["M", "D"], ["D"]]


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


def refuse_partitions(monkeypatch, calls: list) -> None:
    """Record, and answer with nothing, every block partition made through ``shapes_tilings``."""
    for name in ("enumerate_partials", "block_partition"):
        monkeypatch.setattr(shapes_tilings, name, lambda variant, name=name: calls.append((name, variant)))


def key_of(ext: ExtendedTiling):
    """The bare (fixed rows, strips) key the pair verifier runs iota on."""
    return ext.partial.fixed, ext.strips


ORACLE_TYPES = [(n, k, r) for n in range(7) for k in range(n + 1) for r in range(k + 1)] + [
    (7, 5, 2),
    (7, 3, 1),
    (7, 4, 4),
]
# Each mirror pair of ORACLE_TYPES once, as its type with the smaller k.
ORACLE_PAIRS = sorted({(n, min(k, n - k + r), r) for n, k, r in ORACLE_TYPES})
# Triples that break 0 <= r <= k <= n.
REFUSED_TYPES = pytest.mark.parametrize("ext_type", [(3, 4, 0), (3, 2, 3), (-1, 0, 0), (2, 1, -1)])


class TestVerifyPair:
    """verify_involution verifies a type and its mirror together, with the per-type checks."""

    @pytest.mark.parametrize("ext_type", ORACLE_TYPES, ids=lambda t: "%d-%d-%d" % t)
    def test_matches_per_type_oracle(self, ext_type):
        assert verify_involution(*ext_type).to_json_dict() == per_type_verify_involution(*ext_type).to_json_dict()

    def test_cached_report_is_not_shared_mutable_state(self):
        report = verify_involution(4, 2, 1)
        before = report.to_json_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.failures = ["forced"]
        with pytest.raises(AttributeError):
            report.failures.append("forced")
        report.to_json_dict()["failures"].append("forced")
        assert verify_involution(4, 2, 1).to_json_dict() == before

    @REFUSED_TYPES
    def test_refused_type_leaves_no_cache_entry(self, fresh_pairs, ext_type):
        with pytest.raises(ValueError, match=r"^need 0 <= r <= k <= n$"):
            verify_involution(*ext_type)
        assert involution._verify_pair.cache_info().currsize == 0
        assert involution._checked_pair.cache_info().currsize == 0

    @REFUSED_TYPES
    def test_enumerate_extended_refuses_at_call_time(self, ext_type):
        with pytest.raises(ValueError, match=r"^need 0 <= r <= k <= n$"):
            enumerate_extended(*ext_type)

    def test_iota_runs_once_per_member(self, fresh_pairs, monkeypatch):
        pair = Counter(key_of(ext) for ext in [*enumerate_extended(5, 2, 1), *enumerate_extended(5, 4, 1)])
        own_mirror = Counter(key_of(ext) for ext in enumerate_extended(4, 2, 0))
        top, rebuilt = [], []
        inner = involution._iota

        def counting(n, k, rows, strips, trace, memo):
            # Every level appends its case letter before it recurses, so only a top-level call sees no trace.
            if not trace:
                top.append((rows, strips))
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", counting)
        monkeypatch.setattr(involution, "partial_from_fixed", lambda *args: rebuilt.append(args))
        assert involution._verify_exhaustively(5, 2, 1).ok
        assert involution._verify_exhaustively(5, 4, 1).ok
        assert Counter(top) == pair
        top.clear()
        assert involution._verify_exhaustively(4, 2, 0).ok
        assert Counter(top) == own_mirror
        assert rebuilt == []

    @pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=lambda t: "%d-%d-%d" % t)
    def test_shared_memo_matches_iota_trace(self, pair):
        # Both classes are traced through one memo, as the pair verifier does; each
        # result must be iota_trace's, which recurses with a memo of its own.
        n, k, r = pair
        memo = {}
        for own, mirror in ((k, n - k + r), (n - k + r, k)):
            mirror_class = dict(involution._class_keys(n, mirror, r))
            for ext in enumerate_extended(n, own, r):
                image, letters = iota_trace(ext)
                assert involution._trace_key(n, own, key_of(ext), mirror_class, memo) == (
                    key_of(image),
                    "".join(letters),
                )

    def test_each_subcall_runs_once_per_pair(self, fresh_pairs, monkeypatch):
        subcalls = Counter()
        inner = involution._iota

        def counting(n, k, rows, strips, trace, memo):
            # Only a top-level call sees an empty trace.
            if trace:
                subcalls[n, k, rows, strips] += 1
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", counting)
        assert involution._verify_exhaustively(6, 4, 3).ok
        assert involution._verify_exhaustively(6, 5, 3).ok
        assert subcalls and set(subcalls.values()) == {1}
        total = sum(subcalls.values())
        # A memo that outlived the pair would leave the second verification less to run.
        involution._verify_pair.cache_clear()
        subcalls.clear()
        assert involution._verify_exhaustively(6, 5, 3).ok
        assert set(subcalls.values()) == {1}
        assert sum(subcalls.values()) == total


class TestClassPartials:
    """The exhaustive check reads its classes from the block partition; the level check lists no partial."""

    @pytest.mark.parametrize("n", range(1, 15))
    def test_bottom_table_is_the_hand_written_rule(self, n):
        for k in range(n + 1):
            labels = {}
            for runs, (k_next, counts) in levels._bottom_table(n, k).items():
                labels.setdefault(k_next, []).append((runs, counts))
            assert sorted(labels.items(), reverse=True) == oracles.bottom_rows(n, k), (n, k)

    @pytest.mark.parametrize("n", range(9))
    def test_class_weight_sums_the_partials(self, n):
        for k in range(n + 1):
            partials = enumerate_partials(Binomial(n, k))
            expected = Poly2(Counter(tile_counts(p.fixed_tiles()) for p in partials))
            assert levels._class_weight(n, k) == expected, (n, k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bottom_table_splits_the_block_partition(self, n):
        # The level check's table against the fallback's engine: the partials of Binomial(n, k)
        # with a given bottom row are that row under each partial of the Binomial(n - 1, x) it enters.
        above = functools.cache(lambda k: {p.fixed for p in enumerate_partials(Binomial(n - 1, k))})
        for k in range(n + 1):
            by_bottom = {}
            for partial in enumerate_partials(Binomial(n, k)):
                by_bottom.setdefault(partial.fixed[0], set()).add(partial.fixed[1:])
            table = levels._bottom_table(n, k)
            assert by_bottom.keys() == table.keys(), (n, k)
            for runs, (x, _) in table.items():
                assert by_bottom[runs] == above(x), (n, k, runs)

    @pytest.mark.parametrize("n", range(7))
    def test_strips_counted_once_per_call(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(involution, "tile_counts", lambda rows: calls.append(rows) or tile_counts(rows))
        for k in range(n + 1):
            partials = len(enumerate_partials(Binomial(n, k)))
            for r in range(k + 1):
                calls.clear()
                list(involution._class_keys(n, k, r))
                # One count per partial, and one per choice of strips, however many partials share it.
                assert len(calls) == partials + len(involution._strip_choices(k, r)), (n, k, r)

    @pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=lambda t: "%d-%d-%d" % t)
    def test_each_class_is_partitioned_once(self, fresh_pairs, monkeypatch, pair):
        n, k, r = pair
        partitioned, partition = [], shapes_tilings.enumerate_partials
        monkeypatch.setattr(shapes_tilings, "enumerate_partials", lambda v: partitioned.append(v) or partition(v))
        assert involution._verify_exhaustively(n, k, r).ok
        # The mirror pair's classes, low k first; a self-mirror class is read once.
        assert partitioned == [Binomial(n, j) for j in dict.fromkeys((k, n - k + r))]

    def test_levels_list_no_partial(self, fresh_pairs, monkeypatch):
        partitioned = []
        refuse_partitions(monkeypatch, partitioned)
        for n in range(9):
            for k in range(n + 1):
                for r in range(k + 1):
                    report = verify_involution(n, k, r)
                    assert report.ok and report.method == "levels", (n, k, r)
        assert partitioned == []

    @pytest.mark.parametrize(
        "module, cache",
        [
            (involution, name)
            for name in ("_classify_bottom", "strip_first")
        ]
        + [(levels, name) for name in ("_bottom_table", "holds", "_class_weight", "_opaque", "_opaque_rows")],
        ids=lambda value: value if isinstance(value, str) else value.__name__.rpartition(".")[2],
    )
    def test_cache_is_bounded(self, module, cache):
        assert getattr(module, cache).cache_info().maxsize is not None

    @pytest.mark.parametrize("ext_type", ORACLE_TYPES, ids=lambda t: "%d-%d-%d" % t)
    def test_class_keys_follow_enumerate_extended(self, ext_type):
        members = [(key_of(ext), ext.tile_counts()) for ext in enumerate_extended(*ext_type)]
        assert list(involution._class_keys(*ext_type)) == members


@pytest.mark.usefixtures("fresh_pairs")
class TestVerifyPairCatchesFaults:
    """A broken iota still fails the pair path's checks, with the oracle's report."""

    def check(self, ext_type, *expected, verify=verify_involution):
        report = verify(*ext_type)
        for message in expected:
            assert any(f.startswith(message) for f in report.failures), (message, report.failures)
        assert report.to_json_dict() == per_type_verify_involution(*ext_type).to_json_dict()

    def test_iota_onto_one_member(self, monkeypatch):
        # Every member of (4,2,1) goes to one member of (4,3,1), and back.
        to = {2: next(enumerate_extended(4, 3, 1)), 3: next(enumerate_extended(4, 2, 1))}
        monkeypatch.setattr(
            involution, "_iota", lambda n, k, rows, strips, trace, memo: (to[k].partial.fixed, to[k].strips)
        )
        self.check((4, 2, 1), "iota^2 != id", "iota is not injective", "iota does not map onto")

    def test_two_images_swapped(self, monkeypatch):
        a, b = [(ext.partial.fixed, ext.strips) for ext in enumerate_extended(4, 2, 1)][:2]
        swap = {a: b, b: a}
        inner = involution._iota

        def swapped(n, k, rows, strips, trace, memo):
            return inner(n, k, *swap.get((rows, strips), (rows, strips)), trace, memo)

        monkeypatch.setattr(involution, "_iota", swapped)
        self.check((4, 2, 1), "iota^2 != id")
        self.check((4, 3, 1), "iota^2 != id")

    def test_iota_fails_on_the_images(self, monkeypatch):
        inner = involution._iota

        def refuse_mirror(n, k, rows, strips, trace, memo):
            if (n, k) == (4, 3):
                raise BrokenDomino("refused")
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", refuse_mirror)
        self.check((4, 2, 1), "iota failed on an image")
        self.check((4, 3, 1), "iota failed on {")

    @pytest.mark.parametrize("ext_type", [(4, 2, 1), (4, 3, 1), (5, 2, 1)], ids=lambda t: "%d-%d-%d" % t)
    def test_iota_fails_deep_in_the_recursion(self, monkeypatch, ext_type):
        # A failed subcall is not memoised: every member that reaches it fails, after its own case letters.
        inner = involution._iota

        def refuse_inner(n, k, rows, strips, trace, memo):
            if trace and (n, k) == (2, 1):
                raise BrokenDomino("refused")
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", refuse_inner)
        self.check(ext_type, "iota failed on")

    def test_image_outside_the_mirror_class(self, monkeypatch):
        # The enumeration loses one member of (4,3,1); its preimage's image is then traced on its own.
        def lossy(enumerate_all):
            def enumerate_some(n, k, r):
                members = list(enumerate_all(n, k, r))
                return iter(members[:-1] if (n, k, r) == (4, 3, 1) else members)

            return enumerate_some

        monkeypatch.setattr(involution, "_class_keys", lossy(involution._class_keys))
        monkeypatch.setattr(oracles, "enumerate_extended", lossy(oracles.enumerate_extended))
        # The level method lists no member, so only the exhaustive one reads the lossy list
        # (TestLevels.test_lossy_partials_fall_back loses a bottom row instead).
        exhaustive = involution._verify_exhaustively
        self.check((4, 2, 1), "iota does not map onto", "mirror class weight", verify=exhaustive)
        self.check((4, 3, 1), "iota does not map onto", "class weight", verify=exhaustive)

    def test_outsider_and_missed_member_balance(self, monkeypatch):
        # (4,3,1) loses its last member, so its preimage's image is an outsider; and two
        # other members of (4,2,1) share an image, so one member of the lossy class is
        # missed.  The distinct images are then as many as the lossy class's members,
        # yet iota does not map onto it.
        lost = key_of(list(enumerate_extended(4, 3, 1))[-1])

        def dropping(enumerate_all, key):
            return lambda n, k, r: (m for m in enumerate_all(n, k, r) if (n, k, r) != (4, 3, 1) or key(m) != lost)

        monkeypatch.setattr(involution, "_class_keys", dropping(involution._class_keys, lambda m: m[0]))
        monkeypatch.setattr(oracles, "enumerate_extended", dropping(oracles.enumerate_extended, key_of))
        a, b = [key_of(ext) for ext in enumerate_extended(4, 2, 1) if key_of(iota(ext)) != lost][:2]
        inner = involution._iota

        def merged(n, k, rows, strips, trace, memo):
            return inner(n, k, *(b if (rows, strips) == a else (rows, strips)), trace, memo)

        monkeypatch.setattr(involution, "_iota", merged)
        self.check((4, 2, 1), "iota does not map onto", "iota is not injective", "mirror class weight")


# Bottom rows of delta_4 that partial_from_fixed refuses, each with the refusal's message.
MALFORMED_ROWS = pytest.mark.parametrize(
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


@pytest.mark.usefixtures("fresh_pairs")
class TestImageValidation:
    """Every refused image is Malformed: in iota_trace, and in the pair verifier, where it is not in the mirror class."""

    @MALFORMED_ROWS
    def test_refused_image_is_malformed(self, monkeypatch, row, message):
        ext = next(enumerate_extended(4, 2, 0))
        monkeypatch.setattr(involution, "_iota", lambda n, k, rows, strips, trace, memo: ((row, (), ()), strips))
        with pytest.raises(Malformed, match=message):
            iota_trace(ext)

    def test_malformed_is_caused_by_the_refusal(self, monkeypatch):
        def broken(n, k, rows, strips, trace, memo):
            trace.append("a")
            raise BrokenDomino("cut at 1 splits a domino")

        monkeypatch.setattr(involution, "_iota", broken)
        with pytest.raises(Malformed, match="^after cases a: cut at 1 splits a domino$") as caught:
            iota_trace(next(enumerate_extended(4, 2, 0)))
        assert type(caught.value.__cause__) is BrokenDomino

    @MALFORMED_ROWS
    @pytest.mark.parametrize("ext_type", [(4, 2, 0), (4, 2, 1), (4, 3, 1)], ids=lambda t: "%d-%d-%d" % t)
    def test_pair_verifier_reports_refused_image(self, monkeypatch, row, message, ext_type):
        monkeypatch.setattr(involution, "_iota", lambda n, k, rows, strips, trace, memo: ((row, (), ()), strips))
        report = verify_involution(*ext_type)
        assert report.failures[0].startswith("iota failed on {") and report.failures[0].endswith(message)
        assert report.to_json_dict() == per_type_verify_involution(*ext_type).to_json_dict()


class TestIotaTraceWalksOnce:
    def test_one_partial_from_fixed_per_trace(self, monkeypatch):
        types = [(n, k, r) for n in range(6) for k in range(n + 1) for r in range(k + 1)]
        members = [ext for ext_type in types for ext in enumerate_extended(*ext_type)]
        walks = []
        walk = involution.partial_from_fixed
        monkeypatch.setattr(involution, "partial_from_fixed", lambda *args: walks.append(args) or walk(*args))
        for ext in [*members, worked_example()]:
            walks.clear()
            image, _ = iota_trace(ext)
            assert len(walks) == 1
            assert walks[0] == (image.partial.variant, image.partial.fixed)


@pytest.fixture(scope="class")
def warm_row_caches():
    """A full n <= 6 sweep with empty caches, so every row cache is warm before a fault is injected."""
    clear_pair_caches()
    for n in range(7):
        for k in range(n + 1):
            for r in range(k + 1):
                assert verify_involution(n, k, r).ok
    for cache in (involution._classify_bottom, involution.strip_first):
        assert cache.cache_info().currsize > 0
    clear_pair_caches()


@pytest.mark.usefixtures("warm_row_caches")
class TestVerifyPairCatchesFaultsWarm(TestVerifyPairCatchesFaults):
    """The same faults, injected after a sweep: a cached row classification or cut hides none."""


@pytest.mark.usefixtures("warm_row_caches")
class TestImageValidationWarm(TestImageValidation):
    """The same refused images, after a sweep."""


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


ALL_TYPES = [(n, k, r) for n in range(7) for k in range(n + 1) for r in range(k + 1)]


def mutant_iota(old: str, new: str, occurrences: int = 1, **extra):
    """``_iota`` with the ``occurrences`` of ``old`` in its source replaced by ``new``.

    The mutant is compiled against a copy of the module's names, plus
    ``extra``, so its recursive calls still go through ``_inner`` to
    whatever ``_iota`` the module holds: a test patches the mutant in.
    """
    source = inspect.getsource(involution._iota)
    assert source.count(old) == occurrences, old
    names = {**vars(involution), **extra}
    exec(compile(source.replace(old, new), involution.__file__, "exec"), names)
    return names["_iota"]


# Seeded faults in _iota: (the source it changes, the change).
FAULTS = {
    "a-cuts-r-cells": ("strip_reverse(strip_last(R, r + 1))", "strip_reverse(strip_last(R, r))"),
    "b-anchored-left": ('_prepend_row(res_rows, "right", row, n)\n        if r == 0', '_prepend_row(res_rows, "left", row, n)\n        if r == 0'),
    "b-strips-reordered": ("(first,) + res_strips[: r - 1]", "res_strips[: r - 1] + (first,)"),
    # Legal and weight-preserving, and the image's level makes the right call, but rebuilds another R.
    "b-first-unreversed": ("strip_reverse(strip_last(R, r)))", "strip_last(R, r))"),
    "c-row-reversed": ("row = strip_first(rs, n - k + r)", "row = strip_reverse(strip_first(rs, n - k + r))"),
    "d-first-reversed": ("first = strip_first(rs, n - k + r - 1)", "first = strip_reverse(strip_first(rs, n - k + r - 1))"),
    "second-point-at-k-r": ("_classify_bottom(n - 1, bottom, k - r - 1)", "_classify_bottom(n - 1, bottom, k - r)"),
    "c-d-flipped": ("if second_ni:", "if not second_ni:"),
    "c-inner-at-k": ("_inner(n - 1, k - 1, inner_rows, inner_strips", "_inner(n - 1, k, inner_rows, inner_strips"),
}


@pytest.mark.usefixtures("fresh_pairs")
class TestLevels:
    """verify_involution proves a pair level by level, and falls back to tracing every member when a level fails."""

    @pytest.mark.parametrize("n", range(8))
    def test_levels_match_exhaustive(self, n):
        for k in range(n + 1):
            for r in range(k + 1):
                report = verify_involution(n, k, r)
                assert report.method == "levels"
                exhaustive = involution._verify_exhaustively(n, k, r)
                assert exhaustive.method == "exhaustive"
                assert report.to_json_dict() == exhaustive.to_json_dict(), (n, k, r)

    def test_method_is_not_serialised(self):
        report = verify_involution(4, 2, 1)
        assert "method" not in report.to_json_dict()
        assert report.to_json_dict() == per_type_verify_involution(4, 2, 1).to_json_dict()

    def test_every_level_to_12_holds(self):
        assert all(levels.holds(m, k, r) for m in range(13) for k in range(m + 1) for r in range(k + 1))

    def test_no_member_is_traced(self, monkeypatch):
        traced = []
        monkeypatch.setattr(involution, "_trace_key", lambda *args: traced.append(args))
        monkeypatch.setattr(involution, "_class_keys", lambda *args: traced.append(args))
        assert all(verify_involution(*ext_type).ok for ext_type in ALL_TYPES)
        assert traced == []

    def test_each_level_is_checked_once_when_reached(self, monkeypatch):
        checked = []
        check = levels.check_level
        monkeypatch.setattr(levels, "check_level", lambda *level_type: checked.append(level_type) or check(*level_type))
        assert verify_involution(6, 2, 1).method == "levels"
        reached = len(checked)
        assert len(set(checked)) == reached and {m for m, _, _ in checked} == set(range(7))
        assert verify_involution(6, 3, 1).method == "levels"
        assert len(checked) > reached and len(set(checked)) == len(checked)

    @pytest.mark.parametrize("fault", FAULTS)
    def test_seeded_fault_fails_both_methods(self, monkeypatch, fault):
        monkeypatch.setattr(involution, "_iota", mutant_iota(*FAULTS[fault]))
        assert not all(levels.holds(*ext_type) for ext_type in ALL_TYPES)
        assert not all(involution._verify_exhaustively(*ext_type).ok for ext_type in ALL_TYPES)
        for ext_type in ALL_TYPES:
            report = verify_involution(*ext_type)
            assert report.to_json_dict() == involution._verify_exhaustively(*ext_type).to_json_dict(), ext_type
            # A level check over-approximates, so a pair may fall back and still pass.
            assert report.ok or report.method == "exhaustive"

    def test_weight_change_fails_both_methods(self, monkeypatch):
        # Case a's image is in case a, so trading a domino for two monominoes in R's last
        # cells, and back, keeps iota an involution onto the mirror type; only weights change.
        trade = {(2,): (1, 1), (1, 1): (2,)}
        monkeypatch.setattr(involution, "_iota", mutant_iota(
            "strip_reverse(strip_last(R, r + 1))", "_trade(strip_reverse(strip_last(R, r + 1)))",
            _trade=lambda strip: trade.get(strip, strip),
        ))
        reports = [involution._verify_exhaustively(*ext_type) for ext_type in ALL_TYPES]
        assert {f.split(" on ")[0] for report in reports for f in report.failures} == {"weight changed"}
        assert not all(levels.holds(*ext_type) for ext_type in ALL_TYPES)
        for ext_type, exhaustive in zip(ALL_TYPES, reports):
            assert verify_involution(*ext_type).to_json_dict() == exhaustive.to_json_dict(), ext_type

    def test_a_fault_only_in_subcalls_fails_both_directions(self, monkeypatch):
        # Case c's row is reversed below the top level only, where a trace holds two letters.
        monkeypatch.setattr(involution, "_iota", mutant_iota(
            "row = strip_first(rs, n - k + r)",
            "row = strip_first(rs, n - k + r) if len(trace) < 2 else strip_reverse(strip_first(rs, n - k + r))",
        ))
        # (4, 4, 3) runs cases c and d; (4, 3, 3) runs case b, whose image's level runs case c.
        assert levels.check_level(4, 4, 3) is None
        assert levels.check_level(4, 3, 3) is None
        assert not involution._verify_exhaustively(4, 3, 3).ok
        for ext_type in ALL_TYPES:
            assert verify_involution(*ext_type).to_json_dict() == involution._verify_exhaustively(*ext_type).to_json_dict()

    def test_unreversed_case_a_passes_both_methods(self, monkeypatch):
        # Case a reverses R's last r + 1 cells; leaving them as they are is still an involution.
        monkeypatch.setattr(involution, "_iota", mutant_iota("strip_reverse(strip_last(R, r + 1))", "strip_last(R, r + 1)"))
        for ext_type in ALL_TYPES:
            assert verify_involution(*ext_type).method == "levels"
            assert involution._verify_exhaustively(*ext_type).ok

    def test_levels_run_the_module_iota(self, monkeypatch):
        calls = []
        inner = involution._iota

        def counting(n, k, rows, strips, trace, memo):
            calls.append(n)
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", counting)
        assert levels.holds(4, 2, 1)
        assert set(calls) == {0, 1, 2, 3, 4}

        def refusing(n, k, rows, strips, trace, memo):
            if n == 2:
                raise BrokenDomino("refused")
            return inner(n, k, rows, strips, trace, memo)

        levels.holds.cache_clear()
        monkeypatch.setattr(involution, "_iota", refusing)
        assert not levels.holds(4, 2, 1)

    def test_reading_an_opaque_row_fails_the_level(self, monkeypatch):
        inner = involution._iota

        def peeking(n, k, rows, strips, trace, memo):
            if n >= 3:
                rows[1] == ()  # reads the row above the bottom row
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", peeking)
        assert not levels.holds(3, 1, 0)
        assert levels.holds(2, 1, 0)
        report = verify_involution(3, 1, 0)
        assert report.ok and report.method == "exhaustive"

    def test_lossy_partials_fall_back(self, monkeypatch):
        # Binomial(4, 3) loses its last bottom row, which only the level method reads: its
        # sum misses the symmetry side, so the pair is traced over the block partition's class.
        expected = involution._verify_exhaustively(4, 2, 1).to_json_dict()
        clear_pair_caches()
        build = levels._bottom_table

        def lossy(n, k):
            table = build(n, k)
            return dict(list(table.items())[:-1]) if (n, k) == (4, 3) else table

        monkeypatch.setattr(levels, "_bottom_table", lossy)
        report = verify_involution(4, 2, 1)
        assert report.method == "exhaustive"
        assert not report.failures and report.to_json_dict() == expected

    @pytest.mark.parametrize("falls_back", [False, True], ids=["levels", "fallback"])
    def test_one_symmetry_sides_per_pair(self, monkeypatch, falls_back):
        calls = []
        monkeypatch.setattr(involution, "symmetry_sides", lambda *t: calls.append(t) or symmetry_sides(*t))
        if falls_back:
            # The pair is sized from the same sides and traced against them; the tracing itself is stubbed out.
            monkeypatch.setattr(levels, "proves", lambda *pair: False)
            monkeypatch.setattr(involution, "_traced_pair", lambda *pair: ("traced", pair))
        for n in range(7):
            for k_lo in range(n + 1):
                for r in range(k_lo + 1):
                    k_hi = n - k_lo + r
                    if k_lo < k_hi <= n:
                        involution._checked_pair.cache_clear()
                        calls.clear()
                        reports = involution._checked_pair(n, k_lo, k_hi, r)
                        if falls_back:
                            assert reports == ("traced", (n, k_lo, k_hi, r, *symmetry_sides(n, k_lo, r)))
                        else:
                            assert [report.method for report in reports] == ["levels", "levels"]
                        assert calls == [(n, k_lo, r)]

    def test_the_fallback_reports_reuse_the_pair_sides(self, monkeypatch, fresh_pairs):
        # Computed once, by _checked_pair, which sizes the pair and hands them to the tracing:
        # no class report computes its own, and the mirror's sides are the pair's swapped.
        calls = []

        def recording(*triple):
            calls.append((triple, sys._getframe(1).f_code.co_name))
            return symmetry_sides(*triple)

        monkeypatch.setattr(involution, "symmetry_sides", recording)
        monkeypatch.setattr(levels, "proves", lambda *pair: False)
        report, mirror = verify_involution(6, 2, 1), verify_involution(6, 5, 1)
        assert calls == [((6, 2, 1), "_checked_pair")]
        assert report.method == mirror.method == "exhaustive"
        assert report.ok and mirror.ok
        assert (mirror.lhs, mirror.rhs) == (report.rhs, report.lhs) == symmetry_sides(6, 5, 1)

    @pytest.mark.parametrize("off", [(0, 0), (2, 1), (4, 0), (5, 5), (6, 3)], ids=lambda t: "%d-%d" % t)
    def test_a_wrong_partial_sum_falls_back(self, monkeypatch, off):
        # One Binomial(n, k)'s partial sum is off by 1: the pairs with that class are traced,
        # and every report is what the levels give when no sum is wrong.
        types = [(n, k, r) for n in range(7) for k in range(n + 1) for r in range(k + 1)]
        expected = {t: verify_involution(*t).to_json_dict() for t in types}
        clear_pair_caches()
        weight = levels._class_weight
        monkeypatch.setattr(levels, "_class_weight", lambda n, k: weight(n, k) + ((n, k) == off))
        for n, k, r in types:
            report = verify_involution(n, k, r)
            if off in {(n, k), (n, n - k + r)}:
                assert report.method == "exhaustive", (n, k, r)
            elif n <= off[0]:
                assert report.method == "levels", (n, k, r)
            assert report.to_json_dict() == expected[n, k, r], (n, k, r)

    def test_partial_sums_are_the_lucasnomials(self):
        for n in range(14):
            for k in range(n + 1):
                assert levels._class_weight(n, k) == lucasnomial(n, k), (n, k)

    def test_opaque_parts_refuse_every_read(self):
        part = levels._Opaque("S2", 3)
        for read in (hash, len, iter, bool, reversed, lambda p: p == (), lambda p: () + p, lambda p: p[0]):
            with pytest.raises(levels._Read):
                read(part)
        assert levels._same((part, (1, 2)), (part, (1, 2)))
        assert not levels._same((part,), (levels._Opaque("S2", 3),))
        assert not levels._same(part, (1, 2))


def fake_iota(before=None, call=None, answer=None, after=None):
    """``_iota`` with hooks that rewrite what it reads and hands on.

    Each hook takes the level's (n, k, r) and a value and returns the value
    to use: ``before`` the input (rows, strips), ``call`` the recursive
    call's (n, k, rows, strips), ``answer`` the (rows, strips) that call
    returns, and ``after`` the image.  A missing hook keeps its value.
    """
    def keep(n, k, r, value):
        return value

    before, call, answer, after = (hook or keep for hook in (before, call, answer, after))

    def hooked(n, k, r, n_in, k_in, rows, strips, trace, memo):
        return answer(n, k, r, involution._inner(*call(n, k, r, (n_in, k_in, rows, strips)), trace, memo))

    body = mutant_iota("_inner(", "_hooked(n, k, r, ", occurrences=4, _hooked=hooked)

    def fake(n, k, rows, strips, trace, memo):
        r = len(strips)
        rows, strips = before(n, k, r, (rows, strips))
        return after(n, k, r, body(n, k, rows, strips, trace, memo))

    return fake


def on_low(hook):
    """A hook run only on the side of a mirror pair with the smaller k, the low side."""
    return lambda n, k, r, value: hook(n, value) if 2 * k < n + r else value


def on_high(hook):
    """A hook run only on the side with the larger k, the high side."""
    return lambda n, k, r, value: hook(n, value) if 2 * k > n + r else value


def swap(values: tuple, i: int, j: int) -> tuple:
    """``values`` with entries i and j swapped, when it has them; no entry is read."""
    if len(values) <= max(i, j):
        return values
    out = list(values)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def shift_bottom(rows, by: int):
    """The rows with each run of the bottom row moved ``by`` cells."""
    return (tuple((start + by, tiles) for start, tiles in rows[0]),) + rows[1:]


# The two bottom rows of Binomial(4, 2) that weigh one domino: an NI row
# (rows above from Binomial(3, 2)) and an NL row (from Binomial(3, 1)).
NI_DOMINO, NL_DOMINO = ((1, (2,)),), ((2, (2,)),)


def trade_label(rows):
    """Binomial(4, 2)'s rows with NI_DOMINO and NL_DOMINO traded at the bottom."""
    trade = {NI_DOMINO: NL_DOMINO, NL_DOMINO: NI_DOMINO}
    return (trade.get(rows[0], rows[0]),) + rows[1:] if rows else rows


def call_a_level_lower(n, k, r, call):
    """A recursive call with no strips made on level m - 2: the low side's with
    k one less, the high side's with its k, so the two are still mirrors."""
    n_in, k_in, rows, strips = call
    if not strips and 2 * k < n + r and k_in >= 1:
        return n_in - 1, k_in - 1, rows, strips
    if not strips and 2 * k > n + r and k_in <= n_in - 1:
        return n_in - 1, k_in, rows, strips
    return call


@functools.lru_cache(maxsize=None)
def opaque_copy(name: str, cells: int):
    """A stand-in for the opaque strip ``name``: it looks the same, but is another part."""
    return levels._Opaque(name, cells)


# Each rule of the level check with a fake iota that breaks it, and a level the
# fake fails.  The low side rewrites what it hands on, the high side undoes it,
# so the image's level still rebuilds the input and only the one rule is broken.
LEVEL_RULES = {
    "the recursive call gets the bottom row's k": (fake_iota(call=call_a_level_lower), (5, 2, 0)),
    "the recursive call gets the rows above the bottom row": (fake_iota(
        call=on_low(lambda n, c: (*c[:2], swap(c[2], 0, 1), c[3])),
        answer=on_high(lambda n, res: (swap(res[0], 0, 1), res[1])),
    ), (4, 1, 0)),
    "the recursive call gets strips": (fake_iota(
        call=on_low(lambda n, c: (*c[:3], swap(c[3], 1, 2))),
        answer=on_high(lambda n, res: (res[0], swap(res[1], 1, 2))),
    ), (6, 4, 3)),
    "the image's bottom row is legal": (fake_iota(
        after=on_low(lambda n, out: (shift_bottom(out[0], n), out[1]) if out[0] else out),
        before=on_high(lambda n, x: (shift_bottom(x[0], -n), x[1]) if x[0] and x[0][0] and x[0][0][0][0] > n else x),
    ), (4, 1, 0)),
    # The traded rows weigh the same, but lead to different k: the rows above fit only one.
    "the image's bottom row leaves the inner image's k": (fake_iota(
        before=lambda n, k, r, x: (trade_label(x[0]), x[1]) if (n, k) == (4, 2) else x,
        after=lambda n, k, r, out: (trade_label(out[0]), out[1]) if (n, n - k + r) == (4, 2) else out,
    ), (4, 3, 1)),
    "the image's rows above its bottom row are the inner image's": (fake_iota(
        after=on_low(lambda n, out: (out[0][:1] + swap(out[0][1:], 0, 1), out[1])),
        before=on_high(lambda n, x: (x[0][:1] + swap(x[0][1:], 0, 1), x[1])),
    ), (5, 2, 0)),
    "the image gets strips": (fake_iota(
        after=on_low(lambda n, out: (out[0], swap(out[1], 1, 2))),
        before=on_high(lambda n, x: (x[0], swap(x[1], 1, 2))),
    ), (6, 4, 3)),
    # It hands on a look-alike of an opaque strip, and takes the strip back from it.
    "every opaque strip is passed on once": (fake_iota(
        after=on_low(lambda n, out: (out[0], tuple(
            opaque_copy(s.name, s.cells) if type(s) is levels._Opaque else s for s in out[1]
        ))),
        before=on_high(lambda n, x: (x[0], tuple(
            levels._opaque(s.name, s.cells) if type(s) is levels._Opaque else s for s in x[1]
        ))),
    ), (6, 4, 3)),
}


@pytest.mark.usefixtures("fresh_pairs")
class TestLevelRules:
    """Each rule of the level check fails a fake iota that breaks only it, and the pair falls back."""

    @pytest.mark.parametrize("rule", LEVEL_RULES)
    def test_rule_fails_its_fake(self, monkeypatch, rule):
        fake, level_type = LEVEL_RULES[rule]
        monkeypatch.setattr(involution, "_iota", fake)
        refused = []
        require = levels._require

        def recording(ok, name):
            if not ok:
                refused.append(name)
            require(ok, name)

        monkeypatch.setattr(levels, "_require", recording)
        assert levels.check_level(*level_type) is None
        assert refused == [rule]
        report = verify_involution(*level_type)
        assert report.method == "exhaustive"
        assert report.to_json_dict() == involution._verify_exhaustively(*level_type).to_json_dict()

    @pytest.mark.parametrize("failing", [(4, 2, 1), (4, 3, 1)], ids=["low", "high"])
    def test_pair_needs_both_levels(self, monkeypatch, failing):
        # iota fails only where the level check runs the failing type itself, so
        # its mirror's level, which replays it on images, still holds.
        inner = involution._iota

        def failing_alone(n, k, rows, strips, trace, memo):
            if (n, k, len(strips)) == failing and type(memo) is levels._Answer:
                raise BrokenDomino("refused")
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", failing_alone)
        mirror = (4, 5 - failing[1], 1)
        assert not levels.holds(*failing) and levels.holds(*mirror)
        for ext_type in (failing, mirror):
            report = verify_involution(*ext_type)
            assert report.ok and report.method == "exhaustive"


class TestTracerSeesTheFallback:
    """bench/tracing.py counts the block partitions the exhaustive check reads, and none on the level path."""

    def test_partitions_are_traced_only_in_the_fallback(self):
        root = Path(__file__).resolve().parents[1]
        script = (
            "import json, sys\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'bench')!r}]\n"
            "import tracing\n"
            "from lucaskit import involution\n"
            "tracer = tracing.Tracer()\n"
            "tracer.install()\n"
            "for n in range(7):\n"
            "    for k in range(n + 1):\n"
            "        for r in range(k + 1):\n"
            "            assert involution.verify_involution(n, k, r).method == 'levels'\n"
            "levels = tracer.metrics(1.0)\n"
            "assert involution._verify_exhaustively(5, 2, 1).ok\n"
            "print(json.dumps([levels, tracer.metrics(1.0)]))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        by_levels, with_fallback = json.loads(done.stdout)
        for name in ("shapes_tilings.enumerate_partials.calls", "shapes_tilings.block_partition.calls"):
            assert by_levels[name] == 0, name
            assert with_fallback[name] > 0, name


def pair_members(n: int, k: int, r: int) -> int:
    """The members of type (n, k, r) and of its mirror, counted once when the two are one type."""
    lhs, rhs = symmetry_sides(n, k, r)
    return lhs.evaluate(1, 1) + (rhs.evaluate(1, 1) if n - k + r != k else 0)


# Each n = 9 mirror pair, as its type with the smaller k, whose two classes hold at most 20,000 members.
SMALL_PAIRS_AT_9 = [(9, k, r) for k in range(10) for r in range(k + 1) if k <= 9 - k + r and pair_members(9, k, r) <= 20_000]


@pytest.mark.usefixtures("fresh_pairs")
class TestReach:
    """The level check reaches n = MAX_LEVEL_N, past the exhaustive check; a failing pair is traced only within MAX_TRACED_MEMBERS."""

    def test_level_caches_hold_exactly_the_reach(self, monkeypatch):
        reach = levels.MAX_LEVEL_N
        pairs = [(m, k) for m in range(reach + 1) for k in range(m + 1)]
        types = [(m, k, r) for m, k in pairs for r in range(k + 1)]
        # Empty bottom-row tables and levels that hold with no call fill each cache key by key.
        monkeypatch.setattr(levels, "_row_groups", lambda *args: ())
        monkeypatch.setattr(levels, "check_level", lambda *level_type: frozenset())
        for cache, keys in ((levels._bottom_table, pairs), (levels._class_weight, pairs), (levels.holds, types)):
            assert cache.cache_info().maxsize == len(keys)
            for _ in range(2):
                for key in keys:
                    cache(*key)
            info = cache.cache_info()
            assert (info.misses, info.hits, info.currsize) == (len(keys), len(keys), len(keys)), cache

    def test_sweep_to_9_proves_every_pair_by_levels(self, capsys):
        assert cli.main(["verify", "involution", "--max-n", "9"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 220
        assert involution._verify_pair.cache_info().currsize == 0
        for n in range(10):
            for k in range(n + 1):
                for r in range(k + 1):
                    assert verify_involution(n, k, r).method == "levels", (n, k, r)

    @pytest.mark.parametrize("ext_type", SMALL_PAIRS_AT_9, ids=lambda t: "%d-%d-%d" % t)
    def test_levels_match_exhaustive_at_9(self, ext_type):
        n, k, r = ext_type
        for t in (ext_type, (n, n - k + r, r)):
            report = verify_involution(*t)
            assert report.method == "levels"
            assert report.to_json_dict() == involution._verify_exhaustively(*t).to_json_dict(), t

    def test_a_failing_pair_is_traced_only_within_the_bound(self, capsys, monkeypatch):
        expected = {t: verify_involution(*t).to_json_dict() for t in ((9, 1, 0), (9, 8, 0))}
        clear_pair_caches()
        inner = involution._iota

        def peeking(n, k, rows, strips, trace, memo):
            if n == 9:
                rows[1] == ()  # reads the row above the bottom row: opaque in a level, a tuple in a member
            return inner(n, k, rows, strips, trace, memo)

        monkeypatch.setattr(involution, "_iota", peeking)
        assert not levels.holds(9, 1, 0) and not levels.holds(9, 8, 0)
        # (9, 1, 0) and its mirror (9, 8, 0) have F_9 = 34 members each.
        assert pair_members(9, 1, 0) == 68
        listed = []
        class_keys, partials = involution._class_keys, shapes_tilings.enumerate_partials
        monkeypatch.setattr(involution, "_class_keys", lambda *args: listed.append(args))
        monkeypatch.setattr(shapes_tilings, "enumerate_partials", lambda *args: listed.append(args))
        monkeypatch.setattr(involution, "MAX_TRACED_MEMBERS", 67)
        message = "68 extended tilings in (9,1,0) and its mirror; the exhaustive check traces at most 67"
        for n, k, r in expected:
            assert cli.main(["verify", "involution", "--n", str(n), "--k", str(k), "--r", str(r)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert listed == []
        monkeypatch.setattr(involution, "_class_keys", class_keys)
        monkeypatch.setattr(shapes_tilings, "enumerate_partials", partials)
        monkeypatch.setattr(involution, "MAX_TRACED_MEMBERS", 68)
        for ext_type, report in expected.items():
            fallback = verify_involution(*ext_type)
            assert fallback.method == "exhaustive" and fallback.to_json_dict() == report, ext_type

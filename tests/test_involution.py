"""Strips, extended tilings and the symmetry involution."""

import dataclasses
from collections import Counter

import oracles
import pytest
from oracles import per_type_verify_involution

from lucaskit import involution, shapes_tilings
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
from lucaskit.shapes_tilings import (
    Binomial,
    MalformedDocument,
    enumerate_partials,
    partial_from_fixed,
    row_tilings,
    tile_counts,
)


@pytest.fixture
def fresh_pairs():
    """Empty verify_involution's pair and class caches around a test, so nothing made under a patch outlives it."""
    involution._verify_pair.cache_clear()
    involution._class_partials.cache_clear()
    yield
    involution._verify_pair.cache_clear()
    involution._class_partials.cache_clear()


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

    @REFUSED_TYPES
    def test_enumerate_extended_refuses_at_call_time(self, ext_type):
        with pytest.raises(ValueError, match=r"^need 0 <= r <= k <= n$"):
            enumerate_extended(*ext_type)

    def test_iota_runs_once_per_member(self, fresh_pairs, monkeypatch):
        pair = Counter(key_of(ext) for ext in [*enumerate_extended(5, 2, 1), *enumerate_extended(5, 4, 1)])
        own_mirror = Counter(key_of(ext) for ext in enumerate_extended(4, 2, 0))
        top, partitioned, rebuilt = [], [], []
        inner = involution._iota

        def counting(n, k, rows, strips, trace, memo):
            # Every level appends its case letter before it recurses, so only a top-level call sees no trace.
            if not trace:
                top.append((rows, strips))
            return inner(n, k, rows, strips, trace, memo)

        # enumerate_extended filled the class cache; the verifier must build its classes under the patches.
        involution._class_partials.cache_clear()
        monkeypatch.setattr(involution, "_iota", counting)
        refuse_partitions(monkeypatch, partitioned)
        monkeypatch.setattr(involution, "partial_from_fixed", lambda *args: rebuilt.append(args))
        assert verify_involution(5, 2, 1).ok
        assert verify_involution(5, 4, 1).ok
        assert Counter(top) == pair
        top.clear()
        assert verify_involution(4, 2, 0).ok
        assert Counter(top) == own_mirror
        assert partitioned == []
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
        assert verify_involution(6, 4, 3).ok
        assert verify_involution(6, 5, 3).ok
        assert subcalls and set(subcalls.values()) == {1}
        total = sum(subcalls.values())
        # A memo that outlived the pair would leave the second verification less to run.
        involution._verify_pair.cache_clear()
        subcalls.clear()
        assert verify_involution(6, 5, 3).ok
        assert set(subcalls.values()) == {1}
        assert sum(subcalls.values()) == total


class TestClassPartials:
    """Every r of one Binomial(n, k) reads its partials, built by the row recursion, from one bounded cache."""

    def test_no_binomial_is_partitioned(self, fresh_pairs, monkeypatch):
        partitioned = []
        refuse_partitions(monkeypatch, partitioned)
        for n, k, r in ORACLE_TYPES:
            if n <= 6:
                assert verify_involution(n, k, r).ok
        assert partitioned == []
        # A name imported into involution would go round the patches.
        assert not {"enumerate_partials", "block_partition"} & vars(involution).keys()
        # Each of the 28 Binomial(n, k) with n <= 6 was built once, for every r.
        assert involution._class_partials.cache_info().misses == 28

    @pytest.mark.parametrize("n", range(8))
    def test_cached_partials_are_enumerate_partials(self, n):
        for k in range(n + 1):
            expected = [(p.fixed, tile_counts(p.fixed_tiles())) for p in enumerate_partials(Binomial(n, k))]
            assert list(involution._class_partials(n, k)) == expected

    @pytest.mark.parametrize("n", range(10))
    def test_row_recursion_builds_every_partial(self, n):
        for k in range(n + 1):
            expected = {(p.fixed, tile_counts(p.fixed_tiles())) for p in enumerate_partials(Binomial(n, k))}
            built = involution._class_partials(n, k)
            assert len(set(built)) == len(built)
            assert set(built) == expected, (n, k)

    @pytest.mark.parametrize("cache", ["_class_partials", "_classify_bottom", "strip_first", "_strip_dominoes"])
    def test_cache_is_bounded(self, cache):
        assert getattr(involution, cache).cache_info().maxsize is not None

    def test_strip_dominoes_count_each_choice(self):
        for k in range(9):
            for r in range(k + 1):
                expected = tuple(tile_counts(strips)[1] for strips in involution._strip_choices(k, r))
                assert involution._strip_dominoes(k, r) == expected, (k, r)

    def test_strips_counted_once_per_type(self, monkeypatch):
        calls = []
        monkeypatch.setattr(involution, "tile_counts", lambda rows: calls.append(rows) or tile_counts(rows))
        involution._strip_dominoes.cache_clear()
        for n in range(7):
            for k in range(n + 1):
                for r in range(k + 1):
                    list(involution._class_keys(n, k, r))
        # One count per tiling of each strip length k - r, for each (k, r) with k <= 6.
        assert len(calls) == sum(len(row_tilings(k - r)) for k in range(7) for r in range(1, k + 1))
        involution._strip_dominoes.cache_clear()

    @pytest.mark.parametrize("ext_type", ORACLE_TYPES, ids=lambda t: "%d-%d-%d" % t)
    def test_class_keys_follow_enumerate_extended(self, ext_type):
        members = [(key_of(ext), ext.tile_counts()) for ext in enumerate_extended(*ext_type)]
        assert list(involution._class_keys(*ext_type)) == members


@pytest.mark.usefixtures("fresh_pairs")
class TestVerifyPairCatchesFaults:
    """A broken iota still fails the pair path's checks, with the oracle's report."""

    def check(self, ext_type, *expected):
        report = verify_involution(*ext_type)
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
        self.check((4, 2, 1), "iota does not map onto", "mirror class weight")
        self.check((4, 3, 1), "iota does not map onto", "class weight")

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
    involution._verify_pair.cache_clear()
    involution._class_partials.cache_clear()
    for n in range(7):
        for k in range(n + 1):
            for r in range(k + 1):
                assert verify_involution(n, k, r).ok
    for cache in (involution._classify_bottom, involution.strip_first):
        assert cache.cache_info().currsize > 0
    involution._verify_pair.cache_clear()
    involution._class_partials.cache_clear()


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

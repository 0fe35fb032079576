"""Crossing pairs, the counting argument, and the fooling-pair construction.

The joint-pattern example is fully hand-checked: x = 0011 against
x' = 0101 realizes each of the four patterns exactly once, at positions
1, 2, 3, 4 respectively.
"""

import collections
import dataclasses
import hashlib
import itertools
import math

import pytest

from mpjlab.adversary import (
    ATTACK_BUDGET,
    BoundRefusedError,
    CrossingPair,
    CrossingSearchError,
    build_fooling_inputs,
    find_crossed_cell,
    half_weight_strings,
    iab_sets,
    is_crossing,
    max_message_bits,
    verify_fooling,
    worst_case_evaluations,
)
from mpjlab.core import (
    BitVector,
    LayerFunction,
    MpjInstance,
    Variant,
    instance_to_dict,
    sample_instances,
)
from mpjlab.families import (
    collapsing_family,
    constant_protocol,
    hashing_protocol,
    parity_protocol,
    truncating_protocol,
)
from mpjlab.jump import index_protocol
from mpjlab.sim import Message, ProtocolContractError, ProtocolHandle, ViewKind, run


def bits(text):
    return BitVector.from01(text)


class TestJointPatterns:
    def test_frozen_example(self):
        sets = iab_sets(bits("0011"), bits("0101"))
        assert sets == {(0, 0): (1,), (0, 1): (2,), (1, 0): (3,), (1, 1): (4,)}
        assert is_crossing(bits("0011"), bits("0101"))

    def test_complement_never_crosses(self):
        assert not is_crossing(bits("0011"), bits("1100"))
        sets = iab_sets(bits("0011"), bits("1100"))
        assert sets[(0, 0)] == () and sets[(1, 1)] == ()

    def test_equal_layers_never_cross(self):
        assert not is_crossing(bits("0101"), bits("0101"))

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            iab_sets(bits("01"), bits("011"))

    def test_pair_accessors(self):
        pair = CrossingPair(bits("0011"), bits("0101"))
        assert pair.crossing
        assert pair.positions(0, 1) == (2,)
        assert not CrossingPair(bits("0011"), bits("1100")).crossing


class TestHalfWeightStrings:
    def test_frozen_order(self):
        assert [v.to01() for v in half_weight_strings(4)] == [
            "0011", "0101", "0110", "1001", "1010", "1100",
        ]

    def test_counts(self):
        for n in (2, 4, 6, 8):
            assert len(half_weight_strings(n)) == math.comb(n, n // 2)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            half_weight_strings(5)

    def test_matches_product_and_filter_reference(self):
        for n in range(2, 13, 2):
            reference = tuple(
                BitVector(n, b)
                for b in itertools.product((0, 1), repeat=n)
                if sum(b) == n // 2
            )
            assert half_weight_strings(n) == reference

    def test_distinct_non_complementary_pairs_always_cross(self):
        for n in (4, 6):
            for va, vb in itertools.combinations(half_weight_strings(n), 2):
                if vb == va.complement():
                    assert not is_crossing(va, vb)
                else:
                    assert is_crossing(va, vb)


class TestCountingBound:
    def test_frozen_limits(self):
        assert max_message_bits(4) == 1.0
        assert max_message_bits(8) == 4.5
        assert max_message_bits(16) == 12.0

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            max_message_bits(7)
        with pytest.raises(ValueError):
            max_message_bits(0)

    def test_central_binomial_lower_bound(self):
        for n in range(2, 65, 2):
            assert math.comb(n, n // 2) > 2**n / (2 * math.sqrt(n))

    def test_worst_case_matches_the_formula(self):
        for n in range(2, 81, 2):
            ts = range(0, math.floor(max_message_bits(n)) + 1)
            for bounds in [[t] for t in ts] + [list(ts), [0, *ts[-1:], 1]]:
                assert worst_case_evaluations(n, bounds) == sum(
                    min(math.comb(n, n // 2), 2 ** (t + 2) - 1, 2**64) for t in bounds
                )

    def test_worst_case_never_builds_a_huge_central_binomial(self):
        # math.comb(10**6, 5 * 10**5) alone takes seconds
        assert worst_case_evaluations(10**6, [4, 0, 100]) == 63 + 3 + 2**64
        assert worst_case_evaluations(10**6, [10**6 - 12]) == 2**64

    def test_budget_covers_every_width_up_to_sixteen(self):
        assert ATTACK_BUDGET == 1023 * math.comb(16, 8)
        for n in range(2, 17, 2):
            t = math.floor(max_message_bits(n))
            assert worst_case_evaluations(n, [max(t, 0)] * 1023) <= ATTACK_BUDGET


class TestFindCrossedCell:
    def test_constant_message_single_cell(self):
        msg, pair = find_crossed_cell(lambda y: Message(), 6, 2.0)
        assert msg == Message()
        assert (pair.x.to01(), pair.xp.to01()) == ("000111", "001011")

    def test_first_crossed_cell_in_stream_order(self):
        # layers opening with 1 all share the empty message, but the stream
        # reaches the crossing pair 000111, 001011 in cell '0' first
        def message_fn(y):
            return Message() if y(1) else Message((y(2),))

        msg, pair = find_crossed_cell(message_fn, 6, 2.0)
        assert msg == Message((0,))
        assert (pair.x.to01(), pair.xp.to01()) == ("000111", "001011")

    def test_refuses_oversized_bound(self):
        with pytest.raises(BoundRefusedError, match="counting limit"):
            find_crossed_cell(lambda y: Message(), 8, 5.0)

    def test_refuses_messages_over_the_bound(self):
        with pytest.raises(BoundRefusedError, match="exceeds the declared bound"):
            find_crossed_cell(lambda y: Message(y.bits), 8, 4.5)
        # one bit over is over
        with pytest.raises(BoundRefusedError, match="4 bits exceeds the declared bound 3"):
            find_crossed_cell(lambda y: Message(y.bits[:4]), 8, 3)

    def test_every_fixed_length_function_is_caught_at_the_smallest_scale(self):
        # exhaustively: any one-bit message over the six half-weight layers
        # of [4] leaves some class with three members, hence a crossing pair
        halves = half_weight_strings(4)
        for table in itertools.product((0, 1), repeat=6):
            assignment = dict(zip(halves, table))
            msg, pair = find_crossed_cell(
                lambda y: Message((assignment[y],)), 4, 1.0
            )
            assert pair.crossing

    def test_packed_variable_length_function_evades_at_the_boundary(self):
        # three classes keyed '', '0', '1', each one complementary pair:
        # legal under the 1-bit bound, yet crossing-free everywhere
        keys = {
            "0011": "", "1100": "",
            "0101": "0", "1010": "0",
            "0110": "1", "1001": "1",
        }
        with pytest.raises(CrossingSearchError, match="crossing-free"):
            find_crossed_cell(lambda y: Message.from01(keys[y.to01()]), 4, 1.0)


def hashed_message_fn(n, seed, t, variable):
    """A seeded message function of t bits (0..t bits when variable)."""

    def message_fn(y):
        digest = hashlib.sha256(f"{n}|{seed}|{y.to01()}".encode()).digest()
        width = digest[-1] % (t + 1) if variable else t
        return Message(tuple((digest[b // 8] >> (b % 8)) & 1 for b in range(width)))

    return message_fn


class TestStreamingSearch:
    """The search stops within the pigeonhole bound on distinct cells."""

    def search(self, n, seed, t, variable):
        message_fn = hashed_message_fn(n, seed, t, variable)
        calls = 0

        def counted(y):
            nonlocal calls
            calls += 1
            return message_fn(y)

        msg, pair = find_crossed_cell(counted, n, t)
        assert pair.crossing
        assert message_fn(pair.x) == msg == message_fn(pair.xp)
        return calls

    @pytest.mark.parametrize("variable", (False, True))
    @pytest.mark.parametrize("n", (6, 8))
    def test_evaluations_within_the_bound(self, n, variable):
        for t in range(1, min(3, math.floor(max_message_bits(n))) + 1):
            # 2^t cells when every message has t bits, 2^(t+1) - 1 with up
            # to t bits; a cell crosses before it takes a third layer
            cells = 2 ** (t + 1) - 1 if variable else 2**t
            for seed in range(25):
                assert self.search(n, seed, t, variable) <= 2 * cells + 1

    @pytest.mark.parametrize("variable", (False, True))
    @pytest.mark.parametrize("n", (6, 8))
    def test_evaluations_within_the_class_count_plus_one(self, n, variable):
        # the first C(n, n/2)/2 layers all have x_1 = 0, so any two cross:
        # with fewer classes than that, a cell stops at its second member
        for t in range(1, min(3, math.floor(max_message_bits(n))) + 1):
            cells = 2 ** (t + 1) - 1 if variable else 2**t
            assert cells < math.comb(n, n // 2) // 2
            for seed in range(25):
                assert self.search(n, seed, t, variable) <= cells + 1

    def test_silent_player_stops_at_the_second_layer(self):
        assert self.search(16, 0, 0, variable=False) == 2


class TestBuildFoolingInputs:
    def assert_fooled(self, protocol):
        pair = build_fooling_inputs(protocol)
        inst0, inst1 = pair.inst0, pair.inst1
        assert inst0.middles == inst1.middles and inst0.i == inst1.i
        assert inst0.x != inst1.x
        report = verify_fooling(protocol, inst0, inst1)
        assert report.fooled, report
        assert report.expected == (0, 1)
        # the construction predicted the exact forced prefix
        assert run(protocol, inst0).messages[:-1] == pair.prefix_messages
        assert run(protocol, inst1).messages[:-1] == pair.prefix_messages
        return report

    def test_truncating_three_players(self):
        self.assert_fooled(truncating_protocol(8, 3, 4))

    def test_truncating_four_players(self):
        self.assert_fooled(truncating_protocol(8, 4, 3))

    def test_parity_and_hash_targets(self):
        self.assert_fooled(parity_protocol(8, 3, 4, seed=3))
        self.assert_fooled(hashing_protocol(8, 3, 4, seed=3))

    def test_silent_protocol(self):
        self.assert_fooled(constant_protocol(8, 4))

    def test_two_player_protocol(self):
        self.assert_fooled(truncating_protocol(8, 2, 4))

    def test_refuses_full_views(self):
        with pytest.raises(BoundRefusedError, match="collapsing"):
            build_fooling_inputs(index_protocol(8))

    def test_refuses_undeclared_bounds(self):
        silent = lambda view: Message()
        naked = ProtocolHandle(
            "no-bounds", 3, Variant.MPJ, ViewKind.COLLAPSING,
            (silent, silent, lambda view: Message((0,))), n=8,
        )
        with pytest.raises(BoundRefusedError, match="declared"):
            build_fooling_inputs(naked)

    def test_refuses_width_free_protocols(self):
        silent = lambda view: Message()
        free = ProtocolHandle(
            "width-free", 3, Variant.MPJ, ViewKind.COLLAPSING,
            (silent, silent, lambda view: Message((0,))),
            declared_max_bits=(0, 0, 1),
        )
        with pytest.raises(BoundRefusedError, match="width"):
            build_fooling_inputs(free)

    def test_refuses_chatty_declarations(self):
        with pytest.raises(BoundRefusedError, match="counting limit"):
            build_fooling_inputs(truncating_protocol(8, 3, 5))

    def test_refuses_odd_width(self):
        with pytest.raises(BoundRefusedError, match="even"):
            build_fooling_inputs(truncating_protocol(7, 3, 1))

    def test_refuses_over_budget_before_any_evaluation(self):
        def called(view):
            raise AssertionError("a player was evaluated")

        proto = dataclasses.replace(truncating_protocol(32, 4, 24), players=(called,) * 4)
        with pytest.raises(BoundRefusedError, match="201,326,589 .* budget of 13,166,010"):
            build_fooling_inputs(proto)
        # a count past 2^64 is not formatted in full
        wide = truncating_protocol(20000, 3, math.floor(max_message_bits(20000)))
        with pytest.raises(BoundRefusedError, match=r"take 2\^64 or more message"):
            build_fooling_inputs(dataclasses.replace(wide, players=(called,) * 3))

    @pytest.mark.parametrize("k", (3, 4, 6))
    @pytest.mark.parametrize("n", (8, 10, 12, 16))
    def test_evaluations_within_the_computed_bound(self, n, k):
        for proto in collapsing_family(n, k, 13, seed=n + k):
            calls = 0

            def counted(fn):
                def player(view):
                    nonlocal calls
                    calls += 1
                    return fn(view)

                return player

            build_fooling_inputs(
                dataclasses.replace(proto, players=tuple(map(counted, proto.players)))
            )
            assert 0 < calls <= worst_case_evaluations(n, proto.declared_max_bits[: k - 1])

    @pytest.mark.parametrize("k", (3, 4, 6))
    @pytest.mark.parametrize("n", (8, 10, 12, 16))
    def test_each_level_within_two_to_the_t_plus_one(self, n, k):
        # every family member sends exactly t bits, so a level sees at most
        # 2^t classes and stops within 2^t + 1 evaluations
        for proto in collapsing_family(n, k, 13, seed=n + k):
            calls = collections.Counter()

            def counted(fn):
                def player(view):
                    calls[view.j] += 1
                    return fn(view)

                return player

            build_fooling_inputs(
                dataclasses.replace(proto, players=tuple(map(counted, proto.players)))
            )
            assert sorted(calls) == list(range(1, k))
            for j, count in calls.items():
                assert count <= 2 ** proto.declared_max_bits[j - 1] + 1, (proto.name, j)

    @pytest.mark.parametrize("returned", (1, "10", (1, 0)), ids=("int", "str", "tuple"))
    def test_non_message_in_the_cell_search_is_a_contract_error(self, returned):
        proto = truncating_protocol(8, 3, 2)
        players = (lambda view: returned,) + proto.players[1:]
        with pytest.raises(
            ProtocolContractError,
            match=f"^player 1 returned {type(returned).__name__}, not a Message$",
        ):
            build_fooling_inputs(dataclasses.replace(proto, players=players))


class TestVerifyFooling:
    def test_degenerate_pair_is_flagged(self):
        proto = truncating_protocol(8, 3, 4)
        inst = MpjInstance(8, 3, 1, (LayerFunction.identity(8),), bits("00110101"))
        report = verify_fooling(proto, inst, inst)
        assert report.degenerate and not report.fooled
        assert report.prefix_equal

    def test_mismatched_pair_is_rejected(self):
        proto = truncating_protocol(8, 3, 4)
        a = MpjInstance(8, 3, 1, (LayerFunction.identity(8),), bits("00110101"))
        b = MpjInstance(8, 3, 2, (LayerFunction.identity(8),), bits("00110110"))
        with pytest.raises(ValueError, match="differ only in the final layer"):
            verify_fooling(proto, a, b)

    def test_strong_protocol_is_not_fooled(self):
        # a collapsing protocol that ships the whole suffix cannot share a
        # prefix on layers with different compositions
        def ship(view):
            return Message(view.suffix.bits)

        def answer(view):
            return Message((view.messages[0].bits[view.start - 1],))

        strong = ProtocolHandle(
            "ship-all", 3, Variant.MPJ, ViewKind.COLLAPSING,
            (ship, lambda v: Message(), answer), n=4,
        )
        a = MpjInstance(4, 3, 1, (LayerFunction.identity(4),), bits("0011"))
        b = MpjInstance(4, 3, 1, (LayerFunction.identity(4),), bits("0101"))
        report = verify_fooling(strong, a, b)
        assert not report.prefix_equal and not report.fooled
        assert report.errors == 0


# each family's targets at one (n, k, seed): every width t the builder admits
PINNED_TARGETS = {
    "constant": lambda n, k, seed: [constant_protocol(n, k)],
    "truncate": lambda n, k, seed: [truncating_protocol(n, k, t) for t in range(n + 1)],
    "parity": lambda n, k, seed: [parity_protocol(n, k, t, seed=seed) for t in range(n + 1)],
    "hash": lambda n, k, seed: [hashing_protocol(n, k, t, seed=seed) for t in range(n + 1)],
    "collapsing_family": lambda n, k, seed: collapsing_family(8, k, 20, seed=3) if n == 8 else [],
}

# sha256 per family over n in {2, 4, 8}, k in {2, 3, 4} and seeds {0, 1, 37}:
# each target's name, every message and the output of 10 runs on instances
# sampled with the seed, then its fooling pair, prefix messages and report,
# or the refusal text; recorded before each family became one
# message(j, view) function
PINNED_MESSAGES = {
    "constant": "450ea65a7fbc0271adced65dc16301ee8ca43684f300a32c4636da7372ee9817",
    "truncate": "944d37412577317298bf0cbd108fcdc516962aed7bb4ae210803c7b600e656f7",
    "parity": "606aea0986c2bf5620a46990a81d6ef64cea963a97c129d34fce4908e12883da",
    "hash": "1c8eb904747a13f7147735ecf8b167b95fba157f1316ca28433ba93ce89bb136",
    "collapsing_family": "df3fb0611b8d9a0fd92c40cda7dadfbfc86c42190ea0ae76d3d369658bba9f1a",
}


def pinned_digest(family):
    digest = hashlib.sha256()
    for n, k, seed in itertools.product((2, 4, 8), (2, 3, 4), (0, 1, 37)):
        for proto in PINNED_TARGETS[family](n, k, seed):
            digest.update(f"{proto.name} n={n} k={k} seed={seed}\n".encode())
            for inst in sample_instances(n, k, Variant.MPJ, count=10, seed=seed):
                t = run(proto, inst)
                digest.update(("|".join(m.to01() for m in t.messages) + f"|{t.output}\n").encode())
            try:
                pair = build_fooling_inputs(proto)
            except BoundRefusedError as exc:
                digest.update(f"refused: {exc}\n".encode())
                continue
            report = verify_fooling(proto, pair.inst0, pair.inst1)
            digest.update(repr((
                instance_to_dict(pair.inst0),
                instance_to_dict(pair.inst1),
                [m.to01() for m in pair.prefix_messages],
                dataclasses.astuple(report),
                report.fooled,
            )).encode() + b"\n")
    return digest.hexdigest()


class TestFamilies:
    def test_pinned_messages(self):
        assert {family: pinned_digest(family) for family in PINNED_MESSAGES} == PINNED_MESSAGES

    def test_seeds_default_to_zero(self):
        inst = MpjInstance(8, 3, 5, (LayerFunction.identity(8),), bits("00110101"))

        def messages(*protocols):
            return [run(protocol, inst).messages for protocol in protocols]

        parity = messages(parity_protocol(8, 3, 8), parity_protocol(8, 3, 8, seed=0))
        assert parity[0] == parity[1] != messages(parity_protocol(8, 3, 8, seed=1))[0]
        family = messages(*collapsing_family(8, 3, 6))
        assert family == messages(*collapsing_family(8, 3, 6, seed=0))
        assert family != messages(*collapsing_family(8, 3, 6, seed=1))

    def test_names_and_declared_bounds(self):
        assert truncating_protocol(8, 3, 4).name == "truncate4"
        assert parity_protocol(8, 3, 2).name == "parity2"
        assert hashing_protocol(8, 3, 2).name == "hash2"
        assert constant_protocol(8, 3).name == "constant"
        assert truncating_protocol(8, 3, 4).declared_max_bits == (4, 4, 1)
        assert constant_protocol(8, 4).declared_max_bits == (0, 0, 0, 1)

    def test_messages_have_fixed_length(self):
        inst = MpjInstance(8, 3, 5, (LayerFunction.identity(8),), bits("00110101"))
        for proto, width in (
            (truncating_protocol(8, 3, 3), 3),
            (parity_protocol(8, 3, 3), 3),
            (hashing_protocol(8, 3, 3), 3),
            (constant_protocol(8, 3), 0),
        ):
            t = run(proto, inst)
            assert t.per_player_bits == (width, width, 1)

    def test_equal_views_give_equal_hash_messages(self):
        # (True, 0) * 8 equals (1, 0) * 8, so the hash must not tell them apart
        proto = hashing_protocol(16, 3, 8)
        insts = [
            MpjInstance(16, 3, 5, (LayerFunction.identity(16),), BitVector(16, x * 8))
            for x in ((1, 0), (True, 0))
        ]
        assert insts[0] == insts[1]
        assert run(proto, insts[0]).messages == run(proto, insts[1]).messages

    def test_all_families_answer_deterministically(self):
        inst = MpjInstance(8, 3, 5, (LayerFunction.identity(8),), bits("00110101"))
        for proto in collapsing_family(8, 3, 10, seed=4):
            assert run(proto, inst).messages == run(proto, inst).messages

    def test_family_layout(self):
        family = collapsing_family(8, 3, 8, seed=0)
        assert [p.name for p in family] == [
            "constant",
            "truncate1", "parity1", "hash1",
            "truncate2", "parity2", "hash2",
            "truncate3",
        ]
        assert len(collapsing_family(8, 3, 50)) == 50

    def test_width_limit(self):
        for n, limit in ((8, 4), (10, 6), (16, 12)):
            family = collapsing_family(n, 3, 1 + 3 * limit)
            assert [p.declared_max_bits[0] for p in family[1::3]] == list(range(1, limit + 1))
            assert collapsing_family(n, 3, 4 + 3 * limit)[-1].name == "hash1"

    def test_family_errors(self):
        with pytest.raises(ValueError, match="at least 2 players"):
            constant_protocol(8, 1)
        with pytest.raises(ValueError):
            collapsing_family(8, 3, 0)
        with pytest.raises(ValueError, match="no room"):
            collapsing_family(2, 3, 3)

    def test_truncation_width_validation(self):
        with pytest.raises(ValueError):
            truncating_protocol(8, 3, 9)
        with pytest.raises(ValueError):
            parity_protocol(8, 3, -1)

    def test_parity_width_validation(self):
        # checked before any mask is drawn, so a huge width fails at once
        with pytest.raises(ValueError, match=r"outside \[0, 8\]"):
            parity_protocol(8, 3, 50_000_000)
        assert parity_protocol(8, 3, 8).declared_max_bits == (8, 8, 1)

    def test_hash_width_validation(self):
        with pytest.raises(ValueError, match=r"outside \[0, 8\]"):
            hashing_protocol(8, 3, 9)
        with pytest.raises(ValueError, match=r"outside \[0, 256\]"):
            hashing_protocol(300, 3, 257)  # a SHA-256 digest has 256 bits
        with pytest.raises(ValueError):
            hashing_protocol(8, 3, -1)

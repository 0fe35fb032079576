"""Interval buckets, width plans, and the bucket-announcement protocols.

The frozen three-player transcript was unrolled by hand: suffix
composition (1,4,2,3) under one-bit buckets gives '0101'; the second
player keeps survivors {1,3} of bucket {3,4} and announces two-bit
indices '10' and '11'.
"""

import hashlib

import pytest

from mpjlab import bucketing
from mpjlab.bucketing import (
    BucketPlan,
    _bucket_table,
    bucket_index,
    bucket_members,
    bucket_width_plan,
    bucketing_protocol,
    doubling_plan,
    iterated_log,
    protocol_for_plan,
)
from mpjlab.core import (
    LayerFunction,
    MpjHatInstance,
    Variant,
    chain_layers,
    enumerate_instances,
    eval_instance,
    eval_mpj_hat,
    follow_pointers,
    sample_instances,
)
from mpjlab.sim import (
    Message,
    ProtocolInvariantError,
    ViewKind,
    make_view,
    run,
    verify,
)


def layer(*values):
    return LayerFunction(len(values), tuple(values))


def all_perm_mask(k):
    return (True,) * (k - 1)


def ref_bucket_members(t, n, j):
    """bucket_members before the exact range: clamped bounds, then filtered
    by bucket_index."""
    lo = (j - 1) * n // (2**t) + 1
    hi = j * n // (2**t)
    return tuple(r for r in range(max(lo, 1), min(hi, n) + 1) if bucket_index(t, n, r) == j)


def drop_survivor(msg, n, width, point):
    """An announcement with `point` taken out of the survivors, sizes kept
    consistent: its indicator bit cleared and its index removed."""
    survivors = [r for r in range(1, n + 1) if msg.bits[r - 1] == 1]
    rank = survivors.index(point)
    indicator = tuple(0 if r == point else b for r, b in enumerate(msg.bits[:n], start=1))
    indices = msg.bits[n:]
    return Message(indicator + indices[: rank * width] + indices[(rank + 1) * width :])


def surviving_sets(inst, plan):
    """Independent recomputation of each announcing player's survivor set."""
    answer = eval_mpj_hat(inst)
    sets = {}
    for j in range(2, plan.terminal + 1):
        suffix = chain_layers(inst.layers[j - 1 :], inst.n)
        prev_width = plan.width(j - 1)
        members = set(
            bucket_members(prev_width, inst.n, bucket_index(prev_width, inst.n, answer))
        )
        sets[j] = tuple(s for s in range(1, inst.n + 1) if suffix(s) in members)
    return sets


class TestIteratedLog:
    def test_frozen_values(self):
        assert iterated_log(16, 0) == 16.0
        assert iterated_log(16, 1) == 4.0
        assert iterated_log(16, 2) == 2.0
        assert iterated_log(65536, 3) == 2.0

    def test_clamps_at_one_and_sticks(self):
        assert iterated_log(16, 4) == 1.0
        assert iterated_log(4, 2) == 1.0
        assert iterated_log(8, 3) == 1.0  # third application would go below 1
        assert iterated_log(2, 5) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            iterated_log(0, 1)
        with pytest.raises(ValueError):
            iterated_log(4, -1)


class TestBuckets:
    def test_frozen_indices(self):
        assert [bucket_index(2, 8, r) for r in range(1, 9)] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert [bucket_index(1, 5, r) for r in range(1, 6)] == [1, 1, 2, 2, 2]
        assert [bucket_index(0, 5, r) for r in range(1, 6)] == [1] * 5

    def test_frozen_members(self):
        assert bucket_members(1, 5, 1) == (1, 2)
        assert bucket_members(1, 5, 2) == (3, 4, 5)
        assert bucket_members(3, 5, 1) == ()  # more buckets than points

    def test_members_invert_index(self):
        for n in (1, 2, 5, 8, 13):
            for t in range(0, 5):
                seen = []
                for b in range(1, 2**t + 1):
                    members = bucket_members(t, n, b)
                    assert all(bucket_index(t, n, r) == b for r in members)
                    seen.extend(members)
                assert seen == list(range(1, n + 1))  # a partition, in order

    def test_members_match_index_filter(self):
        for t in range(0, 7):
            for n in range(1, 71):
                for j in range(1, 2**t + 1):
                    assert bucket_members(t, n, j) == ref_bucket_members(t, n, j)

    def test_table_holds_every_index(self):
        for t in range(0, 13):
            for n in range(1, 65):
                table = _bucket_table(t, n)
                assert len(table) == n + 1
                for v in range(1, n + 1):
                    assert table[v] == bucket_index(t, n, v) - 1
                    assert 0 <= table[v] < 2**t

    def test_size_law(self):
        for n in range(1, 65):
            for t in range(0, 7):
                cap = -(-n // (2**t))
                sizes = [len(bucket_members(t, n, b)) for b in range(1, 2**t + 1)]
                assert max(sizes) == cap

    def test_singletons_once_buckets_outnumber_points(self):
        for r in range(1, 9):
            assert bucket_members(3, 8, bucket_index(3, 8, r)) == (r,)

    def test_errors(self):
        with pytest.raises(ValueError, match="^bucket width must be nonnegative$"):
            bucket_index(-1, 4, 1)
        with pytest.raises(ValueError, match=r"^point 5 outside \[1, 4\]$"):
            bucket_index(1, 4, 5)
        with pytest.raises(ValueError, match=r"^bucket 3 outside \[1, 2\]$"):
            bucket_members(1, 4, 3)


class TestWidthPlans:
    def test_iterated_log_widths(self):
        assert bucket_width_plan(16, 3).widths == (2, 4, 16)
        assert bucket_width_plan(16, 4).widths == (1, 2, 4, 16)
        assert bucket_width_plan(16, 5).widths == (1, 1, 2, 4, 16)
        assert bucket_width_plan(8, 3).widths == (2, 3, 8)

    def test_terminal_is_last_announcer(self):
        plan = bucket_width_plan(16, 4)
        assert plan.terminal == 3
        assert plan.width(3) == 4

    def test_width_accessor_bounds(self):
        plan = bucket_width_plan(8, 3)
        with pytest.raises(ValueError):
            plan.width(0)
        with pytest.raises(ValueError):
            plan.width(4)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            bucket_width_plan(8, 2)
        with pytest.raises(ValueError):
            BucketPlan(8, 3, (1, 2, 8), terminal=2)  # 4 < 8
        with pytest.raises(ValueError):
            BucketPlan(8, 3, (1, 3, 8), terminal=3)

    def test_doubling_widths_and_early_terminal(self):
        plan = doubling_plan(16, 8)
        assert plan.widths == (1, 2, 4, 4, 4, 4, 4, 16)
        assert plan.terminal == 3
        assert doubling_plan(4, 4).widths == (1, 2, 2, 4)
        assert doubling_plan(4, 4).terminal == 2

    def test_doubling_degenerate_width_one(self):
        plan = doubling_plan(2, 3)
        assert plan.widths == (1, 1, 2)
        assert plan.terminal == 1

    def test_doubling_needs_enough_players(self):
        with pytest.raises(ValueError, match="cannot reach singleton"):
            doubling_plan(16, 3)
        with pytest.raises(ValueError, match="needs k >= 3"):
            doubling_plan(16, 2)


class TestBucketingProtocol:
    def test_frozen_transcript(self):
        inst = MpjHatInstance(
            4, 3, 2, (layer(2, 3, 4, 1), layer(3, 1, 4, 2)), all_perm_mask(3)
        )
        t = run(bucketing_protocol(4, 3), inst)
        assert [m.to01() for m in t.messages] == ["0101", "10101011", "11"]
        assert t.per_player_bits == (4, 8, 2)
        assert t.output == 4 == eval_mpj_hat(inst)

    def test_exhaustive_small(self):
        report = verify(
            bucketing_protocol(3, 3),
            enumerate_instances(3, 3, Variant.MPJ_HAT, all_perm_mask(3)),
        )
        assert report.ok and report.checked == 108

    def test_exhaustive_four_players(self):
        report = verify(
            bucketing_protocol(3, 4),
            enumerate_instances(3, 4, Variant.MPJ_HAT, all_perm_mask(4)),
        )
        assert report.ok and report.checked == 648

    def test_correct_even_without_the_permutation_promise(self):
        # arbitrary layers keep the answer inside every announced bucket,
        # so the output stays right; only the survivor-count bound needs
        # permutations (here player 2 hits n + n*b_2 = 9 bits)
        report = verify(
            bucketing_protocol(3, 3), enumerate_instances(3, 3, Variant.MPJ_HAT)
        )
        assert report.ok and report.checked == 2187
        assert report.per_player_max_bits == (3, 9, 2)

    def test_message_sizes_match_survivor_oracle(self):
        n, k = 8, 4
        plan = bucket_width_plan(n, k)
        proto = bucketing_protocol(n, k)
        for inst in sample_instances(
            n, k, Variant.MPJ_HAT, all_perm_mask(k), count=150, seed=21
        ):
            t = run(proto, inst)
            sets = surviving_sets(inst, plan)
            assert t.per_player_bits[0] == n * plan.width(1)
            for j in range(2, plan.terminal + 1):
                assert t.per_player_bits[j - 1] == n + len(sets[j]) * plan.width(j)
                indicator = t.messages[j - 1].bits[:n]
                announced = tuple(s for s in range(1, n + 1) if indicator[s - 1])
                assert announced == sets[j]

    def test_survivor_counts_shrink_with_permutations(self):
        n, k = 16, 4
        plan = bucket_width_plan(n, k)
        for inst in sample_instances(
            n, k, Variant.MPJ_HAT, all_perm_mask(k), count=100, seed=5
        ):
            sets = surviving_sets(inst, plan)
            for j in range(2, plan.terminal + 1):
                assert len(sets[j]) <= -(-n // (2 ** plan.width(j - 1)))


class TestDoublingProtocol:
    def test_degenerate_single_announcer(self):
        report = verify(
            protocol_for_plan(doubling_plan(2, 3), "bucketing-doubling"),
            enumerate_instances(2, 3, Variant.MPJ_HAT, all_perm_mask(3)),
        )
        assert report.ok and report.checked == 8
        assert report.per_player_max_bits == (2, 0, 1)  # middle player is silent

    def test_early_termination_silences_late_players(self):
        proto = protocol_for_plan(doubling_plan(16, 8), "bucketing-doubling")
        insts = sample_instances(16, 8, Variant.MPJ_HAT, all_perm_mask(8), count=60, seed=2)
        report = verify(proto, insts)
        assert report.ok
        assert report.per_player_max_bits[3:7] == (0, 0, 0, 0)
        assert report.per_player_max_bits[0] == 16

    def test_total_cost_stays_linear(self):
        for n, k in ((8, 5), (16, 5), (32, 6)):  # k = log* n + 2
            proto = protocol_for_plan(doubling_plan(n, k), "bucketing-doubling")
            insts = sample_instances(n, k, Variant.MPJ_HAT, all_perm_mask(k), count=200, seed=n)
            report = verify(proto, insts)
            assert report.ok
            assert report.worst_cost <= 8 * n


class TestTamperedBlackboards:
    """The announcement parsers reject malformed or inconsistent messages."""

    inst = MpjHatInstance(
        4, 3, 2, (layer(2, 3, 4, 1), layer(3, 1, 4, 2)), all_perm_mask(3)
    )
    proto = bucketing_protocol(4, 3)

    def test_walk_point_missing_from_survivors(self):
        good = run(self.proto, self.inst)
        empty_survivors = Message.from01("0000")
        view = make_view(
            self.inst, 3, ViewKind.COLLAPSING, (good.messages[0], empty_survivors)
        )
        with pytest.raises(ProtocolInvariantError, match="missing from the surviving"):
            self.proto.players[2](view)

    def test_first_announcement_size_check(self):
        view = make_view(self.inst, 2, ViewKind.COLLAPSING, (Message.from01("01"),))
        with pytest.raises(ProtocolInvariantError, match="wrong size"):
            self.proto.players[1](view)

    def test_index_area_size_check(self):
        good = run(self.proto, self.inst)
        truncated = Message.from01("1010" + "1")
        view = make_view(
            self.inst, 3, ViewKind.COLLAPSING, (good.messages[0], truncated)
        )
        with pytest.raises(ProtocolInvariantError, match="index area"):
            self.proto.players[2](view)

    def test_indicator_shorter_than_n(self):
        good = run(self.proto, self.inst)
        view = make_view(
            self.inst, 3, ViewKind.COLLAPSING, (good.messages[0], Message.from01("10"))
        )
        with pytest.raises(ProtocolInvariantError, match="membership indicator"):
            self.proto.players[2](view)

    @pytest.mark.parametrize("tampered", [2, 3])
    def test_last_player_rechecks_every_announcement(self, tampered):
        # k=5: the last player reads announcements 2 and 3 on the way to the
        # terminal one, and each must still hold the walk point
        self._assert_tampered_announcement_caught(5, tampered)

    @pytest.mark.parametrize("tampered", [2, 7, 11])
    def test_last_player_rechecks_every_announcement_long_chain(self, tampered):
        # k=12: the last player reads every announcement 2 .. 11, walking one
        # more layer per announcement, and each must still hold the walk point
        self._assert_tampered_announcement_caught(12, tampered)

    @staticmethod
    def _assert_tampered_announcement_caught(k, tampered):
        n = 16
        proto = bucketing_protocol(n, k)
        plan = bucket_width_plan(n, k)
        inst = next(sample_instances(n, k, Variant.MPJ_HAT, all_perm_mask(k), count=1, seed=4))
        messages = list(run(proto, inst).messages[: k - 1])
        walk_point = follow_pointers(inst.i, inst.layers[: tampered - 1])
        messages[tampered - 1] = drop_survivor(
            messages[tampered - 1], n, plan.width(tampered), walk_point
        )
        view = make_view(inst, k, ViewKind.COLLAPSING, tuple(messages))
        missing = "walk point missing from the surviving set"
        with pytest.raises(ProtocolInvariantError, match=missing):
            proto.players[k - 1](view)

    def test_last_player_checks_a_terminal_first_announcement(self):
        # doubling at n=2 ends with player 1, so the last player reads the
        # first announcement directly
        proto = protocol_for_plan(doubling_plan(2, 3), "bucketing-doubling")
        assert doubling_plan(2, 3).terminal == 1
        inst = MpjHatInstance(2, 3, 1, (layer(2, 1), layer(1, 2)), all_perm_mask(3))
        assert run(proto, inst).messages[0] == Message.from01("10")
        view = make_view(inst, 3, ViewKind.COLLAPSING, (Message.from01("1"), Message()))
        with pytest.raises(ProtocolInvariantError, match="wrong size"):
            proto.players[2](view)


PLANS = {"bucketing": bucket_width_plan, "bucketing-doubling": doubling_plan}


def admitted_handles():
    """(handle, n, k) for both plans at n in {4, 16, 100} and each k in
    3..9 the plan admits, plus (4, 40)."""
    for name, plan_of in PLANS.items():
        for n, k in [*((n, k) for n in (4, 16, 100) for k in range(3, 10)), (4, 40)]:
            try:
                handle = protocol_for_plan(plan_of(n, k), name)
            except ValueError:  # doubling needs enough players
                continue
            yield handle, n, k


class TestPlanReadAtBuild:
    def test_runs_read_no_plan_and_fetch_no_table(self, monkeypatch):
        handles = list(admitted_handles())
        assert len(handles) > 20
        calls = {"width": 0, "table": 0}
        width, table = BucketPlan.width, bucketing._bucket_table

        def counted_width(plan, j):
            calls["width"] += 1
            return width(plan, j)

        def counted_table(t, n):
            calls["table"] += 1
            return table(t, n)

        monkeypatch.setattr(BucketPlan, "width", counted_width)
        monkeypatch.setattr(bucketing, "_bucket_table", counted_table)
        for proto, n, k in handles:
            insts = sample_instances(n, k, Variant.MPJ_HAT, all_perm_mask(k), count=20, seed=n * k)
            for inst in insts:
                assert run(proto, inst).output == eval_instance(inst)
        assert calls == {"width": 0, "table": 0}


# sha256 over seeded runs (seed n + k) of every message's bits and the
# output, one line per run; recorded before the players read their plan at
# build, and the refusal text where the plan admits no protocol
WIRE_DIGESTS = {
    ("bucketing", 16, 5, 200):
        "f9c5e1a4eb5b780f5a4fc43f79e0ee97e9427805aca31068bf2629c2a9079828",
    ("bucketing", 100, 6, 50):
        "3c766e0a390df5a213f3c7730142dcd87772dc063b1f3f8797ccafeb2359183a",
    ("bucketing", 1000, 4, 20):
        "cbced38b8b797a4613f60d3872e57bff96a86d370f500f4ab4e7bd322a63a5cf",
    ("bucketing", 4096, 3, 8):
        "cf512142a78cf040bc61ecdd93cb3548fbb13b41d907ccde8e9082678eaf6467",
    ("bucketing", 4, 40, 50):
        "e37851b56415ddb00abd60803e49de9fe2a6d3f3f14aa40c9c83ecdfb29870e4",
    ("bucketing-doubling", 16, 5, 200):
        "f47ad448acd40e681f7827f902a63e0804b000d520d45d421f748869bb79c381",
    ("bucketing-doubling", 100, 6, 50):
        "6a8e1d3946c3bc9c88ead83a770196cc7b7e3230e70d8cb1b7866adce40a97f4",
    ("bucketing-doubling", 1000, 4, 20):
        "252a55c957ac557c7e41ceefe28cdde2e97ceeb9eea0d89f6a69c4c30769b182",
    ("bucketing-doubling", 4096, 3, 8):
        "26ac3ec19d6562027ebd428f9ec2133252b3b775cf42e7b16f28a8fea97c48bf",
    ("bucketing-doubling", 4, 40, 50):
        "d06baadcf27b6ad3261bb99f57a39b84fc713fcea9eb3e4d29ede38f4744d137",
}


class TestPinnedWireFormat:
    @pytest.mark.parametrize("name, n, k, count", WIRE_DIGESTS)
    def test_seeded_transcripts(self, name, n, k, count):
        digest = hashlib.sha256()
        try:
            proto = protocol_for_plan(PLANS[name](n, k), name)
        except ValueError as exc:
            digest.update(f"refused: {exc}\n".encode())
        else:
            mask = all_perm_mask(k)
            for inst in sample_instances(n, k, Variant.MPJ_HAT, mask, count=count, seed=n + k):
                t = run(proto, inst)
                digest.update(("|".join(m.to01() for m in t.messages) + f"|{t.output}\n").encode())
        assert digest.hexdigest() == WIRE_DIGESTS[name, n, k, count]

"""Baseline and cover-based Boolean chain protocols.

The frozen three-player transcript below was unrolled by hand: with
f = (1,1,2) and d = 1 the single cover permutation is (3,1,2), value 1
is the only heavy point, so the first message is x followed by x_1.
"""

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjlab.core import (
    BitVector,
    LayerFunction,
    MpjInstance,
    Variant,
    enumerate_instances,
    eval_instance,
    sample_instances,
)
from mpjlab.jump import (
    PermProtocol3,
    SjChain,
    build_sj_chain,
    check_perm_protocol3,
    index_protocol,
    mpj3_sublinear,
    mpjk_sublinear,
    naive_perm_protocol,
)
from mpjlab.sim import Message, ProtocolContractError, run, verify
from test_hot_paths import ref_mpjk_players


def layer(*values):
    return LayerFunction(len(values), tuple(values))


def bits(text):
    return BitVector.from01(text)


class TestPermSubprotocol:
    def test_naive_passes_exhaustively(self):
        assert check_perm_protocol3(naive_perm_protocol(3), 3) == []

    def test_naive_message_size(self):
        P = naive_perm_protocol(5)
        assert P.m == 5
        assert len(P.alpha(LayerFunction.identity(5), bits("01010"))) == 5

    def test_checker_flags_wrong_answers(self):
        P = naive_perm_protocol(2)
        broken = PermProtocol3(2, P.alpha, P.beta, lambda i, pi, a, b: 0)
        failures = check_perm_protocol3(broken, 2)
        assert failures  # every triple whose answer is 1
        assert all(f.expected == 1 and f.got == 0 for f in failures)
        assert len(failures) == 2 * 2 * 2  # half of the 16 triples

    def test_checker_enforces_message_sizes(self):
        P = naive_perm_protocol(2)
        oversize = PermProtocol3(2, lambda pi, x: Message((0,) * 3), P.beta, P.gamma)
        with pytest.raises(ProtocolContractError):
            check_perm_protocol3(oversize, 2)

    def test_checker_enforces_reply_size(self):
        P = naive_perm_protocol(2)
        short = PermProtocol3(2, P.alpha, lambda i, x, a: Message((0,)), P.gamma)
        with pytest.raises(ProtocolContractError, match="beta produced 1 bits, expected 2"):
            check_perm_protocol3(short, 2)

    def test_explicit_triples_are_honored(self):
        P = naive_perm_protocol(3)
        triples = [(1, LayerFunction.identity(3), bits("100"))]
        assert check_perm_protocol3(P, 3, triples=triples) == []


def permuting_perm_protocol(n):
    """Alternative subprotocol: the opening lists x along pi, the reply is unused."""

    def alpha(pi, x):
        return Message.from_bits(x(pi(r)) for r in range(1, n + 1))

    def beta(i, x, a):
        return Message((1,) * n)

    def gamma(i, pi, a, b):
        return a.bits[i - 1]

    return PermProtocol3(n, alpha, beta, gamma)


def rotating_perm_protocol(n):
    """Order-sensitive subprotocol: the opening lists x along pi, the reply
    is the opening rotated left by i, and the answer is the reply's last
    bit, x(pi(i)). An answer read from another opening's reply is wrong."""

    def alpha(pi, x):
        return Message.from_bits(x(pi(r)) for r in range(1, n + 1))

    def beta(i, x, a):
        text = a.to01()
        return Message.from01(text[i:] + text[:i])

    def gamma(i, pi, a, b):
        return b.bit(n - 1)

    return PermProtocol3(n, alpha, beta, gamma)


class TestIndexProtocol:
    def test_exhaustive(self):
        report = verify(index_protocol(4), enumerate_instances(4, 2, Variant.MPJ))
        assert report.ok and report.checked == 64
        assert report.per_player_max_bits == (4, 1)
        assert report.worst_prefix_cost == 4

    def test_metadata(self):
        proto = index_protocol(8)
        assert proto.n == 8 and proto.k == 2
        assert proto.declared_max_bits == (8, 1)


class TestThreePlayerSublinear:
    def test_frozen_transcript_light_point(self):
        proto = mpj3_sublinear(naive_perm_protocol(3), 1)
        inst = MpjInstance(3, 3, 3, (layer(1, 1, 2),), bits("011"))
        t = run(proto, inst)
        assert [m.to01() for m in t.messages] == ["0110", "000", "1"]

    def test_frozen_transcript_heavy_point(self):
        proto = mpj3_sublinear(naive_perm_protocol(3), 1)
        inst = MpjInstance(3, 3, 1, (layer(1, 1, 2),), bits("011"))
        t = run(proto, inst)
        assert [m.to01() for m in t.messages] == ["0110", "000", "0"]

    def test_identity_layer_costs(self):
        # no heavy points: the first message is exactly the d openings
        proto = mpj3_sublinear(naive_perm_protocol(4), 1)
        inst = MpjInstance(4, 3, 2, (LayerFunction.identity(4),), bits("0110"))
        t = run(proto, inst)
        assert t.per_player_bits == (4, 4, 1)
        assert t.prefix_cost == 8

    def test_exhaustive_small(self):
        for d in (1, 2):
            proto = mpj3_sublinear(naive_perm_protocol(2), d)
            report = verify(proto, enumerate_instances(2, 3, Variant.MPJ))
            assert report.ok and report.checked == 32

    def test_framing_has_no_headers(self):
        # first message length is d*m plus one bit per heavy point, always
        d = 1
        proto = mpj3_sublinear(naive_perm_protocol(3), d)
        for inst in enumerate_instances(3, 3, Variant.MPJ):
            t = run(proto, inst)
            f = inst.middles[0]
            heavy = sum(1 for s in set(f.values) if len(f.fiber(s)) > d)
            assert t.per_player_bits[0] == d * 3 + heavy
            assert t.per_player_bits[1] == d * 3

    def test_alternative_subprotocol_plugs_in(self):
        assert check_perm_protocol3(permuting_perm_protocol(3), 3) == []
        proto = mpj3_sublinear(permuting_perm_protocol(3), 2)
        report = verify(proto, enumerate_instances(3, 3, Variant.MPJ))
        assert report.ok and report.checked == 648

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            mpj3_sublinear(naive_perm_protocol(2), 0)


class TestSurvivingChain:
    def test_single_constant_layer(self):
        chain = build_sj_chain((layer(2, 2, 2, 2),), 1)
        assert chain.level(1) == frozenset({1, 2, 3, 4})
        assert chain.level(2) == frozenset({2})

    def test_threshold_is_strict(self):
        assert build_sj_chain((layer(2, 2, 2, 2),), 4).level(2) == frozenset()
        assert build_sj_chain((layer(2, 2, 2, 2),), 3).level(2) == frozenset({2})

    def test_two_layer_chain(self):
        chain = build_sj_chain((layer(2, 2, 4, 4), layer(1, 1, 1, 2)), 1)
        assert chain.level(2) == frozenset({2, 4})
        assert chain.level(3) == frozenset()

    def test_counting_uses_previous_level_only(self):
        # fiber of 1 under the second layer has three points, but only one
        # survives level 2, so 1 does not survive level 3
        chain = build_sj_chain((layer(3, 3, 3, 3), layer(1, 1, 1, 2)), 2)
        assert chain.level(2) == frozenset({3})
        assert chain.level(3) == frozenset()

    def test_levels_after_an_empty_level_stay_empty(self):
        # a permutation leaves no point over d = 1, and nothing can survive
        # an empty level whatever the later layers are
        middles = (layer(2, 1, 4, 3), layer(1, 1, 1, 1), layer(3, 3, 3, 3))
        full, empty = frozenset({1, 2, 3, 4}), frozenset()
        assert build_sj_chain(middles, 1) == SjChain(4, 1, (full, empty, empty, empty))

    def test_width_is_checked_after_an_empty_level(self):
        with pytest.raises(ValueError, match="share one width"):
            build_sj_chain((layer(2, 1), layer(1, 1, 1)), 1)

    @settings(max_examples=80)
    @given(
        st.integers(1, 3),
        st.lists(
            st.lists(st.integers(1, 5), min_size=5, max_size=5).map(
                lambda v: LayerFunction(5, tuple(v))
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_chain_equals_the_full_count(self, d, middles):
        levels = [frozenset(range(1, 6))]
        for f in middles:
            levels.append(frozenset(
                s for s in range(1, 6)
                if sum(1 for r in levels[-1] if f(r) == s) > d
            ))
        assert build_sj_chain(middles, d) == SjChain(5, d, tuple(levels))

    def test_errors(self):
        with pytest.raises(ValueError):
            build_sj_chain((), 1)
        with pytest.raises(ValueError):
            build_sj_chain((layer(1, 2),), 0)
        with pytest.raises(ValueError):
            build_sj_chain((layer(1, 2),), 1).level(3)

    @settings(max_examples=60)
    @given(
        st.integers(1, 3),
        st.lists(
            st.lists(st.integers(1, 6), min_size=6, max_size=6).map(
                lambda v: LayerFunction(6, tuple(v))
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_geometric_shrinkage(self, d, middles):
        chain = build_sj_chain(middles, d)
        for j in range(1, len(middles) + 1):
            assert len(chain.level(j + 1)) * (d + 1) <= len(chain.level(j))


def scoped_recount(f, scope, target, d):
    """mpjk's last-player lightness test before it read the chain: the
    target is heavy when more than d scope points map to it."""
    return sum(1 for r in scope if f.values[r - 1] == target) > d


class TestKPlayerSublinear:
    def test_exhaustive_four_players(self):
        proto = mpjk_sublinear(naive_perm_protocol(2), 1, 4)
        report = verify(proto, enumerate_instances(2, 4, Variant.MPJ))
        assert report.ok and report.checked == 128

    def test_framing_part_sizes(self):
        d, n, k = 1, 3, 4
        proto = mpjk_sublinear(naive_perm_protocol(n), d, k)
        for inst in sample_instances(n, k, Variant.MPJ, count=60, seed=3):
            t = run(proto, inst)
            chain = build_sj_chain(inst.middles, d)
            assert t.per_player_bits[0] == (k - 2) * d * n + len(chain.level(k - 1))
            assert t.per_player_bits[1:-1] == (d * n,) * (k - 2)
            assert t.per_player_bits[-1] == 1

    def test_large_d_empties_the_chain(self):
        # with d = n no point is ever heavy: no raw bits ship and every
        # instance resolves through a cover
        n = 3
        proto = mpjk_sublinear(naive_perm_protocol(n), n, 4)
        insts = list(sample_instances(n, 4, Variant.MPJ, count=40, seed=7))
        report = verify(proto, insts)
        assert report.ok
        assert report.per_player_max_bits[0] == 2 * n * n  # (k-2)*d*m, no raw part

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_heavy_test_is_chain_membership(self, d):
        # the last player's test `target in chain.level(lvl + 1)` against the
        # scoped recount, for every level and every target
        rng = random.Random(40 + d)
        for _ in range(200):
            n = rng.randint(1, 12)
            skew = rng.randint(1, n)
            middles = tuple(
                LayerFunction(n, tuple(rng.randint(1, skew) for _ in range(n)))
                for _ in range(rng.randint(1, 4))
            )
            chain = build_sj_chain(middles, d)
            for lvl, f in enumerate(middles, start=1):
                for target in range(1, n + 1):
                    assert (target in chain.level(lvl + 1)) == scoped_recount(
                        f, chain.level(lvl), target, d
                    )

    def test_list_built_layers_and_middles_run_like_tuples(self):
        # the plan memo keys on the middles by value: list-built parts must
        # arrive as tuples, or player 1 raises on an unhashable list
        n, k, d = 4, 5, 1
        proto = mpjk_sublinear(naive_perm_protocol(n), d, k)
        for inst in sample_instances(n, k, Variant.MPJ, count=20, seed=11):
            listed = MpjInstance(
                n, k, inst.i, [LayerFunction(n, list(f.values)) for f in inst.middles],
                BitVector(n, list(inst.x.bits)),
            )
            assert listed == inst and hash(listed) == hash(inst)
            transcript = run(proto, listed)
            assert transcript.output == eval_instance(listed)
            assert transcript == run(proto, inst)

    def test_rejects_bad_arguments(self):
        P = naive_perm_protocol(2)
        with pytest.raises(ValueError):
            mpjk_sublinear(P, 1, 2)
        with pytest.raises(ValueError):
            mpjk_sublinear(P, 0, 3)

    @pytest.mark.parametrize("part", ["alpha", "beta"])
    def test_subprotocol_message_sizes_are_enforced_in_runs(self, part):
        # an opening or a reply of other than m bits breaks the framing, so the
        # first player (openings) or a middle player (replies) refuses it
        P = naive_perm_protocol(4)

        def wrong(*args):
            return Message((0,) * 3)

        bad = PermProtocol3(
            4, wrong if part == "alpha" else P.alpha, wrong if part == "beta" else P.beta, P.gamma
        )
        proto = mpjk_sublinear(bad, 2, 4)
        [inst] = sample_instances(4, 4, Variant.MPJ, count=1, seed=1)
        with pytest.raises(ProtocolContractError, match=f"{part} produced 3 bits, expected 4"):
            run(proto, inst)


class TestResolutionPathWitnesses:
    """Every middle layer is r -> ceil(r/(d+1)) on n = 1 + (d+1) + ... +
    (d+1)^(k-2) points, so S_(t+1) = {1, ..., 1 + (d+1) + ... +
    (d+1)^(k-2-t)}: (d+1)^(l-1) starts resolve at level l and (d+1)^(k-2)
    read a raw bit. No smaller width of this family reaches every path of
    the last player."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_path_is_reached_and_answers_right(self, d, k):
        n = sum((d + 1) ** t for t in range(k - 1))
        f = LayerFunction(n, tuple(-(-r // (d + 1)) for r in range(1, n + 1)))
        middles = (f,) * (k - 2)
        rng = random.Random(100 * k + d)
        x = BitVector(n, tuple(rng.randint(0, 1) for _ in range(n)))
        levels = build_sj_chain(middles, d).levels
        proto = mpjk_sublinear(naive_perm_protocol(n), d, k)
        paths = {}
        for i in range(1, n + 1):
            walk = [i]
            for g in middles:
                walk.append(g(walk[-1]))
            # the first level whose next walk point is light, else the raw bit
            path = next((lvl for lvl in range(1, k - 1) if walk[lvl] not in levels[lvl]), "raw")
            paths[path] = paths.get(path, 0) + 1
            inst = MpjInstance(n, k, i, middles, x)
            assert run(proto, inst).output == eval_instance(inst)
        expected = {lvl: (d + 1) ** (lvl - 1) for lvl in range(1, k - 1)}
        assert paths == {**expected, "raw": (d + 1) ** (k - 2)}


class TestOrderSensitiveSubprotocol:
    """The naive replies are all zeros and `permuting_perm_protocol`'s all
    ones, so neither can tell one reply from another; these runs can."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_meets_the_contract(self, n):
        assert check_perm_protocol3(rotating_perm_protocol(n), n) == []

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_brute_force_and_the_reference_players(self, d, k):
        n = 4
        P = rotating_perm_protocol(n)
        proto = mpjk_sublinear(P, d, k)
        ref = dataclasses.replace(proto, players=ref_mpjk_players(P, d, k))
        insts = list(sample_instances(n, k, Variant.MPJ, count=60, seed=10 * d + k))
        assert verify(proto, insts).ok
        for inst in insts:
            assert run(proto, inst).messages == run(ref, inst).messages


class TestMessageFraming:
    @pytest.mark.parametrize("k, sent, j, window", [(3, 7, 2, (0, 8)), (4, 12, 3, (8, 16))])
    def test_a_short_first_message_fails_its_reader(self, k, sent, j, window):
        # player j reads its d*m-bit window of message 1 before any reply
        n, d = 4, 2
        proto = mpjk_sublinear(naive_perm_protocol(n), d, k)
        short = dataclasses.replace(
            proto, players=(lambda view: Message.from_uint(0, sent), *proto.players[1:])
        )
        [inst] = sample_instances(n, k, Variant.MPJ, count=1, seed=1)
        a, b = window
        text = f"player {j} raised ValueError: slice [{a}, {b}) outside message of {sent} bits"
        with pytest.raises(ProtocolContractError, match=f"^{re.escape(text)}$"):
            run(short, inst)

    def test_zero_width_subprotocol_still_replies_d_times(self):
        # with m = 0 each middle player calls beta d times on empty openings
        d, k = 2, 4
        seen = []

        def beta(i, x, a):
            seen.append(a)
            return Message()

        P = PermProtocol3(0, lambda pi, x: Message(), beta, lambda i, pi, a, b: 0)
        [inst] = sample_instances(3, k, Variant.MPJ, count=1, seed=2)
        t = run(mpjk_sublinear(P, d, k), inst)
        assert t.per_player_bits[1:] == (0,) * (k - 2) + (1,)
        assert seen == [Message()] * (2 * d * (k - 2))  # every call is replayed

"""The hot paths keep the behaviour and the costs of the code they replaced.

One reference stays beside the package: `ref_mpjk_players`, the cover
protocol's players before the runtime passed the walk point, which walk
with checked layer calls, read levels through `SjChain.level` and build
each level's cover on every call, with `ref_naive`, the naive
subprotocol built by the validating constructors. The equal-middles test
here and `tests/test_jump.py` run them beside the package's players.

The other references (per-element validation loops, fiber scans, covers
built rotation by rotation, views walked per player, bucketing players
that parse announcements into tuples) are gone. What they did is
recorded instead: tables of accepted and refused values with their error
texts, and sha256 digests of their outputs over the same seeded inputs,
recorded while the references still ran beside the package.

The tests that count layer applications, chain and cover builds,
rotations, derivations, pattern computations and the cell search's
evaluations and checked builds pin the cost of each rewrite.
"""

import dataclasses
import gc
import hashlib
import itertools
import random
import weakref
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from odd_values import Bit, EqualsOneHashedElsewhere, UnhashableZero, outcome

from mpjlab import core
from mpjlab.core import (
    BitVector,
    LayerFunction,
    MpjHatInstance,
    MpjInstance,
    Variant,
    bit_suffixes,
    chain_layers,
    collapsed_suffixes,
    compose_bits,
    follow_pointers,
    sample_instances,
)
from mpjlab.covers import build_d_cover, build_sd_cover, verify_sd_cover
from mpjlab import covers, jump, sim
from mpjlab.bucketing import (
    bucket_width_plan,
    bucketing_protocol,
    doubling_plan,
    protocol_for_plan,
)
from mpjlab import adversary
from mpjlab.adversary import PATTERNS, CrossingPair, build_fooling_inputs
from mpjlab.jump import (
    PermProtocol3,
    build_sj_chain,
    mpjk_sublinear,
    naive_perm_protocol,
)
from mpjlab.cli import main as cli_main
from mpjlab.registry import build_protocol
from mpjlab.sim import (
    Message,
    PlayerView,
    ProtocolInvariantError,
    ViewKind,
    make_view,
)

ALL_KINDS = (ViewKind.FULL_ONE_WAY, ViewKind.COLLAPSING, ViewKind.CONSERVATIVE_COLLAPSING)


# -- the reference that stays ---------------------------------------------------


def ref_mpjk_players(P, d, k):
    """The cover protocol's players before the runtime passed the walk point:
    every reader walks with checked layer calls, reads levels through
    `SjChain.level`, and builds messages with `Message`."""

    def cover_of(f, scope, n):
        return build_d_cover(f, d) if len(scope) == n else build_sd_cover(f, scope, d)

    def speak_openings(view):
        middles, x = view.later_layers, view.final_bits
        chain = build_sj_chain(middles, d)
        parts = []
        for lvl in range(1, k - 1):
            suffix = compose_bits(x, middles[lvl:])
            cover = cover_of(middles[lvl - 1], chain.level(lvl), view.n)
            parts += [P.alpha(pi, suffix) for pi in cover.perms]
        parts.append(Message.from_bits(x(s) for s in sorted(chain.level(k - 1))))
        return Message.concat(parts)

    def replies_for(j):
        def speak_replies(view):
            pointer = follow_pointers(view.start, view.prefix_layers)
            alphas = view.messages[0].slice((j - 2) * d * P.m, (j - 1) * d * P.m)
            return Message.concat(P.beta(pointer, view.suffix, a) for a in alphas.chunks(P.m))

        return speak_replies

    def speak_answer(view):
        middles, m = view.prefix_layers, P.m
        chain = build_sj_chain(middles, d)
        walk = [view.start]
        for f in middles:
            walk.append(f(walk[-1]))
        for lvl in range(1, k - 1):
            pointer, target = walk[lvl - 1], walk[lvl]
            if target in chain.level(lvl + 1):
                continue
            cover = cover_of(middles[lvl - 1], chain.level(lvl), view.n)
            for ell, pi in enumerate(cover.perms):
                if pi(pointer) == target:
                    start = ((lvl - 1) * d + ell) * m
                    a0 = view.messages[0].slice(start, start + m)
                    b0 = view.messages[lvl].slice(ell * m, (ell + 1) * m)
                    return Message.from_uint(P.gamma(pointer, pi, a0, b0), 1)
            raise ProtocolInvariantError("cover misses a surviving light point")
        last = sorted(chain.level(k - 1))
        if walk[-1] not in chain.level(k - 1):
            raise ProtocolInvariantError("walk point escaped the surviving chain")
        return Message.from_uint(view.messages[0].bit((k - 2) * d * m + last.index(walk[-1])), 1)

    return (speak_openings, *[replies_for(j) for j in range(2, k)], speak_answer)


def ref_naive(n):
    """The naive subprotocol before packing: each opening and reply built
    by the validating constructors."""
    return PermProtocol3(
        n,
        lambda pi, x: Message(x.bits),
        lambda i, x, a: Message.from_uint(0, n),
        lambda i, pi, a, b: a.bit(pi(i) - 1),
    )


def built(cls, *args):
    """Construct and discard: the construction's outcome is the observation."""
    cls(*args)


def digest_of(lines):
    """sha256 over the reprs of `lines`, one per line."""
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode() + b"\n")
    return h.hexdigest()


# -- validation ---------------------------------------------------------------


class Point(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


class Ordinal(int):
    """A plain int subclass: the fast test misses it, the per-value rule takes it."""


# Whether a value passes as a point of [3], as the per-value loops judged
# it: a layer value, a layer's argument and a bit vector's position all
# refuse it with "<what> must be an integer in [1, 3], got <repr>".
POINT_VALUES = [
    (1, True), (Point.ONE, True), (Ordinal(1), True), (True, False), (1.0, False),
    (float("nan"), False), ("1", False), (None, False), (Fraction(1), False),
    (Decimal(1), False), ([1], False), (0, False), (4, False),
]

# What a bit vector and a message make of a bit, as the loops judged it:
# the bit it reads as, or None for a refusal.
BIT_VALUES = [
    (0, "0"), (2, None), (-1, None), (True, "1"), (Bit.ONE, "1"), (1.0, "1"), (-0.0, "0"),
    (0.5, None), (1 + 0j, "1"), ("1", None), (None, None), (Fraction(1), "1"),
    (Decimal(0), "0"), (EqualsOneHashedElsewhere(), "1"), (UnhashableZero(), "0"), ([1], None),
]


class TestValidation:
    @pytest.mark.parametrize("value, accepted", POINT_VALUES, ids=repr)
    def test_point_values_are_judged_as_recorded(self, value, accepted):
        f, x = LayerFunction(3, (2, 3, 1)), BitVector(3, (0, 1, 1))
        calls = [
            ("layer value", lambda: built(LayerFunction, 3, (value, 2, 3)), None),
            ("argument", lambda: f(value), 2),
            ("position", lambda: x(value), 0),
        ]
        for what, call, result in calls:
            refused = ("ValueError", f"{what} must be an integer in [1, 3], got {value!r}")
            assert outcome(call) == (("ok", result) if accepted else refused)

    @pytest.mark.parametrize("bit, reads", BIT_VALUES, ids=repr)
    def test_bit_values_are_judged_as_recorded(self, bit, reads):
        if reads is None:
            for bits in ((0, bit), [0, bit]):
                assert outcome(built, BitVector, 2, bits) == ("ValueError", "bits must be 0 or 1")
                assert outcome(built, Message, bits) == ("ValueError", "message bits must be 0 or 1")
            return
        x = BitVector(2, (0, bit))
        assert x.bits == (0, int(reads))  # what the joint patterns read
        assert x.to01() == "0" + reads and BitVector.from01(x.to01()) == x
        assert Message((0, bit)) == Message.from01("0" + reads)
        # stored as the plain int it equals, from a tuple or a list, so
        # every reader gets 0 or 1 and the value is hashable
        assert all(type(b) is int for b in x.bits)
        assert BitVector(2, [0, bit]) == x and hash(BitVector(2, [0, bit])) == hash(x)
        assert type(x.weight) is int and x.weight == int(reads)
        assert x.complement().bits == (1, 1 - int(reads))
        y = BitVector.from01("01")
        assert adversary.iab_sets(x, y) == adversary.iab_sets(BitVector.from01("0" + reads), y)
        answer = core.eval_instance(MpjInstance(2, 2, 2, (), x))
        assert type(answer) is int and answer == int(reads)

    @pytest.mark.parametrize(
        "values, result",
        [
            ((1, 2), True), ([1, 2], False), ((True, 2), False), ((Point.ONE, 2), False),
            ((Ordinal(1), 2), False), ((1.0, 2), False), ((0, 2), False), ((1, 3), False),
        ],
    )
    def test_named_point_cases(self, values, result):
        # the fast test takes only a tuple of plain ints in range; the
        # per-value rule then judges whatever it misses
        assert core._are_points(2, values) is result

    def test_the_fast_point_test_refuses_an_empty_tuple(self):
        with pytest.raises(ValueError):
            core._are_points(2, ())

    @pytest.mark.parametrize(
        "bits, accepted",
        [
            ((True, False), True),
            ((Bit.ONE, 0), True),
            ((1.0, 0), True),
            ((0, 1), True),
            ((0, 2), False),
            ((0, [1]), False),
            ((UnhashableZero(), 1), True),
            ((EqualsOneHashedElsewhere(),), True),
            ([0, 1], True),
            ((), True),
        ],
    )
    def test_named_message_cases(self, bits, accepted):
        refused = ("ValueError", "message bits must be 0 or 1")
        assert outcome(built, Message, bits) == (("ok", None) if accepted else refused)

    @pytest.mark.parametrize(
        "n, values, text",
        [
            (3, (1, 2, 3), None),
            (3, (Point.ONE, 2, 3), None),
            (3, [1, 2, 3], None),
            (3, (True, 2, 3), "layer value must be an integer in [1, 3], got True"),
            (3, (1, 2, 4), "layer value must be an integer in [1, 3], got 4"),  # n + 1
            (3, (1, [2], 3), "layer value must be an integer in [1, 3], got [2]"),
            (3, (1, 2), "expected 3 values, got 2"),
            (0, (), "n must be positive, got 0"),
        ],
    )
    def test_named_layer_cases(self, n, values, text):
        expected = ("ok", None) if text is None else ("ValueError", text)
        assert outcome(built, LayerFunction, n, values) == expected
        if text is None:  # stored as a tuple of plain ints, so hashable
            f = LayerFunction(n, values)
            assert type(f.values) is tuple and all(type(v) is int for v in f.values)
            assert f == LayerFunction(n, (1, 2, 3)) and hash(f) == hash(LayerFunction(n, (1, 2, 3)))


# -- one-pass fiber counting ----------------------------------------------------


class TestFiberCounting:
    def test_scope_points_outside_the_range_are_rejected_as_before(self):
        # scope points are read in ascending order, each as the layer's argument
        f, perms = LayerFunction(3, (1, 1, 2)), (LayerFunction.identity(3),)
        refused = "argument must be an integer in [1, 3], got {}"
        assert outcome(verify_sd_cover, perms, f, {1, 2, 9}, 1) == ("ValueError", refused.format(9))
        assert outcome(verify_sd_cover, perms, f, {0, 3}, 1) == ("ValueError", refused.format(0))
        assert outcome(verify_sd_cover, perms, f, {3, 4}, 1) == ("ok", (False, 3))


# -- one cover builder ----------------------------------------------------------


def every_width_layers(seed):
    """Seeded layers of every width 1..12, from constant to spread out."""
    rng = random.Random(seed)
    for n in range(1, 13):
        for skew in sorted({1, 2, (n + 1) // 2, n}):
            for _ in range(8):
                yield LayerFunction(n, tuple(rng.randint(1, min(skew, n)) for _ in range(n)))


# sha256 over every_width_layers(600) and d in {1, 2, 3, n + 1}: the members
# of the plain cover and of the scoped one, recorded from the covers built
# rotation by rotation with one modular index per point (an empty scope
# gave d identities)
COVER_DIGESTS = {
    "empty": "3ac4f4727e141953b60680bbf27b92bd760f2608929113fa118248fb297264c2",
    "random": "66efc20da231bbca9eb0e2c34a802947a9f6b1b08f053bd78ea4f146295a8762",
    "full": "fe89c07d7e9aff01cfaa85802f10309a692ac7777dabf4465a247a8942e137b7",
}


class TestCoverConstruction:
    @pytest.mark.parametrize("scope_kind", COVER_DIGESTS)
    def test_covers_are_pinned(self, scope_kind):
        rng = random.Random(500)

        def members():
            for f in every_width_layers(600):
                points = range(1, f.n + 1)
                scope = {
                    "empty": frozenset(),
                    "random": frozenset(r for r in points if rng.random() < 0.5),
                    "full": frozenset(points),
                }[scope_kind]
                for d in sorted({1, 2, 3, f.n + 1}):
                    plain, scoped = build_d_cover(f, d), build_sd_cover(f, scope, d)
                    assert (plain.d, plain.target, plain.scope) == (d, f, None)
                    assert (scoped.d, scoped.target, scoped.scope) == (d, f, scope)
                    yield [[pi.values for pi in plain.perms], [pi.values for pi in scoped.perms]]

        assert digest_of(members()) == COVER_DIGESTS[scope_kind]


# -- one suffix derivation -------------------------------------------------------


def seeded_instances(seed):
    for n in (1, 2, 3, 5):
        for k in range(2, 7):
            for variant in Variant:
                yield from sample_instances(n, k, variant, count=4, seed=seed + 10 * n + k)


# sha256 over the repr of every view of seeded_instances(3) and of 20
# all-permutation instances at n = 5, k = 4 (seed 4), with one message on
# the board, recorded from views that walked their own prefix
VIEW_DIGESTS = {
    ViewKind.FULL_ONE_WAY: "dd541dab2babb4f6bad9b7f25be5097968e1b6c8d1890c07ea31598fe4b415d0",
    ViewKind.COLLAPSING: "8d3bc09ed34b6ea10e49648879c5b9939a3779e1e36524c08f02bd27c8dcea93",
    ViewKind.CONSERVATIVE_COLLAPSING:
        "14c80158efcbdb07be3971c75ef63cb75c38efd6663a88b8fefcc7209ccc0802",
}


class TestSuffixDerivation:
    def test_derive_views_matches_per_suffix_composition(self):
        for inst in seeded_instances(1):
            if isinstance(inst, MpjInstance):
                expected = tuple(
                    compose_bits(inst.x, inst.middles[j - 1 :]) for j in range(1, inst.k)
                )
            else:
                expected = tuple(
                    chain_layers(inst.layers[j - 1 :], inst.n) for j in range(1, inst.k + 1)
                )
            assert collapsed_suffixes(inst) == expected

    def test_bit_suffixes_match_compose_bits(self):
        for inst in seeded_instances(2):
            if isinstance(inst, MpjInstance):
                suffixes = bit_suffixes(inst.x, inst.middles)
                assert len(suffixes) == len(inst.middles) + 1
                for t, suffix in enumerate(suffixes):
                    assert suffix == compose_bits(inst.x, inst.middles[t:])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
    def test_views_are_pinned(self, kind):
        messages = (Message.from01("01"),)
        perms = sample_instances(5, 4, Variant.MPJ_HAT, (True, True, True), count=20, seed=4)
        views = (
            make_view(inst, j, kind, messages)
            for inst in [*seeded_instances(3), *perms]
            for j in range(1, inst.k + 1)
        )
        assert digest_of(views) == VIEW_DIGESTS[kind]

    def test_interleaved_instances_get_their_own_views(self):
        # each view derives from its own instance; alternating between
        # instances (equal ones included) must never mix them up
        a, b = list(sample_instances(4, 5, Variant.MPJ, count=2, seed=9))
        twin = MpjInstance(a.n, a.k, a.i, a.middles, a.x)
        hat = next(sample_instances(4, 5, Variant.MPJ_HAT, count=1, seed=9))
        alone = {
            id(inst): {(kind, j): make_view(inst, j, kind, ()) for kind in ALL_KINDS for j in range(1, 6)}
            for inst in (a, b, twin, hat)
        }
        order = [a, b, a, twin, hat, b, hat, a]
        for kind in ALL_KINDS:
            for j in range(1, 6):
                for inst in order:
                    assert make_view(inst, j, kind, ()) == alone[id(inst)][kind, j]
        assert alone[id(a)] != alone[id(b)] and alone[id(a)] == alone[id(twin)]

    def test_one_derivation_and_one_walk_per_run(self, monkeypatch):
        # the k views of a run share one derivation and one walk of k-2
        # layer applications; a run of another instance derives afresh; the
        # middle players read the walk point from their view, never walking
        derivations, applications, speaker = [], [], [0]

        def counted(inst):
            derivations.append(inst)
            return collapsed_suffixes(inst)

        apply = LayerFunction.__call__

        def counted_apply(f, r):
            applications.append(speaker[0])  # 0: the runtime itself
            return apply(f, r)

        def speaking(j, fn):
            def player(view):
                speaker[0] = j
                try:
                    return fn(view)
                finally:
                    speaker[0] = 0

            return player

        monkeypatch.setattr(sim, "collapsed_suffixes", counted)
        monkeypatch.setattr(LayerFunction, "__call__", counted_apply)
        mpjk = mpjk_sublinear(naive_perm_protocol(8), 2, 6)
        bucketing = bucketing_protocol(8, 5)
        booleans = sample_instances(8, 6, Variant.MPJ, count=3, seed=5)
        pointers = sample_instances(8, 5, Variant.MPJ_HAT, (True,) * 4, count=3, seed=6)
        runs = 0
        for a, b in zip(booleans, pointers):
            for protocol, inst in ((mpjk, a), (bucketing, b)) * 2:
                players = tuple(speaking(j, fn) for j, fn in enumerate(protocol.players, 1))
                applications.clear()
                sim.run(dataclasses.replace(protocol, players=players), inst)
                runs += 1
                assert derivations[-1] is inst
                assert applications.count(0) == inst.k - 2
                assert not [j for j in applications if 1 < j < inst.k]
        assert len(derivations) == runs == 12


# -- one projection per run --------------------------------------------------------


def verify_text(name, samples, per_player):
    """The text `mpjlab verify` prints for a clean sweep with these worst bits."""
    total, prefix = sum(per_player), sum(per_player[:-1])
    return (
        f"protocol {name}: checked {samples} instances, 0 failures\n"
        f"worst cost {total} bits total, {prefix} before the output message\n"
        f"per-player max bits: {per_player}\n"
        f"cost bound {prefix}: within\n"
    )


class TestOneWalkPerRun:
    @pytest.mark.parametrize(
        "argv, k, samples, per_player",
        [
            ("--protocol bucketing --n 4 --k 1024 --samples 1", 1024, 1, [4] + [6] * 1021 + [8, 2]),
            ("--protocol mpjk-sublinear --n 8 --k 256 --d 2 --samples 4", 256, 4,
             [4064] + [16] * 254 + [1]),
        ],
        ids=["bucketing", "mpjk-sublinear"],
    )
    def test_verify_makes_order_k_layer_applications(
        self, monkeypatch, capsys, argv, k, samples, per_player
    ):
        # per run: the brute-force answer and the runtime's walk make at
        # most k each, and the last player's walk, replayed, at most 2k; a
        # walk per middle player made k^2/2 (1,046,529 and 260,116 here)
        apply, calls = LayerFunction.__call__, [0]

        def counted(f, r):
            calls[0] += 1
            return apply(f, r)

        monkeypatch.setattr(LayerFunction, "__call__", counted)
        assert cli_main(["verify", *argv.split()]) == 0
        assert calls[0] < 4 * k * samples
        name = argv.split()[1]
        assert capsys.readouterr().out == verify_text(name, samples, per_player)


# -- trusted derived values -------------------------------------------------------


def accepted_bits():
    """Every kind of element a BitVector accepts as a bit."""
    return st.one_of(
        st.integers(0, 1),
        st.booleans(),
        st.sampled_from(list(Bit)),
        st.sampled_from([1.0, 0.0, -0.0, 1 + 0j, Fraction(1), Decimal(0)]),
        st.sampled_from([EqualsOneHashedElsewhere(), UnhashableZero()]),
    )


def accepted_points(n):
    """Every kind of value a LayerFunction accepts as a point of [n]."""
    return st.one_of(
        st.integers(1, n),
        st.integers(1, n).map(Ordinal),
        st.sampled_from([p for p in Point if p <= n]),
    )


@st.composite
def layer_chains(draw):
    """A width, 0..4 layers of accepted points and a bit layer of accepted bits."""
    n = draw(st.integers(1, 7))

    def values(elements):
        return tuple(draw(st.lists(elements, min_size=n, max_size=n)))

    layers = tuple(
        LayerFunction(n, values(accepted_points(n))) for _ in range(draw(st.integers(0, 4)))
    )
    return n, layers, BitVector(n, values(accepted_bits()))


def same_value(got, checked):
    """Equal to the checked build, and hashed alike (or refused alike)."""
    assert got == checked
    assert outcome(hash, got) == outcome(hash, checked)


class TestTrustedPaths:
    @settings(max_examples=300, deadline=None)
    @given(layer_chains())
    def test_derived_layers_equal_checked_builds(self, chain):
        n, layers, x = chain
        points = range(1, n + 1)
        for f, g in itertools.product(layers, repeat=2):
            same_value(f.after(g), LayerFunction(n, tuple(f.values[v - 1] for v in g.values)))
        for f in layers:
            same_value(x.through(f), BitVector(n, tuple(x.bits[v - 1] for v in f.values)))
        same_value(
            chain_layers(layers, n), LayerFunction(n, tuple(follow_pointers(r, layers) for r in points))
        )
        expected = [
            BitVector(n, tuple(x.bits[follow_pointers(r, layers[t:]) - 1] for r in points))
            for t in range(len(layers) + 1)
        ]
        for got, want in zip(bit_suffixes(x, layers), expected, strict=True):
            same_value(got, want)
        boolean = MpjInstance(n, len(layers) + 2, 1, layers, x)
        for got, want in zip(collapsed_suffixes(boolean), expected, strict=True):
            same_value(got, want)
        if layers:
            hat = MpjHatInstance(n, len(layers) + 1, 1, layers)
            expected = [
                LayerFunction(n, tuple(follow_pointers(r, layers[t:]) for r in points))
                for t in range(len(layers) + 1)
            ]
            for got, want in zip(collapsed_suffixes(hat), expected, strict=True):
                same_value(got, want)
        for f in layers:
            for d in (1, 2, 3):
                for scope in (None, frozenset(range(1, n + 1, 2))):
                    cover = build_d_cover(f, d) if scope is None else build_sd_cover(f, scope, d)
                    for pi in cover.perms:
                        same_value(pi, LayerFunction(n, pi.values))

    def test_every_cover_member_equals_its_checked_build(self):
        for f in every_width_layers(602):
            scope = frozenset(range(1, f.n + 1, 2))
            for d in sorted({1, 2, 3, f.n + 1}):
                for cover in (build_d_cover(f, d), build_sd_cover(f, scope, d)):
                    for pi in cover.perms:
                        same_value(pi, LayerFunction(f.n, pi.values))
                        assert pi.is_permutation and {type(v) for v in pi.values} == {int}

    def test_widths_are_still_checked(self):
        f, g = LayerFunction(2, (2, 1)), LayerFunction(3, (1, 1, 2))
        for call in (lambda: f.after(g), lambda: BitVector.from01("011").through(f)):
            with pytest.raises(ValueError, match="composition requires matching widths"):
                call()

    def test_named_opening_cases(self):
        for raw in ((True, 0, 1.0), (1.0,), (Bit.ONE, False, -0.0, Fraction(1)), (0, 0, 0)):
            x = BitVector(len(raw), raw)
            opening = naive_perm_protocol(x.n).alpha(LayerFunction.identity(x.n), x)
            assert opening == Message(raw) == Message.from01(x.to01())


# -- one cover plan per middle-layer tuple -------------------------------------------


def counted_builders(monkeypatch):
    """Clear the plan memo and count the chain and cover builds `jump` makes
    from here on: {"chain": ..., "covers": ...}."""
    jump._plan.cache_clear()
    counts = {"chain": 0, "covers": 0}

    def counted(key, fn):
        def build(*args):
            counts[key] += 1
            return fn(*args)

        return build

    monkeypatch.setattr(jump, "build_sj_chain", counted("chain", jump.build_sj_chain))
    monkeypatch.setattr(jump, "build_d_cover", counted("covers", jump.build_d_cover))
    monkeypatch.setattr(jump, "build_sd_cover", counted("covers", jump.build_sd_cover))
    return counts


def alternating(*outputs):
    """A subprotocol function that returns the next of `outputs` on every call."""
    calls = itertools.count()
    return lambda *args: outputs[next(calls) % len(outputs)]


def identity_instance(n, k, start=1):
    """Permutation middles, so every level resolves through a cover and the
    last player always reaches gamma."""
    ident = LayerFunction.identity(n)
    return MpjInstance(n, k, start, (ident,) * (k - 2), BitVector.from01("01" * (n // 2)))


class TestOnePlanPerMiddles:
    def test_a_run_builds_one_chain_and_one_cover_per_level(self, monkeypatch):
        # the first and the last player, each called twice, used to build
        # the chain 4 times and each level's cover 4 times
        n, k, d = 8, 6, 2
        counts = counted_builders(monkeypatch)
        protocol = mpjk_sublinear(naive_perm_protocol(n), d, k)
        (inst,) = sample_instances(n, k, Variant.MPJ, count=1, seed=13)
        sim.run(protocol, inst)
        assert counts == {"chain": 1, "covers": k - 2}
        flipped = BitVector(n, tuple(1 - b for b in inst.x.bits))
        again = MpjInstance(n, k, inst.i % n + 1, inst.middles, flipped)
        assert run_outcome(protocol, again)[0] == "ok"
        assert counts == {"chain": 1, "covers": k - 2}

    @pytest.mark.parametrize("k, d", [(3, 1), (5, 1), (3, 3)])
    def test_replay_still_catches_an_alternating_opening(self, k, d):
        # (k-2)d openings per call is odd, so the replay's differ
        n = 4
        naive = naive_perm_protocol(n)
        inst = identity_instance(n, k)
        sim.run(mpjk_sublinear(naive, d, k), inst)  # the plan is now shared
        P = dataclasses.replace(
            naive, alpha=alternating(Message.from_uint(0, n), Message.from_uint(1, n))
        )
        with pytest.raises(sim.ProtocolContractError, match="^player 1 is nondeterministic"):
            sim.run(mpjk_sublinear(P, d, k), inst)

    @pytest.mark.parametrize("k, d", [(3, 1), (5, 1), (4, 3)])
    def test_replay_still_catches_an_alternating_answer(self, k, d):
        n = 4
        naive = naive_perm_protocol(n)
        inst = identity_instance(n, k, start=2)
        sim.run(mpjk_sublinear(naive, d, k), inst)
        P = dataclasses.replace(naive, gamma=alternating(0, 1))
        with pytest.raises(sim.ProtocolContractError, match=f"^player {k} is nondeterministic"):
            sim.run(mpjk_sublinear(P, d, k), inst)

    @pytest.mark.parametrize("k, d", [(3, 1), (4, 2), (5, 1)])
    def test_equal_middles_share_a_plan_and_match_the_walking_players(
        self, monkeypatch, k, d
    ):
        # each twin's middles are rebuilt, with IntEnum points, as new objects
        n = 3
        counts = counted_builders(monkeypatch)
        new = mpjk_sublinear(naive_perm_protocol(n), d, k)
        old = dataclasses.replace(new, players=ref_mpjk_players(ref_naive(n), d, k))
        instances = list(sample_instances(n, k, Variant.MPJ, count=30, seed=17 + k))
        for inst in instances:
            twin_middles = tuple(
                LayerFunction(n, tuple(Point(v) for v in f.values)) for f in inst.middles
            )
            twin = MpjInstance(n, k, Point(inst.i), twin_middles, inst.x)
            assert all(a is not b and a == b for a, b in zip(inst.middles, twin_middles))
            assert run_outcome(new, inst)[0] == "ok"
            built_before = dict(counts)
            assert run_outcome(new, twin) == run_outcome(new, inst) == run_outcome(old, twin)
            assert counts == built_before
        assert counts["chain"] <= len(instances)
        assert counts["covers"] == (k - 2) * counts["chain"]

    def test_covers_do_not_pile_up_across_runs(self, monkeypatch):
        # the plan memo is the one cache on the cover path: once a plan is
        # evicted, nothing else keeps its covers alive
        n, k, d, runs = 16, 6, 2, 200
        jump._plan.cache_clear()
        built = []

        def tracked(fn):
            def build(*args):
                cover = fn(*args)
                built.append(weakref.ref(cover))
                return cover

            return build

        monkeypatch.setattr(jump, "build_d_cover", tracked(jump.build_d_cover))
        monkeypatch.setattr(jump, "build_sd_cover", tracked(jump.build_sd_cover))
        protocol = mpjk_sublinear(naive_perm_protocol(n), d, k)
        for inst in sample_instances(n, k, Variant.MPJ, count=runs, seed=29):
            sim.run(protocol, inst)
        gc.collect()
        assert len(built) == runs * (k - 2)
        alive = sum(ref() is not None for ref in built)
        assert alive <= 16 * (k - 2)  # the 16 plans _plan keeps


class TestEmptyLevelsBuildNoRotation:
    def test_a_plan_rotates_its_plain_level_and_its_non_empty_scoped_levels(self, monkeypatch):
        # the benchmark's sweep-sublinear space, where S_3 and S_4 are always
        # empty: the scoped cover of an empty level is d identities
        n, k, d = 16, 6, 2
        jump._plan.cache_clear()
        chains, counts = [], {"scoped": 0, "rotations": 0}

        def recorded(fn):
            def build(*args):
                chain = fn(*args)
                chains.append(chain.levels)
                return chain

            return build

        def counted(key, fn):
            def build(*args):
                counts[key] += 1
                return fn(*args)

            return build

        monkeypatch.setattr(jump, "build_sj_chain", recorded(jump.build_sj_chain))
        monkeypatch.setattr(jump, "build_sd_cover", counted("scoped", jump.build_sd_cover))
        monkeypatch.setattr(covers, "_cover", counted("rotations", covers._cover))
        protocol = mpjk_sublinear(naive_perm_protocol(n), d, k)
        for inst in sample_instances(n, k, Variant.MPJ, count=1000, seed=1):
            sim.run(protocol, inst)
        assert counts["scoped"] == (k - 3) * len(chains)
        # levels[1:-1] are the scoped levels S_2..S_{k-2}
        expected = sum(1 + sum(1 for scope in levels[1:-1] if scope) for levels in chains)
        assert counts["rotations"] == expected == 1823


# -- bucketing players on ints ----------------------------------------------------

BUCKETING = {"bucketing": bucket_width_plan, "bucketing-doubling": doubling_plan}


def bucketing_cases(name, k):
    """(handle, plan) for every n in 1..40 the plan admits."""
    for n in range(1, 41):
        try:
            plan = BUCKETING[name](n, k)
        except ValueError:  # doubling needs enough players
            continue
        yield protocol_for_plan(plan, name), plan


def run_outcome(protocol, inst):
    try:
        t = sim.run(protocol, inst)
    except Exception as exc:  # noqa: BLE001 - the exception is the observation
        return (type(exc).__name__, str(exc))
    return ("ok", tuple(m.to01() for m in t.messages), t.output, t.per_player_bits)


def without_point(msg, n, width, point):
    """`msg` with `point` taken out of the survivors, sizes kept consistent."""
    bits = msg.to01()
    survivors = [r for r in range(1, n + 1) if bits[r - 1] == "1"]
    rank = survivors.index(point)
    indicator = bits[: point - 1] + "0" + bits[point:n]
    area = bits[n:]
    return Message.from01(indicator + area[: rank * width] + area[(rank + 1) * width :])


def tampered_boards(inst, messages, plan):
    """(label, announcement j, tampered message, expected error text or None)."""
    n = inst.n
    first = messages[0]
    yield "first-short", 1, first.slice(0, len(first) - 1), "first announcement has the wrong size"
    for j in range(2, plan.terminal + 1):
        msg, width = messages[j - 1], plan.width(j)
        bits = msg.to01()
        walk_point = follow_pointers(inst.i, inst.layers[: j - 1])
        survivors = [r for r in range(1, n + 1) if bits[r - 1] == "1"]
        rank = survivors.index(walk_point)
        where = "first" if rank == 0 else "last" if rank == len(survivors) - 1 else "middle"
        yield f"dropped-{where}", j, without_point(msg, n, width, walk_point), "walk point missing"
        yield "area-truncated", j, msg.slice(0, len(msg) - 1), "index area has the wrong size"
        yield "area-extended", j, msg + Message.from01("0"), "index area has the wrong size"
        yield "indicator-short", j, msg.slice(0, n - 1), "shorter than its membership indicator"
        if len(survivors) < n:
            extra = next(r for r in range(1, n + 1) if bits[r - 1] == "0")
            flagged = Message.from01(bits[: extra - 1] + "1" + bits[extra:])
            yield "extra-indicator-bit", j, flagged, "index area has the wrong size"
        # a wrong but well-formed index: the readers must still agree
        at = n + rank * width
        flipped = Message.from01(bits[:at] + ("1" if bits[at] == "0" else "0") + bits[at + 1 :])
        yield "index-flipped", j, flipped, None


def tampered_runs(name, n, k):
    """(instance, label, j, board, expected error) over 25 seeded runs: the
    first k-1 messages with announcement j tampered."""
    plan = BUCKETING[name](n, k)
    proto = protocol_for_plan(plan, name)
    for inst in sample_instances(n, k, Variant.MPJ_HAT, (True,) * (k - 1), count=25, seed=n + k):
        good = sim.run(proto, inst).messages[: k - 1]
        for label, j, msg, error in tampered_boards(inst, good, plan):
            yield inst, label, j, good[: j - 1] + (msg,) + good[j:], error


# sha256 over run_outcome of every seeded run below, recorded from the
# bucketing players that called the layer and `bucket_index` per point and
# parsed announcements into tuples
TRANSCRIPT_DIGESTS = {
    "bucketing": "1553eced8261dfe438e071576e11fb7fd08512b44efcb1fe1045bd4d28e0c22a",
    "bucketing-doubling": "fe58f3bc21967a1c0dc6b922471ee86b8c1ad7573f2e8e726317d04954126293",
}

# sha256 over (label, j, reader, outcome) of every tampered board read by
# its successor and by the last player, recorded from those players
TAMPER_DIGESTS = {
    ("bucketing", 16, 5): "61174199737f3784dec51941d5f8502c0fa3dc52f2bc75ca86dfb771d53dfce4",
    ("bucketing", 13, 6): "8f51282f5a52d1933e366035eb839b27eaac8efe2d6ff73e6cc9de6136a8b2d7",
    ("bucketing", 40, 4): "1d1da8b9cf746c8a62023d860a64e3ca4085b070feef70e6ec78aeb29c27a91a",
    ("bucketing", 5, 3): "f21acef539e7813f65939c986c43d0c2fcad10c80ed5aa24b86662fff21c8a90",
    ("bucketing", 3, 7): "aa1c334bbabef48539ec8a0737ce641c05321d7edb3702ed59a2ccdeacac0f43",
    ("bucketing-doubling", 16, 8):
        "c79f08ab73ab12be3bfa767fc213ff1f4ac054688f5a9f339306fb7c27b4f2bd",
    ("bucketing-doubling", 21, 5):
        "0cec15ab9398e53ac52e41d5094e9a5d90c2055581535015b77c6ff11ccab205",
}
TAMPER_CASES = list(TAMPER_DIGESTS)


class TestBucketingPlayers:
    @pytest.mark.parametrize("name", TRANSCRIPT_DIGESTS)
    def test_transcripts_are_pinned(self, name):
        # every width 1..40 and k in 3..9: powers of two and not, and plans
        # with more buckets than points (empty buckets)
        outcomes, widths = [], set()
        for k in range(3, 10):
            for handle, plan in bucketing_cases(name, k):
                n = plan.n
                insts = [
                    *sample_instances(n, k, Variant.MPJ_HAT, (True,) * (k - 1), count=4, seed=n * k),
                    *sample_instances(n, k, Variant.MPJ_HAT, count=1, seed=n * k),
                ]
                for inst in insts:
                    outcomes.append(run_outcome(handle, inst))
                    assert outcomes[-1][0] == "ok"
                widths.add(n)
        assert widths == set(range(1, 41))
        assert digest_of(outcomes) == TRANSCRIPT_DIGESTS[name]

    @pytest.mark.parametrize("name, n, k", TAMPER_CASES)
    def test_tampered_boards_raise_as_before(self, name, n, k):
        plan = BUCKETING[name](n, k)
        handle = protocol_for_plan(plan, name)
        seen, outcomes = set(), []
        for inst, label, j, board, error in tampered_runs(name, n, k):
            seen.add(label)
            # its successor reads announcement j unless it is past the
            # terminal player and silent; the last player reads every one
            for reader in sorted({j + 1, k}):
                view = make_view(inst, reader, ViewKind.COLLAPSING, board[: reader - 1])
                got = outcome(handle.players[reader - 1], view)
                outcomes.append((label, j, reader, got))
                if error is not None and (reader == k or reader <= plan.terminal):
                    assert got[0] == "ProtocolInvariantError" and error in got[1]
        expected = {"first-short", "area-truncated", "area-extended", "indicator-short",
                    "extra-indicator-bit", "index-flipped"}
        if plan.terminal >= 2:
            assert expected <= seen
        assert digest_of(outcomes) == TAMPER_DIGESTS[name, n, k]

    def test_tampering_reaches_every_check(self):
        # the walk point is dropped at the first, a middle and the last rank,
        # and the last player meets each of its errors
        labels, errors = set(), set()
        for name, n, k in TAMPER_CASES:
            last = protocol_for_plan(BUCKETING[name](n, k), name).players[k - 1]
            for inst, label, _, board, _ in tampered_runs(name, n, k):
                labels.add(label)
                errors.add(outcome(last, make_view(inst, k, ViewKind.COLLAPSING, board))[1])
        assert {"dropped-first", "dropped-middle", "dropped-last"} <= labels
        assert {
            "first announcement has the wrong size",
            "announcement shorter than its membership indicator",
            "announcement index area has the wrong size",
            "walk point missing from the surviving set",
            "terminal bucket is not a singleton",
        } <= errors


# -- the fooling-pair attack ---------------------------------------------------


class TestAttackPaths:
    def test_a_pair_computes_its_patterns_once(self, monkeypatch):
        calls, patterns = [], adversary.iab_sets

        def counted(x, xp):
            calls.append((x, xp))
            return patterns(x, xp)

        monkeypatch.setattr(adversary, "iab_sets", counted)
        x, xp = BitVector.from01("00110101"), BitVector.from01("01010011")
        expected = patterns(x, xp)
        pair = CrossingPair(x, xp)
        for _ in range(9):
            for p in PATTERNS:
                assert pair.positions(*p) == expected[p]
        assert pair.crossing
        assert calls == [(x, xp)]
        assert CrossingPair(x, xp) == pair

    @staticmethod
    def attack_views(name, n, k):
        """Every view the cell search shows a player of the named target."""
        handle = build_protocol(name, n=n, k=k, seed=1).handle
        seen = []

        def recording(fn):
            def player(view):
                seen.append(view)
                return fn(view)

            return player

        build_fooling_inputs(
            dataclasses.replace(handle, players=tuple(map(recording, handle.players)))
        )
        assert {view.j for view in seen} == set(range(1, k))
        return seen

    @pytest.mark.parametrize("name, n, k", [("truncate4", 16, 4), ("hash4", 16, 5), ("parity3", 10, 6)])
    def test_attack_views_carry_their_walk_point(self, name, n, k):
        # the adversary builds its own collapsing views; each shows the walk
        # point its start and prefix layers give, as the runtime's views do
        for view in self.attack_views(name, n, k):
            assert view.kind is ViewKind.COLLAPSING
            if view.j == 1:
                assert view.start is None and view.walked is None
            else:
                assert len(view.prefix_layers) == view.j - 2
                assert view.walked == follow_pointers(view.start, view.prefix_layers)

    @pytest.mark.parametrize("name, n, k", [("truncate4", 16, 4), ("hash4", 16, 5), ("parity3", 10, 6)])
    def test_attack_views_carry_exactly_the_view_fields(self, name, n, k):
        # each view's fields are set as one dict: a field added to PlayerView
        # and missing from that dict would fail here
        names = {f.name for f in dataclasses.fields(PlayerView)}
        for view in self.attack_views(name, n, k):
            assert vars(view).keys() == names
            assert view == PlayerView(**vars(view))
            assert view.later_layers is None and view.final_bits is None

    def test_the_search_builds_no_checked_layer_or_view(self, monkeypatch):
        # each level's evaluations, recorded while layers and views were
        # still built checked: unchecked builds stop every search at the
        # same layer, so the pairs are unchanged too
        evaluations = {"truncate4": [2, 2, 2], "parity4": [9, 5, 7], "hash4": [3, 3, 10]}
        checks = []
        post_init, init = BitVector.__post_init__, PlayerView.__init__

        def checked_bits(self):
            checks.append("bits")
            post_init(self)

        def checked_view(self, *args, **kwargs):
            checks.append("view")
            init(self, *args, **kwargs)

        monkeypatch.setattr(BitVector, "__post_init__", checked_bits)
        monkeypatch.setattr(PlayerView, "__init__", checked_view)
        for name, counts in evaluations.items():
            handle = build_protocol(name, n=16, k=4, seed=1).handle
            per_level = [0] * (handle.k - 1)

            def counting(fn):
                def player(view):
                    per_level[view.j - 1] += 1
                    return fn(view)

                return player

            build_fooling_inputs(
                dataclasses.replace(handle, players=tuple(map(counting, handle.players)))
            )
            assert per_level == counts, name
        assert checks == []

"""The linear hot paths agree with the definitions they replaced.

Each reference below is the code the package ran before: per-element
validation loops, one `fiber()` scan per point, one `chain_layers` /
`compose_bits` per player or level, covers built rotation by rotation
with one modular index per point, bucketing players that call the layer
and `bucket_index` per point and parse announcements into tuples, joint
patterns read by 2n checked position calls (once per pattern and once per
`positions` read), parity players that sum mask products, views and
players that walk their own prefix, cover players that build the
surviving chain and each level's cover on every call, and derived layers,
bit layers and messages built by the validating constructors. The
package's one-pass and trusted versions must accept, reject, count and
compose exactly as these do, with the same error texts.
"""

import dataclasses
import gc
import itertools
import random
import weakref
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from mpjlab.covers import (
    _fibers_and_pads,
    build_d_cover,
    build_sd_cover,
    verify_d_cover,
    verify_sd_cover,
)
from mpjlab import jump, sim
from mpjlab.bucketing import (
    bucket_index,
    bucket_members,
    bucket_width_plan,
    bucketing_protocol,
    doubling_plan,
    protocol_for_plan,
)
from mpjlab import adversary
from mpjlab.adversary import (
    PATTERNS,
    CrossingPair,
    build_fooling_inputs,
    half_weight_strings,
    iab_sets,
    is_crossing,
)
from mpjlab.families import parity_protocol
from mpjlab.jump import (
    PermProtocol3,
    SjChain,
    build_sj_chain,
    mpjk_sublinear,
    naive_perm_protocol,
)
from mpjlab.cli import main as cli_main
from mpjlab.registry import build_protocol
from mpjlab.sim import (
    Message,
    PlayerView,
    ProtocolHandle,
    ProtocolInvariantError,
    ViewKind,
    encode_pointer,
    make_view,
)

ALL_KINDS = (ViewKind.FULL_ONE_WAY, ViewKind.COLLAPSING, ViewKind.CONSERVATIVE_COLLAPSING)


# -- references ---------------------------------------------------------------


def ref_check_point(n, value, what):
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= n:
        raise ValueError(f"{what} must be an integer in [1, {n}], got {value!r}")


def ref_are_points(n, values):
    return (
        type(values) is tuple
        and all(type(v) is int for v in values)
        and min(values) >= 1
        and max(values) <= n
    )


def ref_layer(n, values):
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    for v in values:
        ref_check_point(n, v, "layer value")


def ref_bit_vector(n, bits):
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if len(bits) != n:
        raise ValueError(f"expected {n} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")


def ref_message(bits):
    if any(b not in (0, 1) for b in bits):
        raise ValueError("message bits must be 0 or 1")


def ref_apply(n, values, r, what):
    ref_check_point(n, r, what)
    return values[r - 1]


def ref_fiber(f, s):
    return tuple(r for r in range(1, f.n + 1) if f.values[r - 1] == s)


def ref_sj_chain(middles, d):
    n = middles[0].n
    levels = [frozenset(range(1, n + 1))]
    for f in middles:
        prev = levels[-1]
        levels.append(
            frozenset(
                s for s in range(1, n + 1) if sum(1 for r in ref_fiber(f, s) if r in prev) > d
            )
        )
    return SjChain(n, d, tuple(levels))


def ref_fiber_partition(f):
    range_values = tuple(sorted(set(f.values)))
    fibers = tuple(ref_fiber(f, s) for s in range_values)
    spare = [r for r in range(1, f.n + 1) if r not in set(range_values)]
    spare.reverse()
    blocks = []
    for s, fib in zip(range_values, fibers):
        block = [s] + [spare.pop() for _ in range(len(fib) - 1)]
        blocks.append(tuple(sorted(block)))
    return range_values, fibers, tuple(blocks)


def ref_verify_d_cover(perms, f, d):
    for r in range(1, f.n + 1):
        target = f(r)
        if any(pi(r) == target for pi in perms):
            continue
        if len(ref_fiber(f, target)) > d:
            continue
        return False, r
    return True, None


def ref_verify_sd_cover(perms, f, scope, d):
    scope_set = frozenset(scope)
    for r in sorted(scope_set):
        target = f(r)
        if any(pi(r) == target for pi in perms):
            continue
        if sum(1 for p in ref_fiber(f, target) if p in scope_set) > d:
            continue
        return False, r
    return True, None


def ref_mod_to_range(value, modulus):
    return (value - 1) % modulus + 1


def ref_rotations(ordered_fibers, ordered_blocks, n, d):
    pairs = list(zip(ordered_fibers, ordered_blocks))
    perms = []
    for ell in range(1, d + 1):
        vals = [0] * n
        for fib, block in pairs:
            width = len(block)
            for j, point in enumerate(fib, start=1):
                vals[point - 1] = block[ref_mod_to_range(j - ell, width) - 1]
        perms.append(LayerFunction(n, tuple(vals)))
    return tuple(perms)


def ref_d_cover(f, d):
    _, fibers, blocks = ref_fiber_partition(f)
    return ref_rotations(fibers, blocks, f.n, d)


def ref_sd_cover(f, scope, d):
    ordered_fibers = []
    ordered_blocks = []
    for s, fib, block in zip(*ref_fiber_partition(f)):
        inside = tuple(r for r in fib if r in scope)
        outside = tuple(r for r in fib if r not in scope)
        ordered_fibers.append(inside + outside)
        ordered_blocks.append(tuple(b for b in block if b != s) + (s,))
    return ref_rotations(ordered_fibers, ordered_blocks, f.n, d)


def ref_make_view(inst, j, kind, messages):
    n, k = inst.n, inst.k
    base = dict(j=j, n=n, k=k, variant=inst.variant, kind=kind, messages=messages)
    boolean = isinstance(inst, MpjInstance)
    layers = inst.middles if boolean else inst.layers
    if boolean:
        suffix = compose_bits(inst.x, inst.middles[j - 1 :]) if j < k else None
    else:
        suffix = chain_layers(layers[j - 1 :], n)
    # every kind shows the walk point entering layer j, walked per view
    walked = follow_pointers(inst.i, layers[: j - 2]) if j >= 2 else None
    if kind is ViewKind.FULL_ONE_WAY:
        return PlayerView(
            **base,
            start=inst.i if j != 1 else None,
            walked=walked,
            prefix_layers=layers[: j - 2] if j >= 2 else (),
            later_layers=layers[j - 1 :],
            final_bits=inst.x if boolean and j != k else None,
            suffix=suffix,
        )
    if kind is ViewKind.COLLAPSING:
        return PlayerView(
            **base,
            start=inst.i if j != 1 else None,
            walked=walked,
            prefix_layers=layers[: j - 2] if j >= 2 else (),
            suffix=suffix,
        )
    return PlayerView(**base, walked=walked, suffix=suffix)


def ref_parse_survivors(msg, n, width):
    if len(msg) < n:
        raise ProtocolInvariantError("announcement shorter than its membership indicator")
    indicator = msg.value >> (len(msg) - n)  # bit n - r flags point r
    survivors = tuple(r for r in range(1, n + 1) if indicator >> (n - r) & 1)
    indices = msg.slice(n, len(msg))
    if len(indices) != len(survivors) * width:
        raise ProtocolInvariantError("announcement index area has the wrong size")
    return survivors, indices


def ref_read_index(area, rank, width):
    return area.slice(rank * width, (rank + 1) * width).to_uint() + 1


def ref_bucket_of_walk(view, plan, j, walk_point):
    prev = view.messages[j - 2]
    prev_width = plan.width(j - 1)
    if j == 2:
        if len(prev) != view.n * prev_width:
            raise ProtocolInvariantError("first announcement has the wrong size")
        return ref_read_index(prev, walk_point - 1, prev_width)
    survivors, indices = ref_parse_survivors(prev, view.n, prev_width)
    if walk_point not in survivors:
        raise ProtocolInvariantError("walk point missing from the surviving set")
    return ref_read_index(indices, survivors.index(walk_point), prev_width)


def ref_make_bucketing(plan, name):
    """The bucketing players before they read ints: a checked layer call and
    a `bucket_index` per point, survivors and indices parsed into tuples."""
    n, k = plan.n, plan.k

    def index_area(g, points, t):
        value = count = 0
        limit = 1 << t
        for r in points:
            index = bucket_index(t, n, g(r)) - 1
            if not 0 <= index < limit:
                raise ValueError(f"{index} does not fit in {t} bits")
            value = (value << t) | index
            count += 1
        return Message.from_uint(value, count * t)

    def speak_first(view):
        return index_area(view.suffix, range(1, n + 1), plan.width(1))

    def announcer_for(j):
        def speak_buckets(view):
            if j > plan.terminal:
                return Message()
            walk_point = follow_pointers(view.start, view.prefix_layers)
            bucket = ref_bucket_of_walk(view, plan, j, walk_point)
            members = set(bucket_members(plan.width(j - 1), n, bucket))
            g = view.suffix
            survivors = tuple(s for s in range(1, n + 1) if g(s) in members)
            indicator = sum(1 << (n - s) for s in survivors)
            return Message.from_uint(indicator, n) + index_area(g, survivors, plan.width(j))

        return speak_buckets

    def speak_answer(view):
        walk_point = view.start
        for j in range(2, plan.terminal + 2):
            if j > 2:
                walk_point = view.prefix_layers[j - 3](walk_point)
            value = ref_bucket_of_walk(view, plan, j, walk_point)
        members = bucket_members(plan.width(plan.terminal), n, value)
        if len(members) != 1:
            raise ProtocolInvariantError("terminal bucket is not a singleton")
        return encode_pointer(members[0], n)

    players = (speak_first, *[announcer_for(j) for j in range(2, k)], speak_answer)
    return ProtocolHandle(name, k, Variant.MPJ_HAT, ViewKind.COLLAPSING, players, n)


def ref_iab_sets(x, xp):
    """Joint patterns read by 2n checked position calls."""
    if x.n != xp.n:
        raise ValueError("joint patterns need equal widths")
    out = {p: [] for p in PATTERNS}
    for r in range(1, x.n + 1):
        out[(x(r), xp(r))].append(r)
    return {p: tuple(v) for p, v in out.items()}


def ref_is_crossing(x, xp):
    """All four patterns, with the patterns recomputed for each one."""
    return all(ref_iab_sets(x, xp)[p] for p in PATTERNS)


def ref_positions(pair, a, b):
    return ref_iab_sets(pair.x, pair.xp)[(a, b)]


def ref_to01(x):
    return "".join(str(b) for b in x.bits)


def ref_parity_players(n, k, t, seed):
    """The parity players before packing: mask tuples, one product sum per bit."""
    masks = {}
    for j in range(1, k):
        rng = random.Random((seed << 16) + j)
        masks[j] = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(t)]

    def speak(j):
        own = masks[j]

        def fn(view):
            return Message(
                tuple(sum(m * b for m, b in zip(mask, view.suffix.bits)) & 1 for mask in own)
            )

        return fn

    return tuple(speak(j) for j in range(1, k))


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


def outcome(fn, *args):
    """What a call does: ("ok", result) or (exception type name, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the observation
        return (type(exc).__name__, str(exc))


# -- validation ---------------------------------------------------------------


class Point(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


class Ordinal(int):
    """A plain int subclass: the fast test misses it, the per-value rule takes it."""


class Bit(IntEnum):
    ZERO = 0
    ONE = 1


class EqualsOneHashedElsewhere:
    """Equal to 1 but hashed apart from it: `in (0, 1)` finds it, a set does not."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return 12345

    def __repr__(self):
        return "EqualsOneHashedElsewhere()"


class UnhashableZero:
    """Equal to 0 and unhashable."""

    __hash__ = None

    def __eq__(self, other):
        return other == 0

    def __repr__(self):
        return "UnhashableZero()"


def odd_values(n):
    """Values of every kind the old loops had to judge."""
    return st.one_of(
        st.integers(-1, n + 2),
        st.booleans(),
        st.sampled_from(list(Point)),
        st.sampled_from([1.0, 2.0, 0.5, float("nan"), "1", None, Fraction(1), Decimal(1)]),
        st.lists(st.integers(1, n), max_size=2),
    )


def odd_bits():
    return st.one_of(
        st.integers(-1, 2),
        st.booleans(),
        st.sampled_from(list(Bit)),
        st.sampled_from([
            1.0, 0.0, -0.0, 0.5, 1 + 0j, "1", None, Fraction(1), Decimal(0),
            EqualsOneHashedElsewhere(), UnhashableZero(),
        ]),
        st.lists(st.integers(0, 1), max_size=2),
    )


@st.composite
def mostly_valid(draw, elements, good):
    """A sequence that is usually valid except for a few drawn odd elements."""
    n = draw(st.integers(1, 5))
    values = draw(st.lists(good(n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        if values:
            values[draw(st.integers(0, len(values) - 1))] = draw(elements(n))
    container = draw(st.sampled_from([tuple, list]))
    return n, container(values)


def point_like(n):
    """Values around [1, n] of every type the fast point test must judge."""
    return st.one_of(
        st.integers(-1, n + 2),
        st.booleans(),
        st.sampled_from(list(Point)),
        st.integers(-1, n + 2).map(Ordinal),
        st.sampled_from([1.0, 2.0, 0.5, float("nan"), Fraction(1), Decimal(1)]),
    )


class TestValidation:
    @settings(max_examples=500, deadline=None)
    @given(mostly_valid(point_like, lambda n: st.integers(1, n)), st.integers(-1, 1))
    def test_point_test_matches_the_old_rule(self, case, width_shift):
        n, values = case
        width = n + width_shift
        assert outcome(core._are_points, width, values) == outcome(ref_are_points, width, values)
        assert outcome(built, LayerFunction, width, values) == outcome(ref_layer, width, values)

    @pytest.mark.parametrize(
        "values",
        [(), (1, 2), [1, 2], (True, 2), (Point.ONE, 2), (Ordinal(1), 2), (1.0, 2), (0, 2), (1, 3)],
    )
    def test_named_point_cases(self, values):
        # the empty tuple raises from min() under both rules
        assert outcome(core._are_points, 2, values) == outcome(ref_are_points, 2, values)

    @settings(max_examples=400, deadline=None)
    @given(mostly_valid(odd_values, lambda n: st.integers(1, n)), st.integers(-1, 1))
    def test_layer_function_accepts_and_rejects_as_before(self, case, width_shift):
        n, values = case
        width = n + width_shift
        assert outcome(built, LayerFunction, width, values) == outcome(ref_layer, width, values)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=n, max_size=n),
                            odd_values(n))
    ))
    def test_layer_application_accepts_and_rejects_as_before(self, case):
        n, values, r = case
        f = LayerFunction(n, tuple(values))
        assert outcome(f, r) == outcome(ref_apply, n, tuple(values), r, "argument")

    @settings(max_examples=400, deadline=None)
    @given(mostly_valid(lambda n: odd_bits(), lambda n: st.integers(0, 1)))
    def test_bit_vector_accepts_and_rejects_as_before(self, case):
        n, bits = case
        assert outcome(built, BitVector, n, bits) == outcome(ref_bit_vector, n, bits)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 1), min_size=n, max_size=n),
                            odd_values(n))
    ))
    def test_bit_vector_reading_accepts_and_rejects_as_before(self, case):
        n, bits, r = case
        x = BitVector(n, tuple(bits))
        assert outcome(x, r) == outcome(ref_apply, n, tuple(bits), r, "position")

    @settings(max_examples=400, deadline=None)
    @given(mostly_valid(lambda n: odd_bits(), lambda n: st.integers(0, 1)))
    def test_message_accepts_and_rejects_as_before(self, case):
        _, bits = case
        assert outcome(built, Message, bits) == outcome(ref_message, bits)

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
        assert outcome(ref_message, bits)[0] == ("ok" if accepted else "ValueError")
        assert outcome(built, Message, bits) == outcome(ref_message, bits)

    @pytest.mark.parametrize(
        "values, accepted",
        [
            ((1, 2, 3), True),
            ((Point.ONE, 2, 3), True),
            ((True, 2, 3), False),
            ((1.0, 2, 3), False),
            ((0, 2, 3), False),
            ((1, 2, 4), False),  # n + 1
            ([1, 2, 3], True),
            ((1, [2], 3), False),
        ],
    )
    def test_named_layer_cases(self, values, accepted):
        assert outcome(ref_layer, 3, values)[0] == ("ok" if accepted else "ValueError")
        assert outcome(built, LayerFunction, 3, values) == outcome(ref_layer, 3, values)


# -- one-pass fiber counting ----------------------------------------------------


def seeded_layers(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        skew = rng.randint(1, n)  # small skew gives large fibers
        yield LayerFunction(n, tuple(rng.randint(1, skew) for _ in range(n)))


def seeded_perms(rng, n, count):
    out = []
    for _ in range(count):
        vals = list(range(1, n + 1))
        rng.shuffle(vals)
        out.append(LayerFunction(n, tuple(vals)))
    return out


class TestFiberCounting:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sj_chain_matches_fiber_scans(self, d):
        rng = random.Random(100 + d)
        for _ in range(300):
            n = rng.randint(1, 12)
            skew = rng.randint(1, n)
            middles = tuple(
                LayerFunction(n, tuple(rng.randint(1, skew) for _ in range(n)))
                for _ in range(rng.randint(1, 4))
            )
            assert build_sj_chain(middles, d) == ref_sj_chain(middles, d)

    def test_sj_chain_refuses_mixed_widths(self):
        with pytest.raises(ValueError, match="share one width"):
            build_sj_chain((LayerFunction(3, (1, 1, 1)), LayerFunction(2, (1, 1))), 1)

    def test_fiber_partition_matches_fiber_scans(self):
        for f in seeded_layers(7, 500):
            assert [
                (s, tuple(fib), tuple(sorted(pad + [s]))) for s, fib, pad in _fibers_and_pads(f)
            ] == list(zip(*ref_fiber_partition(f)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cover_checks_match_fiber_scans(self, d):
        rng = random.Random(200 + d)
        for f in seeded_layers(300 + d, 200):
            scope = frozenset(r for r in range(1, f.n + 1) if rng.random() < 0.6)
            candidates = [
                build_d_cover(f, d).perms,
                build_sd_cover(f, scope, d).perms,
                tuple(seeded_perms(rng, f.n, d)),  # random members usually fail
            ]
            for perms in candidates:
                assert verify_d_cover(perms, f, d) == ref_verify_d_cover(perms, f, d)
                assert verify_sd_cover(perms, f, scope, d) == ref_verify_sd_cover(
                    perms, f, scope, d
                )

    def test_scope_points_outside_the_range_are_rejected_as_before(self):
        f = LayerFunction(3, (1, 1, 2))
        perms = (LayerFunction.identity(3),)
        for scope in ({1, 2, 9}, {0, 3}, {3, 4}):
            assert outcome(verify_sd_cover, perms, f, scope, 1) == outcome(
                ref_verify_sd_cover, perms, f, scope, 1
            )


# -- one cover builder ----------------------------------------------------------


def every_width_layers(seed):
    """Seeded layers of every width 1..12, from constant to spread out."""
    rng = random.Random(seed)
    for n in range(1, 13):
        for skew in sorted({1, 2, (n + 1) // 2, n}):
            for _ in range(8):
                yield LayerFunction(n, tuple(rng.randint(1, min(skew, n)) for _ in range(n)))


class TestCoverConstruction:
    @pytest.mark.parametrize("scope_kind", ["empty", "random", "full"])
    def test_covers_match_rotations(self, scope_kind):
        rng = random.Random(500)
        for f in every_width_layers(600):
            points = range(1, f.n + 1)
            scope = {
                "empty": frozenset(),
                "random": frozenset(r for r in points if rng.random() < 0.5),
                "full": frozenset(points),
            }[scope_kind]
            for d in sorted({1, 2, 3, f.n + 1}):
                plain = build_d_cover(f, d)
                assert plain.perms == ref_d_cover(f, d)
                assert (plain.d, plain.target, plain.scope) == (d, f, None)
                scoped = build_sd_cover(f, scope, d)
                assert scoped.perms == ref_sd_cover(f, scope, d)
                assert (scoped.d, scoped.target, scoped.scope) == (d, f, scope)

    def test_full_scope_keeps_its_own_order(self):
        # the frozen k=3 transcripts read the plain order
        differ = 0
        for f in every_width_layers(601):
            full = frozenset(range(1, f.n + 1))
            for d in (1, 2, 3):
                plain, scoped = build_d_cover(f, d), build_sd_cover(f, full, d)
                assert plain != scoped
                expected = ref_d_cover(f, d) != ref_sd_cover(f, full, d)
                assert (plain.perms != scoped.perms) == expected
                differ += expected
        assert differ > 0


# -- one suffix derivation -------------------------------------------------------


def seeded_instances(seed):
    for n in (1, 2, 3, 5):
        for k in range(2, 7):
            for variant in Variant:
                yield from sample_instances(n, k, variant, count=4, seed=seed + 10 * n + k)


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
    def test_make_view_is_unchanged(self, kind):
        messages = (Message.from01("01"),)
        for inst in seeded_instances(3):
            for j in range(1, inst.k + 1):
                assert make_view(inst, j, kind, messages) == ref_make_view(inst, j, kind, messages)

    def test_interleaved_instances_get_their_own_views(self):
        # each view derives from its own instance; alternating between
        # instances (equal ones included) must never mix them up
        a, b = list(sample_instances(4, 5, Variant.MPJ, count=2, seed=9))
        twin = MpjInstance(a.n, a.k, a.i, a.middles, a.x)
        hat = next(sample_instances(4, 5, Variant.MPJ_HAT, count=1, seed=9))
        order = [a, b, a, twin, hat, b, hat, a]
        for kind in ALL_KINDS:
            for j in range(1, 6):
                for inst in order:
                    assert make_view(inst, j, kind, ()) == ref_make_view(inst, j, kind, ())

    def test_pointer_variant_with_permutation_layers(self):
        for inst in sample_instances(5, 4, Variant.MPJ_HAT, (True, True, True), count=20, seed=4):
            assert isinstance(inst, MpjHatInstance)
            for j in range(1, 5):
                for kind in ALL_KINDS:
                    assert make_view(inst, j, kind, ()) == ref_make_view(inst, j, kind, ())

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(
        lambda n: st.lists(accepted_bits(), min_size=n, max_size=n)
    ))
    def test_packed_naive_opening_equals_the_checked_message(self, raw):
        n = len(raw)
        x = BitVector(n, tuple(raw))
        P, old = naive_perm_protocol(n), ref_naive(n)
        pi = LayerFunction.identity(n)
        same_value(P.alpha(pi, x), old.alpha(pi, x))
        replies = [P.beta(r, x, P.alpha(pi, x)) for r in range(1, n + 1)]
        assert all(reply is replies[0] for reply in replies)
        same_value(replies[0], old.beta(1, x, old.alpha(pi, x)))

    def test_named_opening_cases(self):
        for raw in ((True, 0, 1.0), (1.0,), (Bit.ONE, False, -0.0, Fraction(1)), (0, 0, 0)):
            x = BitVector(len(raw), raw)
            opening = naive_perm_protocol(x.n).alpha(LayerFunction.identity(x.n), x)
            assert opening == Message(raw) == Message.from01(x.to01())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cover_players_match_the_walking_players(self, data):
        # raw bits of any accepted kind, layers of any accepted point kind
        n, k, d = (data.draw(st.integers(low, top)) for low, top in ((1, 8), (3, 7), (1, 3)))
        middles = tuple(
            LayerFunction(n, tuple(data.draw(st.lists(accepted_points(n), min_size=n, max_size=n))))
            for _ in range(k - 2)
        )
        x = BitVector(n, tuple(data.draw(st.lists(accepted_bits(), min_size=n, max_size=n))))
        inst = MpjInstance(n, k, data.draw(st.integers(1, n)), middles, x)
        new = mpjk_sublinear(naive_perm_protocol(n), d, k)
        old = dataclasses.replace(new, players=ref_mpjk_players(ref_naive(n), d, k))
        got = run_outcome(new, inst)
        assert got[0] == "ok" and got == run_outcome(old, inst)


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


# -- bucketing players on ints ----------------------------------------------------

BUCKETING = {"bucketing": bucket_width_plan, "bucketing-doubling": doubling_plan}


def bucketing_cases(name, k):
    """(new handle, old handle, plan) for every n in 1..40 the plan admits."""
    for n in range(1, 41):
        try:
            plan = BUCKETING[name](n, k)
        except ValueError:  # doubling needs enough players
            continue
        yield protocol_for_plan(plan, name), ref_make_bucketing(plan, name), plan


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


TAMPER_CASES = [
    ("bucketing", 16, 5), ("bucketing", 13, 6), ("bucketing", 40, 4), ("bucketing", 5, 3),
    ("bucketing", 3, 7), ("bucketing-doubling", 16, 8), ("bucketing-doubling", 21, 5),
]


def tampered_runs(name, n, k):
    """(instance, label, j, board, expected error) over 25 seeded runs: the
    first k-1 messages with announcement j tampered."""
    plan = BUCKETING[name](n, k)
    proto = protocol_for_plan(plan, name)
    for inst in sample_instances(n, k, Variant.MPJ_HAT, (True,) * (k - 1), count=25, seed=n + k):
        good = sim.run(proto, inst).messages[: k - 1]
        for label, j, msg, error in tampered_boards(inst, good, plan):
            yield inst, label, j, good[: j - 1] + (msg,) + good[j:], error


class TestBucketingPlayers:
    @pytest.mark.parametrize("k", range(3, 10))
    @pytest.mark.parametrize("name", sorted(BUCKETING))
    def test_transcripts_match_the_old_players(self, name, k):
        # every width 1..40: powers of two and not, and plans with more
        # buckets than points (empty buckets)
        widths = []
        for new, old, plan in bucketing_cases(name, k):
            n = plan.n
            insts = [
                *sample_instances(n, k, Variant.MPJ_HAT, (True,) * (k - 1), count=4, seed=n * k),
                *sample_instances(n, k, Variant.MPJ_HAT, count=1, seed=n * k),
            ]
            for inst in insts:
                got = run_outcome(new, inst)
                assert got[0] == "ok"
                assert got == run_outcome(old, inst)
            widths.append(n)
        assert widths[:2] == [1, 2] and (name == "bucketing-doubling" or len(widths) == 40)

    @pytest.mark.parametrize("name, n, k", TAMPER_CASES)
    def test_tampered_boards_raise_as_before(self, name, n, k):
        plan = BUCKETING[name](n, k)
        new, old = protocol_for_plan(plan, name), ref_make_bucketing(plan, name)
        seen = set()
        for inst, label, j, board, error in tampered_runs(name, n, k):
            seen.add(label)
            # its successor reads announcement j unless it is past the
            # terminal player and silent; the last player reads every one
            for reader in sorted({j + 1, k}):
                view = make_view(inst, reader, ViewKind.COLLAPSING, board[: reader - 1])
                got = outcome(new.players[reader - 1], view)
                assert got == outcome(old.players[reader - 1], view), (label, j, reader)
                if error is not None and (reader == k or reader <= plan.terminal):
                    assert got[0] == "ProtocolInvariantError" and error in got[1]
        expected = {"first-short", "area-truncated", "area-extended", "indicator-short",
                    "extra-indicator-bit", "index-flipped"}
        if plan.terminal >= 2:
            assert expected <= seen

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


def accepted_bits():
    """Every kind of element a BitVector accepts as a bit."""
    return st.one_of(
        st.integers(0, 1),
        st.booleans(),
        st.sampled_from(list(Bit)),
        st.sampled_from([1.0, 0.0, -0.0, 1 + 0j, Fraction(1), Decimal(0)]),
        st.sampled_from([EqualsOneHashedElsewhere(), UnhashableZero()]),
    )


@st.composite
def bit_vector_pairs(draw):
    """Two bit vectors of any widths, usually equal, with accepted odd bits."""
    n = draw(st.integers(1, 9))
    m = draw(st.sampled_from([n, n, n, n - 1, n + 1])) or 1
    x, xp = (
        BitVector(w, tuple(draw(st.lists(accepted_bits(), min_size=w, max_size=w))))
        for w in (n, m)
    )
    return x, xp


def counted_players(handle):
    """The handle with players that tally their calls, and the tally."""
    calls = [0] * handle.k

    def counted(j, fn):
        def player(view):
            calls[j] += 1
            return fn(view)

        return player

    players = tuple(counted(j, fn) for j, fn in enumerate(handle.players))
    return dataclasses.replace(handle, players=players), calls


def attack_outcome(handle):
    """Evaluations per level, forced prefix messages and the fooling pair."""
    counted, calls = counted_players(handle)
    pair = build_fooling_inputs(counted)
    messages = [m.to01() for m in pair.prefix_messages]
    return calls[: handle.k - 1], messages, pair.inst0, pair.inst1


class TestAttackPaths:
    @settings(max_examples=500, deadline=None)
    @given(bit_vector_pairs())
    def test_patterns_match_the_old_reads(self, vectors):
        x, xp = vectors
        assert outcome(iab_sets, x, xp) == outcome(ref_iab_sets, x, xp)
        assert outcome(is_crossing, x, xp) == outcome(ref_is_crossing, x, xp)
        for a, b in PATTERNS:
            assert outcome(CrossingPair(x, xp).positions, a, b) == outcome(
                ref_positions, CrossingPair(x, xp), a, b
            )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(
        lambda n: st.lists(accepted_bits(), min_size=n, max_size=n)
    ))
    def test_text_form_reads_each_bit_as_one_or_zero(self, raw):
        x = BitVector(len(raw), tuple(raw))
        ints = tuple(int(b == 1) for b in raw)
        assert x.to01() == ref_to01(BitVector(len(raw), ints))
        assert BitVector.from01(x.to01()) == x

    def test_every_half_weight_pair_at_width_eight(self):
        layers = half_weight_strings(8)
        for x in layers:
            for xp in layers:
                expected = ref_iab_sets(x, xp)
                assert iab_sets(x, xp) == expected
                assert list(expected) == list(PATTERNS)
                assert is_crossing(x, xp) == ref_is_crossing(x, xp)
                pair = CrossingPair(x, xp)
                assert pair.crossing == ref_is_crossing(x, xp)
                assert all(pair.positions(*p) == expected[p] for p in PATTERNS)

    @pytest.mark.parametrize("seed", (0, 1, 37))
    def test_parity_players_match_on_every_suffix(self, seed):
        k = 3
        for n in range(1, 11):
            views = [
                PlayerView(1, n, k, Variant.MPJ, ViewKind.COLLAPSING, (), suffix=BitVector(n, x))
                for x in itertools.product((0, 1), repeat=n)
            ]
            # every width the family accepts, so every t up to the counting limit
            for t in range(n + 1):
                new = parity_protocol(n, k, t, seed=seed).players[: k - 1]
                old = ref_parity_players(n, k, t, seed)
                for fn, ref in zip(new, old):
                    for view in views:
                        assert fn(view) == ref(view)

    def test_a_pair_computes_its_patterns_once(self, monkeypatch):
        calls = []

        def counted(x, xp):
            calls.append((x, xp))
            return ref_iab_sets(x, xp)

        monkeypatch.setattr(adversary, "iab_sets", counted)
        x, xp = BitVector.from01("00110101"), BitVector.from01("01010011")
        pair = CrossingPair(x, xp)
        for _ in range(9):
            for p in PATTERNS:
                assert pair.positions(*p) == ref_iab_sets(x, xp)[p]
        assert pair.crossing
        assert calls == [(x, xp)]
        assert CrossingPair(x, xp) == pair

    @pytest.mark.parametrize("name, n, k", [("truncate4", 16, 4), ("hash4", 16, 5), ("parity3", 10, 6)])
    def test_attack_views_carry_their_walk_point(self, name, n, k):
        # the adversary builds its own collapsing views; each shows the walk
        # point its start and prefix layers give, as the runtime's views do
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
        for view in seen:
            assert view.kind is ViewKind.COLLAPSING
            if view.j == 1:
                assert view.start is None and view.walked is None
            else:
                assert len(view.prefix_layers) == view.j - 2
                assert view.walked == follow_pointers(view.start, view.prefix_layers)

    @pytest.mark.parametrize("seed", (1, 37))
    @pytest.mark.parametrize("name", ("truncate4", "parity4", "hash4"))
    def test_attack_search_is_unchanged(self, monkeypatch, name, seed):
        handle = build_protocol(name, n=16, k=4, seed=seed).handle
        got = attack_outcome(handle)
        monkeypatch.setattr(adversary, "iab_sets", ref_iab_sets)
        monkeypatch.setattr(adversary, "is_crossing", ref_is_crossing)
        monkeypatch.setattr(CrossingPair, "positions", ref_positions)
        monkeypatch.setattr(BitVector, "to01", ref_to01)
        if name.startswith("parity"):
            old_players = ref_parity_players(16, 4, 4, seed) + handle.players[3:]
            handle = dataclasses.replace(handle, players=old_players)
        assert got == attack_outcome(handle)
        evaluations, messages, _, _ = got
        # 4-bit messages: a level stops within 2^(t+1) + 1 evaluations
        assert all(0 < e <= 33 for e in evaluations) and all(len(m) == 4 for m in messages)

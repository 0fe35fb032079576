"""Upper-bound protocols for the Boolean chain problem.

`index_protocol` is the two-player baseline: the bit holder publishes all
n bits and the pointer holder picks one.

The sublinear protocols trade those n bits against a plug-in three-player
subprotocol that only works when the middle layer is a permutation. The
first player publishes, for each middle layer they can see, the
subprotocol openings for a small set of permutation stand-ins (a cover,
see `covers`), plus the raw answer bits for the few points every cover
misses. Each later player answers every opening blindly; the last player
picks the one opening whose stand-in agrees with the pointer they can
compute, or falls back to a shipped raw bit. Message framing carries no
length headers: every part's size is a function of (n, d, m) and data
every reader can already see. Each cover-protocol player assembles their
message as one packed int and emits a single `Message`: the first shifts
every opening and raw bit into it, and a middle player reads each opening
straight from the first message's int and shifts in each reply.

The first and the last player both see f_2..f_{k-1}, so both derive the
same surviving sets and the same level covers from them. That derivation
is one plan per middle-layer tuple (`_plan`), memoized by value: the two
players and the replay of each read it, and enumeration reuses it across
consecutive instances that share their middles. It is the one cache on the
cover path; `covers` builds every cover afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .core import BitVector, LayerFunction, Variant, bit_suffixes
from .covers import CoverSet, _fiber_sizes, build_d_cover, build_sd_cover
from .sim import (
    Message,
    PlayerView,
    ProtocolContractError,
    ProtocolHandle,
    ProtocolInvariantError,
    ViewKind,
    _packed,
    _window,
)


@dataclass(frozen=True)
class PermProtocol3:
    """Black-box three-player subprotocol for a permutation middle layer.

    alpha(pi, x) is the first player's m-bit opening, beta(i, x, a) the
    second player's m-bit reply to an opening, and gamma(i, pi, a, b) the
    final bit. The contract: gamma(i, pi, alpha(pi, x), beta(i, x, alpha(pi, x)))
    equals x at pi(i) for every (i, pi, x).
    """

    m: int
    alpha: Callable[[LayerFunction, BitVector], Message]
    beta: Callable[[int, BitVector, Message], Message]
    gamma: Callable[[int, LayerFunction, Message, Message], int]


def naive_perm_protocol(n: int) -> PermProtocol3:
    """Baseline subprotocol with m = n: ship x (packed from its checked text
    form), reply one shared zero message (messages are immutable), read
    position pi(i)."""
    zero = Message.from_uint(0, n)

    def alpha(pi: LayerFunction, x: BitVector) -> Message:
        return _packed(int(x.to01(), 2), x.n)

    def beta(i: int, x: BitVector, a: Message) -> Message:
        return zero

    def gamma(i: int, pi: LayerFunction, a: Message, b: Message) -> int:
        return a.bit(pi(i) - 1)

    return PermProtocol3(n, alpha, beta, gamma)


@dataclass(frozen=True)
class PermProtocolFailure:
    i: int
    pi: LayerFunction
    x: BitVector
    expected: int
    got: int


def check_perm_protocol3(
    P: PermProtocol3,
    n: int,
    *,
    triples: Iterable[tuple[int, LayerFunction, BitVector]] | None = None,
) -> list[PermProtocolFailure]:
    """Exercise the subprotocol contract on all (i, pi, x) triples (or given ones)."""
    if triples is None:
        import itertools

        triples = (
            (i, LayerFunction(n, perm), BitVector(n, bits))
            for i in range(1, n + 1)
            for perm in itertools.permutations(range(1, n + 1))
            for bits in itertools.product((0, 1), repeat=n)
        )
    failures = []
    for i, pi, x in triples:
        a = P.alpha(pi, x)
        if len(a) != P.m:
            raise ProtocolContractError(f"alpha produced {len(a)} bits, expected {P.m}")
        b = P.beta(i, x, a)
        if len(b) != P.m:
            raise ProtocolContractError(f"beta produced {len(b)} bits, expected {P.m}")
        got = P.gamma(i, pi, a, b)
        expected = x(pi(i))
        if got != expected:
            failures.append(PermProtocolFailure(i, pi, x, expected, got))
    return failures


def index_protocol(n: int) -> ProtocolHandle:
    """Two players: publish all n bits, then output the bit at the pointer."""

    def speak_bits(view: PlayerView) -> Message:
        return Message(view.final_bits.bits)

    def speak_answer(view: PlayerView) -> Message:
        return Message.from_uint(view.messages[0].bit(view.start - 1), 1)

    return ProtocolHandle(
        name="index",
        k=2,
        variant=Variant.MPJ,
        view_kind=ViewKind.FULL_ONE_WAY,
        players=(speak_bits, speak_answer),
        n=n,
        declared_max_bits=(n, 1),
    )


@dataclass(frozen=True)
class SjChain:
    """Per-level surviving point sets: level 1 is all of [n]; level j keeps
    the points whose fiber under layer j meets the previous level in more
    than d points."""

    n: int
    d: int
    levels: tuple[frozenset[int], ...]

    def level(self, j: int) -> frozenset[int]:
        if not 1 <= j <= len(self.levels):
            raise ValueError(f"level {j} outside [1, {len(self.levels)}]")
        return self.levels[j - 1]


def build_sj_chain(middles: Sequence[LayerFunction], d: int) -> SjChain:
    """Chain of surviving sets for middle layers f_2..f_{k-1} (k-2 of them)."""
    if not middles:
        raise ValueError("need at least one middle layer")
    if d < 1:
        raise ValueError("d must be at least 1")
    n = middles[0].n
    levels = [frozenset(range(1, n + 1))]
    for f in middles:
        if f.n != n:
            raise ValueError("chain layers must share one width")
        if not levels[-1]:  # no survivor has preimages in an empty level
            levels.append(levels[-1])
            continue
        counts = _fiber_sizes(f, levels[-1])  # counts[0] stays 0, never over d
        levels.append(frozenset([s for s, c in enumerate(counts) if c > d]))
    return SjChain(n, d, tuple(levels))


@lru_cache(maxsize=16)
def _plan(
    middles: tuple[LayerFunction, ...], d: int
) -> tuple[tuple[frozenset[int], ...], tuple[CoverSet, ...], tuple[int, ...]]:
    """What the first and the last player both derive from the middles:
    the levels S_1..S_{k-1}, the cover of each middle layer on its level,
    and S_{k-1} ascending (the order of the raw answer bits).

    Level 1 is all of [n] and takes the plain cover, which keeps the frozen
    k=3 transcripts; every later level is a strict subset (a survivor needs
    more than d >= 1 preimages) and takes the scoped one, which for an
    empty level is d identities. So the subprotocol opens identity members
    at empty levels; the last player never resolves there, since its
    pointer at level l lies in S_l, and each level still sends d*m opening
    bits. A miss calls the builders by their names in this module, one
    per level, where the benchmark's tracer counts them. Keyed by value,
    so equal middles built as distinct objects share a plan; the memo is
    small because a run reads its plan four times back to back and
    enumeration moves on to new middles after a few instances.
    """
    levels = build_sj_chain(middles, d).levels
    covers = (build_d_cover(middles[0], d),) + tuple(
        build_sd_cover(f, scope, d) for f, scope in zip(middles[1:], levels[1:-1])
    )
    return levels, covers, tuple(sorted(levels[-1]))


def mpjk_sublinear(P: PermProtocol3, d: int, k: int) -> ProtocolHandle:
    """k players, arbitrary middle layers, cover parameter d.

    The first message has k-2 opening parts (one per middle layer, each
    exactly d*m bits, scoped to that layer's surviving set) and a final
    part holding the raw answer bits of the last surviving set, ascending.
    Player j answers the openings of part j-1 blindly. The last player
    resolves at the first level whose surviving fiber is small, or reads
    their walk point's raw bit from the final part. The first and the last
    player read the surviving sets and the level covers from one plan per
    middle-layer tuple (`_plan`); every call, replays included, still runs
    the player's whole body against it.
    """
    if k < 3:
        raise ValueError("mpjk_sublinear needs k >= 3")
    if d < 1:
        raise ValueError("d must be at least 1")
    m = P.m

    def speak_openings(view: PlayerView) -> Message:
        middles = view.later_layers
        x = view.final_bits
        _, covers, last = _plan(middles, d)
        packed = length = 0
        # one suffix per level: bit_suffixes[t] collapses middles[1 + t:]
        for cover, suffix in zip(covers, bit_suffixes(x, middles[1:])):
            for pi in cover.perms:
                a = P.alpha(pi, suffix)
                if a.length != m:
                    raise ProtocolContractError(f"alpha produced {len(a)} bits, expected {m}")
                packed = (packed << m) | a.value
                length += m
        for s in last:  # the checked bits, read as Message reads them
            packed = (packed << 1) | (x.bits[s - 1] == 1)
        return _packed(packed, length + len(last))

    def replies_for(j: int) -> Callable[[PlayerView], Message]:
        def speak_replies(view: PlayerView) -> Message:
            pointer, suffix = view.walked, view.suffix
            openings = _window(view.messages[0], (j - 2) * d * m, (j - 1) * d * m)
            mask = (1 << m) - 1
            packed = 0
            for t in range(d - 1, -1, -1):  # the first opening is the highest m bits
                b = P.beta(pointer, suffix, _packed((openings >> (t * m)) & mask, m))
                if b.length != m:
                    raise ProtocolContractError(f"beta produced {len(b)} bits, expected {m}")
                packed = (packed << m) | b.value
            return _packed(packed, d * m)

        return speak_replies

    def speak_answer(view: PlayerView) -> Message:
        middles = view.prefix_layers
        levels, covers, last = _plan(middles, d)  # levels[lvl - 1] is S_lvl
        walk = [view.start]
        for f in middles:  # checked layers from a checked start
            walk.append(f.values[walk[-1] - 1])
        # walk[t] enters layer t+2; the level-lvl pointer is walk[lvl-1]
        for lvl in range(1, k - 1):
            pointer, target = walk[lvl - 1], walk[lvl]
            if target in levels[lvl]:  # heavy: its fiber in S_lvl exceeds d
                continue
            for ell, pi in enumerate(covers[lvl - 1].perms):
                if pi.values[pointer - 1] == target:
                    a0 = view.messages[0].slice(
                        ((lvl - 1) * d + ell) * m, ((lvl - 1) * d + ell + 1) * m
                    )
                    b0 = view.messages[lvl].slice(ell * m, (ell + 1) * m)
                    return Message.from_uint(P.gamma(pointer, pi, a0, b0), 1)
            raise ProtocolInvariantError("cover misses a surviving light point")
        end = walk[-1]
        if end not in levels[k - 2]:
            raise ProtocolInvariantError("walk point escaped the surviving chain")
        bit = view.messages[0].bit((k - 2) * d * m + last.index(end))
        return Message.from_uint(bit, 1)

    players = (
        speak_openings,
        *[replies_for(j) for j in range(2, k)],
        speak_answer,
    )
    return ProtocolHandle(
        name="mpjk-sublinear",
        k=k,
        variant=Variant.MPJ,
        view_kind=ViewKind.FULL_ONE_WAY,
        players=players,
    )


def mpj3_sublinear(P: PermProtocol3, d: int) -> ProtocolHandle:
    """The three-player case of `mpjk_sublinear`, under its own name.

    First message: d openings (m bits each) plus the raw answer bits of the
    heavy points, ascending. Second: d blind replies. Third: one bit, from
    the matching opening or the shipped raw bit.
    """
    return replace(mpjk_sublinear(P, d, 3), name="mpj3-sublinear")

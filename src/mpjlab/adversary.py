"""Fooling-pair construction against short-message collapsing protocols.

Two bit layers x, x' *cross* when all four joint patterns (0,0), (0,1),
(1,0), (1,1) occur among positions. Any two distinct, non-complementary
half-weight layers cross, and there are too many half-weight layers for
short messages to keep every message class crossing-free: with t at most
n - log2(n)/2 - 2 message bits, some class must hold a crossing pair.

The cell search streams half-weight layers in lexicographic order, files
each under the message it draws, and stops at the first cell, in stream
order, to hold a crossing pair. Its first C(n, n/2)/2 layers, those with
x_1 = 0, hold no complements, so any two cross: c < C(n, n/2)/2 message
classes take at most c + 1 evaluations, 2^t + 1 for exactly t bits and
2^(t+1) for at most t. A layer has one complement, so three members of a
cell cross, and 2c + 1 evaluations suffice at any c.

One evaluation costs the target's message and little else beside it: a
layer built unchecked, since it is valid by construction; a view whose
fields are the level's one dict, copied with the layer as its suffix;
and, for each earlier member of the cell, a crossing test that collects
the joint patterns into one set in one pass.

The construction walks a collapsing protocol front to back. At each level
it runs that search on the messages the next player would send, then
rewrites the pair one layer deeper: the new middle layer sends each old
position class to a fixed position of the new pair with the same joint
pattern, which keeps the old pair equal to the new pair composed with
that layer. After the last level the pair is literal: two instances
differing only in the final layer, with answers 0 and 1, whose first k-1
messages are bitwise equal. The last player sees the same view either
way and must answer one wrong.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import (
    BitVector,
    LayerFunction,
    MpjInstance,
    Variant,
    _new,
    _setattr,
    _trusted,
    eval_mpj,
    follow_pointers,
)
from .sim import Message, PlayerView, ProtocolHandle, ViewKind, call_player, run


class BoundRefusedError(ValueError):
    """The target protocol does not meet the attack's preconditions."""


class CrossingSearchError(RuntimeError):
    """No crossed class was found: a counterexample to the counting bound."""


PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _joint(x: BitVector, xp: BitVector) -> Iterator[tuple[int, int]]:
    """The joint patterns (x_r, x'_r), in position order, of equal-width layers."""
    if x.n != xp.n:
        raise ValueError("joint patterns need equal widths")
    return zip(x.bits, xp.bits)


def iab_sets(x: BitVector, xp: BitVector) -> dict[tuple[int, int], tuple[int, ...]]:
    """Positions of each joint pattern: key (a, b) maps to {r : x_r = a, x'_r = b}."""
    out: dict[tuple[int, int], list[int]] = {p: [] for p in PATTERNS}
    for r, pattern in enumerate(_joint(x, xp), start=1):
        out[pattern].append(r)
    return {p: tuple(v) for p, v in out.items()}


def is_crossing(x: BitVector, xp: BitVector) -> bool:
    """True when all four joint patterns occur: one set of the patterns,
    built in one C-level pass, without the positions `iab_sets` lists."""
    return len(set(_joint(x, xp))) == 4


@dataclass(frozen=True)
class CrossingPair:
    """Two bit layers exhibiting all four joint patterns."""

    x: BitVector
    xp: BitVector

    @functools.cached_property
    def classes(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The four position classes, computed on first read and kept."""
        return iab_sets(self.x, self.xp)

    def positions(self, a: int, b: int) -> tuple[int, ...]:
        return self.classes[(a, b)]

    @property
    def crossing(self) -> bool:
        return all(self.classes.values())


def max_message_bits(n: int) -> float:
    """Largest per-player message size the counting argument tolerates."""
    if n < 2 or n % 2:
        raise ValueError("the bound needs an even n of at least 2")
    return n - math.log2(n) / 2 - 2


ATTACK_BUDGET = 13_166_010
"""The most message evaluations an attack may take in the worst case.

This is 1,023 x C(16, 8). A level of the search never evaluates more than
the C(n, n/2) half-weight layers, so every target of width n <= 16 with up
to 1,024 players fits, whatever bits it declares; wider targets fit when
their declared bits keep 2^(t+2) - 1 evaluations per level small enough.
"""


def worst_case_evaluations(n: int, bounds: Iterable[int]) -> int:
    """Most evaluations the cell search takes over levels whose players
    declare these bounds: min(C(n, n/2), 2^(t+2) - 1) per level, the 2c + 1
    bound for messages of at most t bits, which holds at any n. Each level
    is counted only up to 2^64, far past any search that can run. So a sum
    under 2^64 is exact, and C(n, i) is built up for at most 64 steps at any n.
    """
    caps = [min(2 ** (t + 2) - 1, 2**64) for t in bounds]
    top = max(caps, default=0)
    half = 1
    for i in range(1, n // 2 + 1):
        if half >= top:
            break
        half = half * (n + 1 - i) // i
    return sum(min(half, cap) for cap in caps)


def _iter_half_weight(n: int) -> Iterator[BitVector]:
    """Weight n/2 bit layers, one at a time, ascending in lexicographic bit order.

    Each layer is read off its sorted zero positions; lexicographic order on
    those tuples is lexicographic order on the bit strings. Every layer is
    n bits of 0 and 1 by construction, so it is built unchecked.
    """
    if n % 2:
        raise ValueError("half weight needs an even n")
    for zeros in itertools.combinations(range(n), n // 2):
        bits = [1] * n
        for r in zeros:
            bits[r] = 0
        yield _trusted(BitVector, n, tuple(bits))


def half_weight_strings(n: int) -> tuple[BitVector, ...]:
    """All weight n/2 bit layers, ascending in lexicographic bit order."""
    return tuple(_iter_half_weight(n))


def find_crossed_cell(
    message_fn: Callable[[BitVector], Message], n: int, t_bound: float
) -> tuple[Message, CrossingPair]:
    """The first cell, in stream order, to hold a crossing pair, with that pair.

    Half-weight layers are evaluated in lexicographic order and filed by
    message; each new layer is tested against the earlier members of its
    cell, and the search returns (message, CrossingPair(earlier, new)) on
    the first hit. Any two of the first C(n, n/2)/2 layers cross, so c
    message classes take at most c + 1 evaluations when c < C(n, n/2)/2,
    and 2c + 1 at any c; see the module docstring.

    t_bound gates the precondition. For protocols whose messages all share
    one length, the counting argument guarantees a crossed class whenever
    t_bound stays at or below n - log2(n)/2 - 2. Varying the message length
    buys a protocol one extra factor of two of classes, so a deliberately
    packed protocol sitting right at the boundary can leave every class
    crossing-free; that outcome raises CrossingSearchError.
    """
    limit = max_message_bits(n)
    if t_bound > limit:
        raise BoundRefusedError(
            f"message bound {t_bound} exceeds the counting limit {limit:.3f} at n={n}"
        )
    cells: dict[Message, list[BitVector]] = {}
    for y in _iter_half_weight(n):
        msg = message_fn(y)
        if msg.length > t_bound:
            raise BoundRefusedError(
                f"message of {msg.length} bits exceeds the declared bound {t_bound}"
            )
        cell = cells.setdefault(msg, [])
        for earlier in cell:
            if is_crossing(earlier, y):
                return msg, CrossingPair(earlier, y)
        cell.append(y)
    raise CrossingSearchError(
        f"all {len(cells)} message classes over {math.comb(n, n // 2)} half-weight "
        f"layers at n={n} are crossing-free; variable-length messages can evade "
        f"the fixed-length counting argument right at the boundary"
    )


@dataclass(frozen=True)
class FoolingPair:
    """Two instances the protocol cannot distinguish until too late."""

    inst0: MpjInstance
    inst1: MpjInstance
    prefix_messages: tuple[Message, ...]


def _check_preconditions(protocol: ProtocolHandle) -> int:
    if protocol.variant is not Variant.MPJ:
        raise BoundRefusedError("the attack targets Boolean protocols only")
    if protocol.view_kind is not ViewKind.COLLAPSING:
        raise BoundRefusedError("the attack targets collapsing views only")
    if protocol.n is None:
        raise BoundRefusedError("the attack needs a width-bound protocol (n set)")
    n = protocol.n
    try:
        limit = max_message_bits(n)
    except ValueError as exc:
        raise BoundRefusedError(str(exc)) from None
    if protocol.declared_max_bits is None:
        raise BoundRefusedError("the attack needs declared per-player message bounds")
    bounds = protocol.declared_max_bits[: protocol.k - 1]
    for j, bound in enumerate(bounds, start=1):
        if bound > limit:
            raise BoundRefusedError(
                f"player {j} declares {bound} bits, over the counting limit "
                f"{limit:.3f} at n={n}"
            )
    evaluations = worst_case_evaluations(n, bounds)
    if evaluations > ATTACK_BUDGET:
        count = f"{evaluations:,}" if evaluations < 2**64 else "2^64 or more"
        raise BoundRefusedError(
            f"the cell search may take {count} message evaluations over "
            f"{len(bounds)} levels at n={n}, over the budget of {ATTACK_BUDGET:,}"
        )
    return n


def build_fooling_inputs(protocol: ProtocolHandle) -> FoolingPair:
    """Construct two instances that force an error past players 1..k-1.

    The first instance evaluates to 0, the second to 1; they differ only in
    the final bit layer, and the protocol's first k-1 messages are equal on
    both (returned as prefix_messages).
    """
    n = _check_preconditions(protocol)
    k = protocol.k

    def cell_of(j: int, start: int | None, layers, messages) -> tuple[Message, CrossingPair]:
        """Player j's first crossed cell over the suffixes it may be shown.

        The level's view fields are fixed here, once; each evaluation copies
        them with its own suffix into a new view's `__dict__` in one
        assignment, as `sim.make_view` sets a view's fields.
        """
        fields = {
            "j": j, "n": n, "k": k, "variant": Variant.MPJ, "kind": ViewKind.COLLAPSING,
            "messages": messages, "start": start,
            "walked": None if start is None else follow_pointers(start, layers),
            "prefix_layers": layers, "later_layers": None, "final_bits": None, "suffix": None,
        }
        fn = protocol.players[j - 1]

        def evaluate(y: BitVector) -> Message:
            view = _new(PlayerView)
            _setattr(view, "__dict__", dict(fields, suffix=y))
            return call_player(fn, view)

        return find_crossed_cell(evaluate, n, protocol.declared_max_bits[j - 1])

    # after player j: `layers` fixes f_2..f_j, `messages` holds the forced
    # first j messages, and `pair` stands in for everything after layer j
    msg, pair = cell_of(1, None, (), ())
    start = min(pair.positions(0, 1))
    layers: tuple[LayerFunction, ...] = ()
    messages = (msg,)
    for j in range(2, k):
        msg, new_pair = cell_of(j, start, layers, messages)
        targets = {p: min(new_pair.positions(*p)) for p in PATTERNS}
        values = [0] * n
        for p in PATTERNS:
            for r in pair.positions(*p):
                values[r - 1] = targets[p]
        layer = LayerFunction(n, tuple(values))
        # the rewrite must compose back to the pair it replaced
        if pair.x != new_pair.x.through(layer) or pair.xp != new_pair.xp.through(layer):
            raise CrossingSearchError("layer rewrite failed to preserve the pair")
        layers += (layer,)
        messages += (msg,)
        pair = new_pair

    inst0 = MpjInstance(n, k, start, layers, pair.x)
    inst1 = MpjInstance(n, k, start, layers, pair.xp)
    if eval_mpj(inst0) != 0 or eval_mpj(inst1) != 1:
        raise CrossingSearchError("constructed pair has the wrong answers")
    return FoolingPair(inst0, inst1, messages)


@dataclass(frozen=True)
class FoolingReport:
    """Replay outcome of a fooling pair."""

    prefix_equal: bool
    outputs: tuple[int, int]
    expected: tuple[int, int]
    errors: int
    degenerate: bool

    @property
    def fooled(self) -> bool:
        return self.prefix_equal and self.errors == 1 and not self.degenerate


def verify_fooling(
    protocol: ProtocolHandle, inst0: MpjInstance, inst1: MpjInstance
) -> FoolingReport:
    """Replay both instances and confirm the shared-prefix, one-error outcome."""
    if (inst0.n, inst0.k, inst0.i, inst0.middles) != (
        inst1.n,
        inst1.k,
        inst1.i,
        inst1.middles,
    ):
        raise ValueError("fooling instances must differ only in the final layer")
    degenerate = inst0 == inst1
    t0 = run(protocol, inst0)
    t1 = run(protocol, inst1)
    prefix_equal = t0.messages[:-1] == t1.messages[:-1]
    expected = (eval_mpj(inst0), eval_mpj(inst1))
    outputs = (t0.output, t1.output)
    errors = sum(1 for got, want in zip(outputs, expected) if got != want)
    return FoolingReport(prefix_equal, outputs, expected, errors, degenerate)

"""Bucketed-announcement protocols for the all-permutation pointer chain.

Interval buckets over [n]: with 2^t buckets, point r lands in bucket
ceil(2^t * r / n), so every bucket holds at most ceil(n / 2^t)
consecutive points and a bucket index costs t bits.

The first player announces, for every candidate point r, which bucket their
collapsed suffix sends r to. Each later player knows their own walk point,
looks up its announced bucket, keeps only the candidates whose collapsed
suffix lands in that bucket (the surviving set), and announces finer
bucket indices for just those survivors, tagged with an n-bit membership
indicator. Bit widths grow as iterated logarithms, so the surviving sets
shrink hyper-exponentially and the last player reads a singleton bucket.

Players read ints they already hold: each width has one table of t-bit
bucket indices by point, and the walk point's index in an announcement
sits at its rank, the popcount of the indicator bits above it. A handle
reads its plan once, when it is built: each player's widths and tables
are fixed per player then, and players past the terminal announcer are
silent from the start. Each announcement is one packed int, indicator
above index area, framed by one `Message.from_uint` that checks the whole
message fits. The module keeps no state between builds.

A doubling variant grows widths 1, 2, 4, ... instead; once a width
reaches ceil(log2 n), buckets are singletons, the remaining middle
players send nothing, and the last player reads the terminal message.
All layers must be permutations: the walk point's bucket then pins the
answer among survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import Variant
from .sim import (
    Message,
    PlayerView,
    ProtocolHandle,
    ProtocolInvariantError,
    ViewKind,
    encode_pointer,
    pointer_width,
)


def iterated_log(n: float, times: int) -> float:
    """Apply log2 `times` times, starting from n; each application clamps at 1."""
    if n <= 0:
        raise ValueError("iterated_log needs a positive start value")
    if times < 0:
        raise ValueError("times must be nonnegative")
    value = float(n)
    for _ in range(times):
        value = max(1.0, math.log2(value)) if value > 1.0 else 1.0
    return value


def bucket_index(t: int, n: int, r: int) -> int:
    """Which of the 2^t interval buckets over [n] holds point r."""
    if t < 0:
        raise ValueError("bucket width must be nonnegative")
    if not 1 <= r <= n:
        raise ValueError(f"point {r} outside [1, {n}]")
    return -(-(2**t) * r // n)


def bucket_members(t: int, n: int, j: int) -> tuple[int, ...]:
    """All points of bucket j, ascending (possibly empty for large j)."""
    if not 1 <= j <= 2**t:
        raise ValueError(f"bucket {j} outside [1, {2 ** t}]")
    # r is in bucket j iff (j-1) * n < 2^t * r <= j * n
    return tuple(range((j - 1) * n // 2**t + 1, j * n // 2**t + 1))


@dataclass(frozen=True)
class BucketPlan:
    """Per-player bucket widths. widths[j-1] is player j's width b_j; the
    final entry is the raw candidate count n (never used as a message
    width). terminal is the last player that actually announces buckets."""

    n: int
    k: int
    widths: tuple[int, ...]
    terminal: int

    def width(self, j: int) -> int:
        if not 1 <= j <= self.k:
            raise ValueError(f"player {j} outside [1, {self.k}]")
        return self.widths[j - 1]

    def __post_init__(self):
        if not 1 <= self.terminal <= self.k - 1:
            raise ValueError("terminal player must announce before the last player")
        if 2 ** self.widths[self.terminal - 1] < self.n:
            raise ValueError("terminal width leaves buckets of size over 1")


def bucket_width_plan(n: int, k: int) -> BucketPlan:
    """Iterated-log widths: player j gets ceil(log2 applied k-j times), min 1."""
    if k < 3:
        raise ValueError("bucketing needs k >= 3")
    widths = tuple(
        max(1, math.ceil(iterated_log(n, k - j))) for j in range(1, k)
    ) + (n,)
    return BucketPlan(n, k, widths, terminal=k - 1)


def doubling_plan(n: int, k: int) -> BucketPlan:
    """Doubling widths 1, 2, 4, ..., capped at ceil(log2 n).

    Raises when k-1 announcing players are too few to reach singleton
    buckets (needs roughly k >= loglog n + 2).
    """
    if k < 3:
        raise ValueError("bucketing needs k >= 3")
    cap = max(1, pointer_width(n))
    widths = [1]
    while len(widths) < k - 1:
        widths.append(min(cap, 2 * widths[-1]))
    terminal = next(
        (j for j in range(1, k) if 2 ** widths[j - 1] >= n),
        None,
    )
    if terminal is None:
        raise ValueError(
            f"doubling widths cannot reach singleton buckets with {k - 1} announcing "
            f"players at n={n}"
        )
    return BucketPlan(n, k, tuple(widths) + (n,), terminal=terminal)


def _bucket_table(t: int, n: int) -> tuple[int | None, ...]:
    """Position v holds bucket_index(t, n, v) - 1 for each point v of [n],
    which fits in t bits since bucket_index returns 1..2^t; position 0 is
    no point."""
    return (None, *[bucket_index(t, n, v) - 1 for v in range(1, n + 1)])


def _announcement(msg: Message, n: int, width: int) -> tuple[int, int]:
    """(indicator, index area) of a later announcement, as ints: bit n - r of
    the indicator flags survivor r, whose width-bit indices follow in order."""
    area_bits = msg.length - n
    if area_bits < 0:
        raise ProtocolInvariantError("announcement shorter than its membership indicator")
    indicator = msg.value >> area_bits
    if area_bits != indicator.bit_count() * width:
        raise ProtocolInvariantError("announcement index area has the wrong size")
    return indicator, msg.value & ((1 << area_bits) - 1)


def bucket_bound(plan: BucketPlan) -> float:
    """The most bits players 1..k-1 send under `plan`: n first-width indices,
    then per later announcer an n-bit indicator plus the indices of at most
    ceil(n / 2^b) survivors, b the width that framed them."""
    total = float(plan.n * plan.width(1))
    for j in range(2, plan.terminal + 1):
        cap = -(-plan.n // (2 ** plan.width(j - 1)))
        total += plan.n + cap * plan.width(j)
    return total


def bucket_report(plan: BucketPlan, messages: Sequence[Message]) -> dict:
    """A run's announcements as JSON-ready data: the widths of players
    1..k-1, the terminal player, and each later announcer's survivors."""
    survivors = {}
    for j in range(2, plan.terminal + 1):
        indicator, _ = _announcement(messages[j - 1], plan.n, plan.width(j))
        survivors[str(j)] = [r for r in range(1, plan.n + 1) if indicator >> (plan.n - r) & 1]
    return {
        "widths": list(plan.widths[: plan.k - 1]),
        "terminal": plan.terminal,
        "survivors": survivors,
    }


def _bucket_of_walk(view: PlayerView, j: int, width: int, walk_point: int) -> int:
    """The answer's bucket as message j-1, framed at `width`, announces it to
    player j: the index at the walk point's rank among survivors (all points,
    in message 1)."""
    prev, n = view.messages[j - 2], view.n
    if j == 2:
        if prev.length != n * width:
            raise ProtocolInvariantError("first announcement has the wrong size")
        indicator, area = (1 << n) - 1, prev.value
    else:
        indicator, area = _announcement(prev, n, width)
    if not indicator >> (n - walk_point) & 1:
        raise ProtocolInvariantError("walk point missing from the surviving set")
    rank = (indicator >> (n - walk_point + 1)).bit_count()
    shift = (indicator.bit_count() - 1 - rank) * width
    return ((area >> shift) & ((1 << width) - 1)) + 1


def protocol_for_plan(plan: BucketPlan, name: str) -> ProtocolHandle:
    """The bucketing protocol that announces at the widths of `plan`.

    The plan is read once, here: each player's closure holds the widths it
    frames and reads at, and the `_bucket_table` of each, built once per
    handle. Announcers past the terminal player are silent. An
    announcement is one int, indicator above index area, framed by one
    `Message.from_uint`, which checks that the whole message fits.
    """
    n, k, terminal = plan.n, plan.k, plan.terminal
    frames = plan.widths[:terminal]  # frames[j-1] is the width player j announces at
    tables = {t: _bucket_table(t, n) for t in set(frames)}

    first_width = frames[0]
    first_table = tables[first_width]

    def speak_first(view: PlayerView) -> Message:
        # view.suffix is the collapsed suffix of layer 1
        area = 0
        for v in view.suffix.values:
            area = (area << first_width) | first_table[v]
        return Message.from_uint(area, n * first_width)

    def speak_silently(view: PlayerView) -> Message:
        return Message()

    def announcer_for(j: int) -> Callable[[PlayerView], Message]:
        if j > terminal:
            return speak_silently
        prev_width, width = frames[j - 2], frames[j - 1]
        prev_table, table = tables[prev_width], tables[width]

        def speak_buckets(view: PlayerView) -> Message:
            target = _bucket_of_walk(view, j, prev_width, view.walked) - 1
            indicator = area = 0
            for v in view.suffix.values:  # g(s) for s = 1 .. n
                if prev_table[v] == target:
                    indicator = (indicator << 1) | 1
                    area = (area << width) | table[v]
                else:
                    indicator <<= 1
            area_bits = indicator.bit_count() * width
            return Message.from_uint((indicator << area_bits) | area, n + area_bits)

        return speak_buckets

    def speak_answer(view: PlayerView) -> Message:
        # every announcement is read as its successor reads it, so each walk
        # point must survive into the set that framed it
        walk_point = view.start  # enters layer 2
        for j, width in enumerate(frames, start=2):  # message j-1 was framed at width
            if j > 2:
                # enters layer j; the instance's points were checked when it was built
                walk_point = view.prefix_layers[j - 3].values[walk_point - 1]
            value = _bucket_of_walk(view, j, width, walk_point)
        members = bucket_members(frames[-1], n, value)
        if len(members) != 1:
            raise ProtocolInvariantError("terminal bucket is not a singleton")
        return encode_pointer(members[0], n)

    players = (speak_first, *[announcer_for(j) for j in range(2, k)], speak_answer)
    return ProtocolHandle(
        name=name, k=k, variant=Variant.MPJ_HAT, view_kind=ViewKind.COLLAPSING, players=players, n=n
    )


def bucketing_protocol(n: int, k: int) -> ProtocolHandle:
    """Iterated-log bucket announcements; first player sends exactly
    n * ceil(log2 applied k-1 times) bits."""
    return protocol_for_plan(bucket_width_plan(n, k), "bucketing")

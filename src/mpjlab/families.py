"""Short-message collapsing protocols used as attack targets.

These protocols are deliberately weak: every non-final player compresses
their collapsed suffix into at most t bits (truncation, seeded parities, or
a seeded hash), which is exactly the regime the fooling-pair construction
defeats. The final player answers with some fixed deterministic rule; the
attack never needs to know which. Each family is one `message(j, view)`;
`_handle` binds j into players 1..k-1 with `functools.partial`, so each
keeps their own j whatever view they are shown. Parity and hash shift
their t bits, each 0 or 1 by construction, into one int that
`sim._packed` frames, as the cover players frame theirs.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Callable

from .adversary import max_message_bits
from .core import Variant
from .sim import Message, PlayerView, ProtocolHandle, ViewKind, _packed


def _final_bit(view: PlayerView) -> Message:
    # parity of everything on the blackboard: deterministic and view-pure
    total = sum(m.value.bit_count() for m in view.messages)
    return Message.from_uint(total & 1, 1)


def _handle(
    name: str, n: int, k: int, t: int, message: Callable[[int, PlayerView], Message]
) -> ProtocolHandle:
    players = tuple(functools.partial(message, j) for j in range(1, k)) + (_final_bit,)
    return ProtocolHandle(
        name=name,
        k=k,
        variant=Variant.MPJ,
        view_kind=ViewKind.COLLAPSING,
        players=players,
        n=n,
        declared_max_bits=(t,) * (k - 1) + (1,),
    )


def constant_protocol(n: int, k: int) -> ProtocolHandle:
    """Every non-final player sends nothing at all."""
    return _handle("constant", n, k, 0, lambda j, view: Message())


def truncating_protocol(n: int, k: int, t: int) -> ProtocolHandle:
    """Every non-final player sends the first t bits of their collapsed suffix."""
    if not 0 <= t <= n:
        raise ValueError(f"truncation width {t} outside [0, {n}]")
    return _handle(f"truncate{t}", n, k, t, lambda j, view: Message(view.suffix.bits[:t]))


def parity_protocol(n: int, k: int, t: int, seed: int = 0) -> ProtocolHandle:
    """Every non-final player sends t seeded mask parities of their suffix."""
    if not 0 <= t <= n:
        raise ValueError(f"parity width {t} outside [0, {n}]")
    # each mask is packed as a Message packs the suffix, position 1 highest,
    # so a parity is the popcount of one AND
    masks: dict[int, tuple[int, ...]] = {}
    for j in range(1, k):
        rng = random.Random((seed << 16) + j)
        masks[j] = tuple(
            Message(tuple(rng.randint(0, 1) for _ in range(n))).value for _ in range(t)
        )

    def message(j: int, view: PlayerView) -> Message:
        x = Message(view.suffix.bits).value
        out = 0
        for mask in masks[j]:
            out = (out << 1) | ((mask & x).bit_count() & 1)
        return _packed(out, t)

    return _handle(f"parity{t}", n, k, t, message)


def hashing_protocol(n: int, k: int, t: int, seed: int = 0) -> ProtocolHandle:
    """Every non-final player sends t hash bits of their entire visible view."""
    import hashlib  # here, not at module level: it loads OpenSSL, and only this target hashes

    limit = min(n, 256)  # a SHA-256 digest holds 256 bits
    if not 0 <= t <= limit:
        raise ValueError(f"hash width {t} outside [0, {limit}]")

    def message(j: int, view: PlayerView) -> Message:
        material = "|".join(
            [
                str(seed),
                str(j),
                str(view.start),
                ";".join(",".join(map(str, f.values)) for f in view.prefix_layers),
                view.suffix.to01(),
                ";".join(m.to01() for m in view.messages),
            ]
        )
        digest = hashlib.sha256(material.encode()).digest()
        out = 0
        for i in range(t):
            out = (out << 1) | ((digest[i // 8] >> (i % 8)) & 1)
        return _packed(out, t)

    return _handle(f"hash{t}", n, k, t, message)


def collapsing_family(n: int, k: int, count: int, seed: int = 0) -> list[ProtocolHandle]:
    """A deterministic mix of attack targets, with widths cycling 1..limit."""
    if count < 1:
        raise ValueError("count must be positive")
    limit = math.floor(max_message_bits(n))
    if limit < 1:
        raise ValueError(f"n={n} leaves no room for a positive message width")
    builders = (
        lambda t, s: truncating_protocol(n, k, t),
        lambda t, s: parity_protocol(n, k, t, seed=s),
        lambda t, s: hashing_protocol(n, k, t, seed=s),
    )
    out = [constant_protocol(n, k)]
    for idx in range(count - 1):
        t = 1 + (idx // len(builders)) % limit
        out.append(builders[idx % len(builders)](t, seed + idx))
    return out

"""Name-based construction of every shipped protocol.

The registry maps CLI protocol names to one table entry each: a build
function, the default player count, and whether that count is fixed. A
build function computes everything its name builds in one pass and returns
a `BuiltProtocol`: the handle, the instance space it is verified against
(permutation-layer mask), the matching cost bound, the bucket plan that
both the handle and the bound come from (bucketing), and the seed the
handle is built from (the seeded targets). `BuiltProtocol.variant` is
the handle's. The cover protocols' bound 2(k-2)dm + n/d^(k-2) reads m
from the subprotocol they are built on. Parametrized attack targets are
spelled with their width in the name: truncate4, parity3, hash2.

This module imports only `core` and `sim`. Each build function imports its
protocol family when it first runs: `jump` (which loads `covers`) for index
and the cover protocols, `bucketing` for both plans, `families` (which loads
`adversary`) for the attack targets. So a fresh interpreter that builds
one protocol, as each CLI command and benchmark pass does, compiles only
that family. Every refusal (an unknown name, a fixed k, the size caps,
d > n) runs before the family loads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from types import ModuleType
from typing import TYPE_CHECKING, Callable, NamedTuple

from .core import Variant
from .sim import ProtocolHandle, ViewKind

if TYPE_CHECKING:
    from .bucketing import BucketPlan
    from .jump import PermProtocol3


class UnknownProtocolError(ValueError):
    pass


class Params(NamedTuple):
    """Construction parameters; t is the width of a `<t>` family, else None."""

    n: int
    k: int
    d: int
    t: int | None
    seed: int


@dataclass(frozen=True)
class BuiltProtocol:
    """A handle plus its instance space, cost bound and, for bucketing, plan."""

    handle: ProtocolHandle
    perm_mask: tuple[bool, ...] | None = None  # None: unrestricted layer space
    bound: float | None = None  # cost before the output message; None: no formula
    bucket_plan: BucketPlan | None = None
    seed: int | None = None  # the seed the handle was built from; None: unseeded

    @property
    def variant(self) -> Variant:
        return self.handle.variant


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol name: what it builds, and its player count."""

    build: Callable[[Params], BuiltProtocol]
    default_k: int
    fixed_k: bool = False


def _cover_d(d: int, n: int) -> int:
    """Refuse a cover parameter over n before anything is built: at d = n no
    fiber is heavy, so a larger d only adds openings (and allocates d
    permutations per cover)."""
    if d > n:
        raise ValueError(f"cover parameter d={d} is over n={n}; use 1 <= d <= n")
    return d


MAX_PLAYERS = 1024
"""The largest player count the registry builds.

The paper's protocols run out of work long before this: bucketing reaches
singleton buckets by k = log* n + 2, and the cover protocols' raw part
n/d^(k-2) is under one bit once k - 2 > log2 n, so at every width that can
be simulated the k that matter are a few dozen at most. A run projects k
views whose layer slices together hold O(k^2) references, which at this cap
is about a million per run; an unbounded k instead allocates per player
until memory runs out, and the bucket plan alone takes O(k^2) steps.
"""


MAX_WIDTH = 4096
"""The largest width n the registry builds.

Every layer, bit layer and message is an n-tuple and a run holds k of
them, so an unbounded n allocates until memory runs out before the first
message is sent. At this cap a sampled verify of the cover and bucketing
protocols, or an attack on a short-message target, takes under a second,
and `constant` at k = MAX_PLAYERS stays near 200 MiB. The `cover` command
holds d members of n points each, so it is the heaviest case: at
n = d = MAX_WIDTH it streams about 197 MB of JSON and peaks near 150 MiB
(Python 3.11, measured with `ru_maxrss`), most of it the members themselves.
"""


def _at_most(what: str, symbol: str, value: int, cap: int) -> int:
    """Refuse a player count or width over its cap before anything is built."""
    if value > cap:
        raise ValueError(f"{what} {symbol}={value} is over {cap}; use {symbol} <= {cap}")
    return value


def _index(p: Params) -> BuiltProtocol:
    from .jump import index_protocol

    return BuiltProtocol(index_protocol(p.n), bound=float(p.n))


def _cover(
    make: Callable[[ModuleType, PermProtocol3, int, int], ProtocolHandle]
) -> Callable[[Params], BuiltProtocol]:
    """A cover protocol made from `jump` on the naive subprotocol P, with the
    bound 2(k-2)dm + n/d^(k-2) at P's message length m and the handle's k."""

    def build(p: Params) -> BuiltProtocol:
        d = _cover_d(p.d, p.n)
        from . import jump

        P = jump.naive_perm_protocol(p.n)
        handle = make(jump, P, d, p.k)
        k = handle.k
        return BuiltProtocol(handle, bound=2 * (k - 2) * d * P.m + p.n / d ** (k - 2))

    return build


def _bucketing(
    plan_of: Callable[[ModuleType, int, int], BucketPlan], name: str, default_k: int
) -> ProtocolSpec:
    """Bucketing on all-permutation layers; the handle and the bound read
    one plan, computed once."""

    def build(p: Params) -> BuiltProtocol:
        from . import bucketing

        plan = plan_of(bucketing, p.n, p.k)
        return BuiltProtocol(
            bucketing.protocol_for_plan(plan, name), (True,) * (plan.k - 1),
            bucketing.bucket_bound(plan), plan,
        )

    return ProtocolSpec(build, default_k)


def _target(
    make: Callable[[ModuleType, Params], ProtocolHandle], seeded: bool = False
) -> ProtocolSpec:
    """A `families` protocol with no bound, three players by default; a
    seeded one records the seed it was built from."""

    def build(p: Params) -> BuiltProtocol:
        from . import families

        return BuiltProtocol(make(families, p), seed=p.seed if seeded else None)

    return ProtocolSpec(build, default_k=3)


PROTOCOLS: dict[str, ProtocolSpec] = {
    "index": ProtocolSpec(_index, default_k=2, fixed_k=True),
    "mpj3-sublinear": ProtocolSpec(
        _cover(lambda jump, P, d, k: jump.mpj3_sublinear(P, d)), default_k=3, fixed_k=True
    ),
    "mpjk-sublinear": ProtocolSpec(
        _cover(lambda jump, P, d, k: jump.mpjk_sublinear(P, d, k)), default_k=4
    ),
    "bucketing": _bucketing(
        lambda b, n, k: b.bucket_width_plan(n, k), "bucketing", default_k=3
    ),
    # doubling widths reach singleton buckets at every n <= MAX_WIDTH from k = 6
    "bucketing-doubling": _bucketing(
        lambda b, n, k: b.doubling_plan(n, k), "bucketing-doubling", default_k=6
    ),
    # deliberately wrong: `constant` (silence, then 0) on a full one-way view
    "broken-const": _target(lambda f, p: replace(
        f.constant_protocol(p.n, p.k), name="broken-const", view_kind=ViewKind.FULL_ONE_WAY
    )),
    "constant": _target(lambda f, p: f.constant_protocol(p.n, p.k)),
    "truncate<t>": _target(lambda f, p: f.truncating_protocol(p.n, p.k, p.t)),
    "parity<t>": _target(lambda f, p: f.parity_protocol(p.n, p.k, p.t, seed=p.seed), True),
    "hash<t>": _target(lambda f, p: f.hashing_protocol(p.n, p.k, p.t, seed=p.seed), True),
}

BASE_NAMES = tuple(PROTOCOLS)


def build_protocol(
    name: str, *, n: int, k: int | None = None, d: int | None = None, seed: int = 0
) -> BuiltProtocol:
    """Construct a protocol by registry name; raises UnknownProtocolError/ValueError.

    The name, k and the size caps are checked before the entry builds."""
    m = re.fullmatch(r"([a-z]+)(0|[1-9][0-9]*)", name)  # canonical widths only
    key = f"{m[1]}<t>" if m else name
    if key not in PROTOCOLS or "<t>" in name:
        raise UnknownProtocolError(
            f"unknown protocol {name!r}; known: {', '.join(BASE_NAMES)}"
        )
    spec = PROTOCOLS[key]
    if spec.fixed_k and k not in (None, spec.default_k):
        raise ValueError(f"{name} is a {spec.default_k}-player protocol")
    kk = spec.default_k if k is None or spec.fixed_k else k
    return spec.build(Params(
        _at_most("width", "n", n, MAX_WIDTH), _at_most("player count", "k", kk, MAX_PLAYERS),
        1 if d is None else d, int(m[2]) if m else None, seed,
    ))


def cost_bound(name: str, *, n: int, k: int, d: int | None) -> float | None:
    """The matching cost formula for a protocol's non-output communication."""
    return build_protocol(name, n=n, k=k, d=d).bound

"""The benchmark's workloads and the layer name of every player they run.

Nothing here imports mpjlab, so a worker can start its set-up clock
before the package is imported.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One fixed input space, run in full by every pass.

    kind is "sweep" (sampled instances from the seed), "exhaustive" (every
    instance of the space) or "attack" (one fooling-pair attack per
    protocol in `protocols`). `samples` is the sweep's instance count.
    """

    name: str
    kind: str
    protocols: tuple[str, ...]
    n: int
    k: int
    d: int | None = None
    samples: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-bucketing", "sweep", ("bucketing",), n=16, k=5, samples=2000),
        Workload("sweep-sublinear", "sweep", ("mpjk-sublinear",), n=16, k=6, d=2, samples=1000),
        Workload("exhaustive-small", "exhaustive", ("mpjk-sublinear",), n=3, k=4, d=2),
        Workload("attack", "attack", ("truncate4", "parity4", "hash4"), n=16, k=4),
    )
}

# span names of (first, middle, last) player, by registry protocol name
_PLAYER_ROLES = {
    "bucketing": ("bucketing.first", "bucketing.announce", "bucketing.answer"),
    "mpjk-sublinear": ("jump.openings", "jump.replies", "jump.answer"),
}
FAMILY_ROLE = "families.message"
PLAYER_SPANS = tuple(name for roles in _PLAYER_ROLES.values() for name in roles) + (FAMILY_ROLE,)


def player_roles(protocol: str, k: int) -> tuple[str, ...]:
    """Span name of each of the k players of a registry protocol."""
    first, middle, last = _PLAYER_ROLES.get(protocol, (FAMILY_ROLE,) * 3)
    return (first,) + (middle,) * (k - 2) + (last,)

"""Small permutation stand-ins for arbitrary function layers.

A set A of permutations d-covers a function f when every point r is
handled one of two ways: some member agrees with f there (pi(r) = f(r)),
or r lies in a fiber of f with more than d points. A scoped variant
restricts both the points that must be handled and the fiber counting to
a subset S. Covers of size d always exist, and they let a
permutation-only subprotocol substitute for a function layer everywhere
except the few heavy points, whose answers can be shipped directly.

The construction pairs each fiber of f with a same-size block of [n]
containing the fiber's output value, then emits d "rotations": the
ell-th permutation maps the fiber's j-th point to the block's
(j - ell)-th point, wrapping within the block. Distinct fibers map into
disjoint blocks, so each rotation is a permutation of [n]. Rotating ell
through 1..d moves every fiber point across min(d, block size) distinct
targets, one of which is the fiber's output value unless the fiber is
larger than d.

Everything is deterministic: ranges ascend, blocks are filled with the
smallest unused non-range points, and scoped fibers list in-scope points
first. Both builders are memoized (all inputs are hashable and tiny).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .core import LayerFunction


def mod_to_range(value: int, modulus: int) -> int:
    """Wrap an integer into {1, ..., modulus}; 0 and negatives wrap from the top."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return (value - 1) % modulus + 1


@dataclass(frozen=True)
class FiberPartition:
    """Fibers of a function matched with same-size disjoint blocks of [n].

    fibers[t] lists the preimages of range_values[t]; blocks[t] is the
    matched block, which meets the range only in range_values[t].
    """

    n: int
    range_values: tuple[int, ...]
    fibers: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]


def build_fiber_partition(f: LayerFunction) -> FiberPartition:
    """Pair each fiber with a block: seeded by its output value, padded with
    the smallest unused non-range points, processed in ascending value order."""
    groups: dict[int, list[int]] = {}
    for r, s in enumerate(f.values, start=1):
        groups.setdefault(s, []).append(r)
    range_values = tuple(sorted(groups))
    fibers = tuple(tuple(groups[s]) for s in range_values)
    spare = [r for r in range(1, f.n + 1) if r not in groups]
    spare.reverse()  # pop() yields the smallest remaining
    blocks = []
    for s, fib in zip(range_values, fibers):
        block = [s] + [spare.pop() for _ in range(len(fib) - 1)]
        blocks.append(tuple(sorted(block)))
    return FiberPartition(f.n, range_values, fibers, tuple(blocks))


def _fiber_sizes(f: LayerFunction, points: Iterable[int]) -> list[int]:
    """sizes[s] = how many of the given points (all in [n]) f sends to s,
    counted in one pass."""
    values = f.values
    sizes = [0] * (f.n + 1)
    for r in points:
        sizes[values[r - 1]] += 1
    return sizes


@dataclass(frozen=True)
class CoverSet:
    """A bundle of covering permutations for one target function."""

    perms: tuple[LayerFunction, ...]
    d: int
    target: LayerFunction
    scope: frozenset[int] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("cover parameter d must be at least 1")
        if len(self.perms) > self.d:
            raise ValueError("cover holds more than d permutations")
        for pi in self.perms:
            if not pi.is_permutation:
                raise ValueError("cover members must be permutations")


def _rotations(
    ordered_fibers: Iterable[tuple[int, ...]],
    ordered_blocks: Iterable[tuple[int, ...]],
    n: int,
    d: int,
) -> tuple[LayerFunction, ...]:
    pairs = list(zip(ordered_fibers, ordered_blocks))
    perms = []
    for ell in range(1, d + 1):
        vals = [0] * n
        for fib, block in pairs:
            width = len(block)
            for j, point in enumerate(fib, start=1):
                vals[point - 1] = block[mod_to_range(j - ell, width) - 1]
        perms.append(LayerFunction(n, tuple(vals)))
    return tuple(perms)


@lru_cache(maxsize=16384)
def _d_cover_cached(f: LayerFunction, d: int) -> CoverSet:
    fp = build_fiber_partition(f)
    perms = _rotations(fp.fibers, fp.blocks, f.n, d)
    return CoverSet(perms, d, f, None)


def build_d_cover(f: LayerFunction, d: int) -> CoverSet:
    """Exactly d permutations that d-cover f (members may repeat).

    Fiber points and block points are both taken in ascending order before
    rotating, which fixes the construction uniquely.
    """
    if d < 1:
        raise ValueError("cover parameter d must be at least 1")
    return _d_cover_cached(f, d)


def verify_d_cover(
    perms: Iterable[LayerFunction] | CoverSet, f: LayerFunction, d: int
) -> tuple[bool, int | None]:
    """Check the covering condition; returns (ok, first bad point or None).

    A d-cover is an (S,d)-cover whose scope S is all of [n].
    """
    return verify_sd_cover(perms, f, range(1, f.n + 1), d)


@lru_cache(maxsize=16384)
def _sd_cover_cached(f: LayerFunction, scope: frozenset[int], d: int) -> CoverSet:
    fp = build_fiber_partition(f)
    ordered_fibers = []
    ordered_blocks = []
    for s, fib, block in zip(fp.range_values, fp.fibers, fp.blocks):
        inside = tuple(r for r in fib if r in scope)
        outside = tuple(r for r in fib if r not in scope)
        ordered_fibers.append(inside + outside)
        # the output value goes last so that rotation ell = j lands on it
        ordered_blocks.append(tuple(b for b in block if b != s) + (s,))
    perms = _rotations(ordered_fibers, ordered_blocks, f.n, d)
    return CoverSet(perms, d, f, scope)


def build_sd_cover(f: LayerFunction, scope: Iterable[int], d: int) -> CoverSet:
    """Exactly d permutations covering f on the scope set only.

    In-scope fiber points are listed first (ascending), the fiber's output
    value is placed last in its block, and then the same rotation rule
    applies. An empty scope is fine: the covering condition is vacuous.
    """
    if d < 1:
        raise ValueError("cover parameter d must be at least 1")
    scope_set = frozenset(scope)
    for r in scope_set:
        if not 1 <= r <= f.n:
            raise ValueError(f"scope point {r} outside [1, {f.n}]")
    return _sd_cover_cached(f, scope_set, d)


def verify_sd_cover(
    perms: Iterable[LayerFunction] | CoverSet,
    f: LayerFunction,
    scope: Iterable[int],
    d: int,
) -> tuple[bool, int | None]:
    """Check the scoped covering condition; returns (ok, first bad point or None)."""
    members = perms.perms if isinstance(perms, CoverSet) else tuple(perms)
    scope_set = frozenset(scope)
    # scope points outside [n] lie in no fiber; f(r) below rejects them
    fiber_sizes = _fiber_sizes(f, (r for r in range(1, f.n + 1) if r in scope_set))
    for r in sorted(scope_set):
        target = f(r)
        if any(pi(r) == target for pi in members):
            continue
        if fiber_sizes[target] > d:
            continue
        return False, r
    return True, None

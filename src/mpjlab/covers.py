"""Small permutation stand-ins for arbitrary function layers.

A set A of permutations d-covers a function f when every point r is
handled one of two ways: some member agrees with f there (pi(r) = f(r)),
or r lies in a fiber of f with more than d points. A scoped variant
restricts both the points that must be handled and the fiber counting to
a subset S. Covers of size d always exist, and they let a
permutation-only subprotocol substitute for a function layer everywhere
except the few heavy points, whose answers can be shipped directly.

The construction pairs each fiber of f with a same-size block of [n]
containing the fiber's output value. Two maps of [n] come out of that
pairing: `base` sends the j-th point of each fiber to the j-th point of
its block, and `step` sends each block point to the point before it in
its block, wrapping around. Distinct fibers map into disjoint blocks, so
both are permutations, and the ell-th cover member is step^ell applied
after base. Over ell = 1..d every fiber point moves across min(d, block
size) distinct targets, one of which is the fiber's output value unless
the fiber is larger than d.

Everything is deterministic: ranges ascend, blocks are filled with the
smallest unused non-range points, and scoped fibers list in-scope points
first. Each call builds its cover afresh and the module keeps no state;
callers that reuse a cover hold it themselves (`jump._plan` does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import LayerFunction, _trusted


def _fibers_and_pads(f: LayerFunction) -> list[tuple[int, list[int], list[int]]]:
    """One grouping pass: (value, its ascending fiber, the points padding its
    block) for each range value, ascending.

    A block is its output value plus the smallest unused non-range points,
    handed out in ascending value order; pads come out ascending.
    """
    fibers: list[list[int] | None] = [None] * (f.n + 1)  # indexed by value
    for r, s in enumerate(f.values, start=1):
        fib = fibers[s]
        if fib is None:
            fibers[s] = [r]
        else:
            fib.append(r)
    spare = [r for r in range(1, f.n + 1) if fibers[r] is None]
    out = []
    used = 0
    for s, fib in enumerate(fibers):
        if fib is not None:
            pad = len(fib) - 1
            out.append((s, fib, spare[used : used + pad]))
            used += pad
    return out


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
        _check_widths(self.perms, self.target)
        for pi in self.perms:
            if not pi.is_permutation:
                raise ValueError("cover members must be permutations")


def _check_widths(members: Iterable[LayerFunction], target: LayerFunction) -> None:
    for pi in members:
        if pi.n != target.n:
            raise ValueError(f"cover member has width {pi.n}, its target has width {target.n}")


def _cover(f: LayerFunction, scope: frozenset[int] | None, d: int) -> CoverSet:
    """A new CoverSet with members step^ell . base for ell = 1..d.

    With scope None, fibers and blocks both ascend. With a scope, fibers
    list their in-scope points first and each block puts its output value
    last, so that member ell sends the ell-th fiber point to that value.
    Members are permutations of [n] by construction, so they skip
    LayerFunction's checks; CoverSet still checks each one.
    """
    n = f.n
    # a one-point fiber's block is its own value: base keeps f there and
    # step fixes it, so only larger fibers overwrite these starting values
    base = list(f.values)
    step = list(range(1, n + 1))
    for s, fib, pad in _fibers_and_pads(f):
        if not pad:
            continue
        if scope is None:
            block = sorted(pad + [s])
        else:
            if not scope.isdisjoint(fib):
                fib = [r for r in fib if r in scope] + [r for r in fib if r not in scope]
            block = pad + [s]
        for r, b in zip(fib, block):
            base[r - 1] = b
        prev = block[-1]
        for b in block:
            step[b - 1] = prev
            prev = b
    perms = []
    member = base
    for _ in range(d):
        member = tuple([step[v - 1] for v in member])
        perms.append(_trusted(LayerFunction, n, member))
    return CoverSet(tuple(perms), d, f, scope)


def build_d_cover(f: LayerFunction, d: int) -> CoverSet:
    """Exactly d permutations that d-cover f (members may repeat).

    Fiber points and block points are both taken in ascending order, which
    fixes the construction uniquely.
    """
    if d < 1:
        raise ValueError("cover parameter d must be at least 1")
    return _cover(f, None, d)


def verify_d_cover(
    perms: Iterable[LayerFunction] | CoverSet, f: LayerFunction, d: int
) -> tuple[bool, int | None]:
    """Check the covering condition; returns (ok, first bad point or None).

    A d-cover is an (S,d)-cover whose scope S is all of [n].
    """
    return verify_sd_cover(perms, f, range(1, f.n + 1), d)


def build_sd_cover(f: LayerFunction, scope: Iterable[int], d: int) -> CoverSet:
    """Exactly d permutations covering f on the scope set only.

    In-scope fiber points are listed first (ascending), the fiber's output
    value is placed last in its block, and then the same base and step
    rule applies. An empty scope is fine: the covering condition is vacuous.
    """
    if d < 1:
        raise ValueError("cover parameter d must be at least 1")
    scope_set = frozenset(scope)
    for r in scope_set:
        if not 1 <= r <= f.n:
            raise ValueError(f"scope point {r} outside [1, {f.n}]")
    return _cover(f, scope_set, d)


def verify_sd_cover(
    perms: Iterable[LayerFunction] | CoverSet,
    f: LayerFunction,
    scope: Iterable[int],
    d: int,
) -> tuple[bool, int | None]:
    """Check the scoped covering condition; returns (ok, first bad point or None).

    A member whose width differs from f's is refused with ValueError.
    """
    members = perms.perms if isinstance(perms, CoverSet) else tuple(perms)
    _check_widths(members, f)
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

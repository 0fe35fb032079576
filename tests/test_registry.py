"""What each registry name builds, pinned over a grid of parameters.

For every base name (width t = 3 for the `<t>` families) and every case of
n in {2, 4, 8, 16, 100}, k in {default, 3, ..., 6} and d in {1, 2, 3}, a
case is either what was built (the handle's name, k, variant, view kind
and declared bounds, plus the instance mask, cost bound and bucket plan)
or the exact text of the refusal. Each name's cases are pinned as one
sha256 digest, recorded before the registry's entries became single build
functions; a change to what a name builds or refuses moves its digest.
"""

import hashlib
import itertools

import pytest

from mpjlab.bucketing import bucket_bound, doubling_plan
from mpjlab.core import sample_instances
from mpjlab.registry import BASE_NAMES, MAX_WIDTH, PROTOCOLS, build_protocol, cost_bound
from mpjlab.sim import verify

WIDTHS = (2, 4, 8, 16, 100)
PLAYER_COUNTS = (None, 3, 4, 5, 6)
COVER_PARAMETERS = (1, 2, 3)

DIGESTS = {
    "index": "9e53306065dd8b9ea4a09a0d0bc3e78bfa70540070b1f2f4de4da57357d71b33",
    "mpj3-sublinear": "c5e0f02d138c351800f080c87b8213f5a7656f68e5589b5fa639b09af8925466",
    "mpjk-sublinear": "b2be1c1d77f9256a8f60c981c7d7de959ef34385d16220dd750c21d1e82e26d8",
    "bucketing": "fa9524c0f9dffd739c26ae4abd9f872a37ab1daead7d627cc4b8045377ea1eba",
    "bucketing-doubling": "0727ad7368373d95089c9e05c7db7e6a1a483469c57c674f7b4d3307895c1df6",
    "broken-const": "8dab7cf39eb233bacd8a5ea65276817d7dfda24bda7cc2cc16ceae56004f21d9",
    "constant": "063bf3d5e3ae27af612acda67d3bcc0692e0cfcf2446b6abd8e5527281f29738",
    "truncate<t>": "438064810b426a740b2bf5acd2c00de2df59d7659f937148bbc01609e7eeb557",
    "parity<t>": "0cd3344b6327542653ce1ebfc9199328d2359f15be9364d42c70febbb4116705",
    "hash<t>": "721092f39d3b0f2284ec191b3371d3109e332e6df9922394233ace0e46ccb68a",
}


def cases(base):
    name = base.replace("<t>", "3")
    for n, k, d in itertools.product(WIDTHS, PLAYER_COUNTS, COVER_PARAMETERS):
        yield name, n, k, d


def try_build(name, n, k, d):
    """The case's `BuiltProtocol`, or the ValueError that refused it."""
    try:
        return build_protocol(name, n=n, k=k, d=d)
    except ValueError as exc:
        return exc


def outcome(name, n, k, d):
    """One line: what `build_protocol` returns for the case, or its refusal."""
    built = try_build(name, n, k, d)
    if isinstance(built, ValueError):
        return repr((name, n, k, d, "refused", type(built).__name__, str(built)))
    handle, plan = built.handle, built.bucket_plan
    return repr((
        name, n, k, d, handle.name, handle.k, built.variant.value, handle.view_kind.value,
        handle.declared_max_bits, built.perm_mask, built.bound,
        None if plan is None else (plan.n, plan.k, plan.widths, plan.terminal),
    ))


def table_digest(base):
    lines = "".join(outcome(*case) + "\n" for case in cases(base))
    return hashlib.sha256(lines.encode()).hexdigest()


def test_every_name_is_pinned():
    assert tuple(DIGESTS) == BASE_NAMES


@pytest.mark.parametrize("base", BASE_NAMES)
def test_what_each_name_builds(base):
    assert table_digest(base) == DIGESTS[base]


@pytest.mark.parametrize("base", BASE_NAMES)
def test_cost_bound_is_the_built_bound_over_the_grid(base):
    for name, n, k, d in cases(base):
        built = try_build(name, n, k, d)
        if not isinstance(built, ValueError):
            assert cost_bound(name, n=n, k=k, d=d) == built.bound


@pytest.mark.parametrize("base", ["bucketing", "bucketing-doubling"])
def test_bucketing_bound_is_its_plans_bound(base):
    built = [try_build(*case) for case in cases(base)]
    built = [b for b in built if not isinstance(b, ValueError)]
    assert built
    for b in built:
        assert b.bound == bucket_bound(b.bucket_plan)


def doubling_builds(n, k):
    try:
        doubling_plan(n, k)
    except ValueError:
        return False
    return True


def test_doubling_default_k_builds_at_every_width():
    # and is the smallest k that does: one player fewer fails from n = 257
    k = PROTOCOLS["bucketing-doubling"].default_k
    widths = range(1, MAX_WIDTH + 1)
    assert all(doubling_builds(n, k) for n in widths)
    assert next(n for n in widths if not doubling_builds(n, k - 1)) == 257


@pytest.mark.parametrize("n", [1, 16, 257, MAX_WIDTH])
def test_doubling_builds_at_its_default_k(n):
    built = build_protocol("bucketing-doubling", n=n)
    assert built.handle.k == built.bucket_plan.k == 6
    insts = sample_instances(n, 6, built.variant, built.perm_mask, count=3, seed=n)
    assert verify(built.handle, insts).ok

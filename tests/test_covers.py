"""Permutation covers: construction determinism and the covering condition.

Expected permutations were worked out by hand from the stated rules
(ascending fibers, smallest-spare block fill, subtractive rotation) and
then frozen here.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjlab.core import LayerFunction
from mpjlab.covers import (
    CoverSet,
    _fibers_and_pads,
    build_d_cover,
    build_sd_cover,
    verify_d_cover,
    verify_sd_cover,
)


def layer(*values):
    return LayerFunction(len(values), tuple(values))


def fiber_partition(f):
    """(range values, their fibers, their matched blocks), read off the
    construction's one grouping pass."""
    parts = _fibers_and_pads(f)
    return (
        tuple(s for s, _, _ in parts),
        tuple(tuple(fib) for _, fib, _ in parts),
        tuple(tuple(sorted(pad + [s])) for s, _, pad in parts),
    )


def all_functions(n):
    for values in itertools.product(range(1, n + 1), repeat=n):
        yield LayerFunction(n, values)


layers_st = st.integers(2, 6).flatmap(
    lambda n: st.lists(st.integers(1, n), min_size=n, max_size=n).map(
        lambda v: LayerFunction(n, tuple(v))
    )
)


class TestFiberPartition:
    def test_two_even_fibers(self):
        assert fiber_partition(layer(2, 2, 4, 4)) == ((2, 4), ((1, 2), (3, 4)), ((1, 2), (3, 4)))

    def test_single_fiber_takes_whole_domain(self):
        _, fibers, blocks = fiber_partition(layer(3, 3, 3, 3))
        assert fibers == ((1, 2, 3, 4),)
        assert blocks == ((1, 2, 3, 4),)

    def test_spares_fill_smallest_first(self):
        assert fiber_partition(layer(4, 4, 1, 2)) == (
            (1, 2, 4), ((3,), (4,), (1, 2)), ((1,), (2,), (3, 4))
        )

    @given(layers_st)
    def test_blocks_partition_the_domain(self, f):
        range_values, fibers, blocks = fiber_partition(f)
        flat = [b for block in blocks for b in block]
        assert sorted(flat) == list(range(1, f.n + 1))
        for s, block in zip(range_values, blocks):
            assert s in block
            assert set(block) & set(range_values) == {s}
        for fib, block in zip(fibers, blocks):
            assert len(fib) == len(block)


class TestPlainCovers:
    def test_frozen_even_split(self):
        cover = build_d_cover(layer(2, 2, 4, 4), 2)
        assert [pi.values for pi in cover.perms] == [(2, 1, 4, 3), (1, 2, 3, 4)]
        assert verify_d_cover(cover, layer(2, 2, 4, 4), 2) == (True, None)

    def test_frozen_constant_function(self):
        cover = build_d_cover(layer(3, 3, 3, 3), 1)
        assert [pi.values for pi in cover.perms] == [(4, 1, 2, 3)]

    def test_frozen_three_point(self):
        cover = build_d_cover(layer(1, 1, 2), 1)
        assert [pi.values for pi in cover.perms] == [(3, 1, 2)]

    def test_heavy_fibers_are_exempt(self):
        f = layer(1, 1, 1, 2)
        cover = build_d_cover(f, 2)
        assert [pi.values for pi in cover.perms] == [(4, 1, 3, 2), (3, 4, 1, 2)]
        assert verify_d_cover(cover, f, 2) == (True, None)

    def test_members_may_repeat(self):
        cover = build_d_cover(LayerFunction.identity(3), 2)
        assert len(cover.perms) == 2
        assert cover.perms[0] == cover.perms[1] == LayerFunction.identity(3)

    def test_verifier_reports_first_uncovered_point(self):
        f = layer(2, 2, 4, 4)
        ok, witness = verify_d_cover([LayerFunction.identity(4)], f, 2)
        assert (ok, witness) == (False, 1)

    def test_exhaustive_small_domain(self):
        for n in (2, 3):
            for f in all_functions(n):
                for d in range(1, n + 1):
                    cover = build_d_cover(f, d)
                    assert len(cover.perms) == d
                    assert verify_d_cover(cover, f, d) == (True, None)

    def test_rotation_spread(self):
        # across the d rotations, a fiber point visits min(d, block size)
        # distinct targets, one of which is the fiber's output value
        # whenever the fiber is small enough
        for f in all_functions(4):
            for d in range(1, 5):
                cover = build_d_cover(f, d)
                for s, fib, block in zip(*fiber_partition(f)):
                    for point in fib:
                        seen = {pi(point) for pi in cover.perms}
                        assert len(seen) == min(d, len(block))
                        assert seen <= set(block)
                        if len(fib) <= d:
                            assert s in seen

    def test_construction_is_deterministic(self):
        f, twin = layer(2, 1, 1, 3), LayerFunction(4, (2, 1, 1, 3))
        first, second = build_d_cover(f, 2), build_d_cover(twin, 2)
        assert first is not second and first == second
        assert first.perms == (layer(2, 4, 1, 3), layer(2, 1, 4, 3))
        scoped, twin_scoped = build_sd_cover(f, {2, 3}, 2), build_sd_cover(twin, [3, 2], 2)
        assert scoped is not twin_scoped and scoped == twin_scoped

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            build_d_cover(layer(1, 2), 0)

    @settings(max_examples=80)
    @given(layers_st, st.integers(1, 4))
    def test_random_functions_always_verify(self, f, d):
        cover = build_d_cover(f, d)
        assert all(pi.is_permutation for pi in cover.perms)
        assert verify_d_cover(cover, f, d) == (True, None)


class TestScopedCovers:
    def test_frozen_full_scope_differs_from_plain(self):
        f = layer(1, 1, 2)
        scoped = build_sd_cover(f, {1, 2, 3}, 1)
        assert [pi.values for pi in scoped.perms] == [(1, 3, 2)]
        assert scoped.perms != build_d_cover(f, 1).perms
        assert verify_sd_cover(scoped, f, {1, 2, 3}, 1) == (True, None)

    def test_frozen_partial_scope(self):
        f = layer(1, 1, 2)
        cover = build_sd_cover(f, {2, 3}, 1)
        assert [pi.values for pi in cover.perms] == [(3, 1, 2)]
        assert verify_sd_cover(cover, f, {2, 3}, 1) == (True, None)

    def test_empty_scope_is_vacuous(self):
        f = layer(2, 2, 1)
        cover = build_sd_cover(f, (), 1)
        assert len(cover.perms) == 1
        assert verify_sd_cover(cover, f, (), 1) == (True, None)

    def test_empty_scope_is_d_identities(self):
        for n in (1, 2, 3):
            identity = LayerFunction.identity(n)
            for f in all_functions(n):
                for d in range(1, n + 2):
                    cover = build_sd_cover(f, (), d)
                    assert cover.perms == (identity,) * d
                    assert (cover.d, cover.target, cover.scope) == (d, f, frozenset())
                    assert verify_sd_cover(cover, f, (), d) == (True, None)

    @pytest.mark.parametrize(
        "scope, d, text",
        [
            ((), 0, "cover parameter d must be at least 1"),
            ({4}, 0, "cover parameter d must be at least 1"),
            ({4}, 1, r"scope point 4 outside \[1, 3\]"),
            ({0, 2}, 2, r"scope point 0 outside \[1, 3\]"),
        ],
    )
    def test_refusals_precede_the_empty_scope(self, scope, d, text):
        with pytest.raises(ValueError, match=f"^{text}$"):
            build_sd_cover(layer(2, 2, 1), scope, d)

    def test_scope_points_must_be_in_domain(self):
        with pytest.raises(ValueError):
            build_sd_cover(layer(1, 2), {3}, 1)

    def test_lone_in_scope_point_is_always_hit(self):
        # a point whose fiber meets the scope only in itself must be
        # covered even at d = 1
        for f in all_functions(3):
            for r in (1, 2, 3):
                scope = frozenset({r})
                cover = build_sd_cover(f, scope, 1)
                assert any(pi(r) == f(r) for pi in cover.perms)

    def test_exhaustive_small_domain(self):
        points = (1, 2, 3)
        scopes = [frozenset(c) for size in range(4) for c in itertools.combinations(points, size)]
        for f in all_functions(3):
            for scope in scopes:
                for d in (1, 2, 3):
                    cover = build_sd_cover(f, scope, d)
                    assert len(cover.perms) == d
                    assert verify_sd_cover(cover, f, scope, d) == (True, None)

    def test_verifier_ignores_out_of_scope_failures(self):
        f = layer(2, 2, 4, 4)
        bad = [LayerFunction.identity(4)]
        assert verify_sd_cover(bad, f, (), 2) == (True, None)
        assert verify_sd_cover(bad, f, {1, 2}, 1) == (True, None)  # in-scope fiber heavy
        assert verify_sd_cover(bad, f, {1}, 1) == (False, 1)

    @settings(max_examples=80)
    @given(layers_st, st.integers(1, 3), st.data())
    def test_random_scopes_always_verify(self, f, d, data):
        scope = data.draw(st.sets(st.integers(1, f.n)))
        cover = build_sd_cover(f, scope, d)
        assert all(pi.is_permutation for pi in cover.perms)
        assert verify_sd_cover(cover, f, scope, d) == (True, None)


class TestCoverSetValidation:
    def test_d_must_be_positive(self):
        ident = LayerFunction.identity(3)
        with pytest.raises(ValueError, match="d must be at least 1"):
            CoverSet((), 0, ident)
        with pytest.raises(ValueError, match="d must be at least 1"):
            build_sd_cover(ident, {1}, 0)

    def test_too_many_members(self):
        ident = LayerFunction.identity(3)
        with pytest.raises(ValueError):
            CoverSet((ident, ident), 1, ident)

    def test_non_permutation_member(self):
        with pytest.raises(ValueError):
            CoverSet((layer(1, 1, 2),), 1, layer(1, 1, 2))

    def test_accepts_fewer_than_d(self):
        ident = LayerFunction.identity(3)
        assert CoverSet((ident,), 3, ident).d == 3

    @pytest.mark.parametrize("width", [3, 5])
    def test_member_of_another_width(self, width):
        # narrower and wider members are refused, not left to fail (or pass)
        # when applied to the target's points
        with pytest.raises(ValueError, match=f"width {width}, its target has width 4"):
            CoverSet((LayerFunction.identity(width),), 1, LayerFunction.identity(4))


class TestVerifierWidths:
    @pytest.mark.parametrize("width", [3, 5])
    def test_member_of_another_width(self, width):
        f = layer(2, 2, 3, 3)
        member = [LayerFunction.identity(width)]
        with pytest.raises(ValueError, match=f"width {width}, its target has width 4"):
            verify_d_cover(member, f, 1)
        with pytest.raises(ValueError, match=f"width {width}, its target has width 4"):
            verify_sd_cover(member, f, (), 1)

"""Instance types, brute-force evaluation, enumeration, sampling, JSON forms.

The expected answers below were computed by hand-unrolling the layer
compositions independently of the library code, then frozen.
"""

import hashlib
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjlab.core import (
    BitVector,
    BudgetExceededError,
    LayerFunction,
    MpjHatInstance,
    MpjInstance,
    Variant,
    chain_layers,
    collapsed_suffixes,
    compose_bits,
    enumerate_instances,
    eval_instance,
    eval_mpj,
    eval_mpj_hat,
    follow_pointers,
    instance_count,
    instance_from_dict,
    instance_to_dict,
    sample_instance,
    sample_instances,
)
from mpjlab.sim import ViewKind, make_view


def layer(*values):
    return LayerFunction(len(values), tuple(values))


def bits(text):
    return BitVector.from01(text)


def boolean_instances(max_n=4, max_k=4):
    return st.integers(2, max_n).flatmap(
        lambda n: st.integers(2, max_k).flatmap(
            lambda k: st.tuples(
                st.integers(1, n),
                st.lists(
                    st.lists(st.integers(1, n), min_size=n, max_size=n).map(
                        lambda v: LayerFunction(n, tuple(v))
                    ),
                    min_size=k - 2,
                    max_size=k - 2,
                ),
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
            ).map(
                lambda t: MpjInstance(n, k, t[0], tuple(t[1]), BitVector(n, tuple(t[2])))
            )
        )
    )


class TestLayerFunction:
    def test_application_is_one_based(self):
        f = layer(2, 3, 1)
        assert [f(r) for r in (1, 2, 3)] == [2, 3, 1]

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            layer(0, 1, 2)
        with pytest.raises(ValueError):
            layer(1, 2, 4)
        with pytest.raises(ValueError):
            LayerFunction(3, (1, 2))

    def test_permutation_detection(self):
        assert layer(2, 3, 1).is_permutation
        assert not layer(2, 2, 1).is_permutation

    def test_fibers_ascend(self):
        f = layer(2, 2, 4, 4)
        assert f.fiber(2) == (1, 2)
        assert f.fiber(4) == (3, 4)
        assert f.fiber(1) == ()

    def test_composition_applies_inner_first(self):
        f = layer(2, 3, 1)
        g = layer(1, 1, 2)
        assert g.after(f).values == (1, 2, 1)  # g(f(r))

    def test_chain_of_nothing_is_identity(self):
        assert chain_layers((), 3) == LayerFunction.identity(3)

    def test_inverse(self):
        f = layer(3, 1, 2)
        assert f.inverse().values == (2, 3, 1)
        with pytest.raises(ValueError):
            layer(1, 1, 2).inverse()


class TestBitVector:
    def test_text_form_lists_position_one_first(self):
        x = bits("0101")
        assert (x(1), x(2), x(3), x(4)) == (0, 1, 0, 1)
        assert x.to01() == "0101"

    def test_weight_and_complement(self):
        assert bits("0110").weight == 2
        assert bits("0110").complement() == bits("1001")

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12))
    def test_complement_involution_and_weight_split(self, raw):
        x = BitVector(len(raw), tuple(raw))
        assert x.complement().complement() == x
        assert x.weight + x.complement().weight == x.n

    def test_reading_through_a_layer(self):
        # position r of the composed vector holds x at f(r)
        assert bits("0110").through(layer(2, 1, 4, 3)) == bits("1001")

    def test_refusals(self):
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            BitVector(0, ())
        with pytest.raises(ValueError, match="expected 3 bits, got 2"):
            BitVector(3, (0, 1))
        with pytest.raises(ValueError, match="nonempty"):
            BitVector.from01("")


class TestEvaluation:
    def test_identity_middle_reads_pointer_position(self):
        inst = MpjInstance(4, 3, 2, (LayerFunction.identity(4),), bits("0101"))
        assert eval_mpj(inst) == 1

    def test_one_middle_layer(self):
        inst = MpjInstance(4, 3, 1, (layer(3, 1, 2, 4),), bits("0010"))
        assert eval_mpj(inst) == 1  # f(1)=3, x_3=1

    def test_two_middle_layers_hand_unrolled(self):
        # f_2(2)=3, f_3(3)=2, x_2=0
        inst = MpjInstance(
            3, 4, 2, (layer(2, 3, 1), layer(1, 1, 2)), bits("100")
        )
        assert eval_mpj(inst) == 0

    def test_two_players_reads_directly(self):
        assert eval_mpj(MpjInstance(3, 2, 3, (), bits("001"))) == 1

    def test_hat_walks_every_layer(self):
        inst = MpjHatInstance(4, 3, 1, (layer(2, 3, 4, 1), layer(4, 3, 2, 1)))
        assert eval_mpj_hat(inst) == 3  # f_2(1)=2, f_3(2)=3

    def test_hat_two_players(self):
        assert eval_mpj_hat(MpjHatInstance(4, 2, 3, (layer(1, 1, 1, 1),))) == 1

    @given(boolean_instances())
    def test_eval_matches_explicit_walk(self, inst):
        assert eval_mpj(inst) == inst.x(follow_pointers(inst.i, inst.middles))


class TestDerivedViews:
    """`collapsed_suffixes` and the walk point of a conservative view."""

    def test_identity_middle_keeps_walk_point(self):
        inst = MpjInstance(4, 3, 2, (LayerFunction.identity(4),), bits("0101"))
        kind = ViewKind.CONSERVATIVE_COLLAPSING
        assert make_view(inst, 2, kind, ()).walked == 2
        assert make_view(inst, 3, kind, ()).walked == 2

    def test_collapsed_suffix_of_first_player(self):
        inst = MpjInstance(4, 3, 1, (layer(2, 1, 4, 3),), bits("0110"))
        assert collapsed_suffixes(inst)[0] == bits("1001")

    def test_last_boolean_suffix_is_x_itself(self):
        inst = MpjInstance(3, 4, 2, (layer(2, 3, 1), layer(1, 1, 2)), bits("100"))
        assert collapsed_suffixes(inst)[2] == inst.x

    def test_hat_suffix_collapse(self):
        inst = MpjHatInstance(
            4, 4, 1, (layer(3, 3, 1, 2), layer(2, 2, 2, 2), LayerFunction.identity(4))
        )
        suffixes = collapsed_suffixes(inst)
        assert suffixes[1] == layer(2, 2, 2, 2)  # f_4 after f_3
        assert suffixes[3] == LayerFunction.identity(4)

    @given(boolean_instances())
    def test_composition_consistency(self, inst):
        # evaluating at any intermediate layer gives the same answer
        suffixes = collapsed_suffixes(inst)
        answer = eval_mpj(inst)
        for j in range(2, inst.k):
            f_j = inst.middles[j - 2]
            walked = make_view(inst, j, ViewKind.CONSERVATIVE_COLLAPSING, ()).walked
            assert suffixes[j - 1](f_j(walked)) == answer

    def test_domain_errors(self):
        # one suffix after each layer: k-1 bit layers for mpj (none after
        # x), k maps for mpjhat (the last one the empty suffix)
        inst = MpjInstance(3, 3, 1, (layer(1, 2, 3),), bits("010"))
        assert len(collapsed_suffixes(inst)) == 2
        hat = MpjHatInstance(3, 3, 1, (layer(1, 2, 3), layer(3, 2, 1)))
        assert len(collapsed_suffixes(hat)) == 3


class TestEnumeration:
    def test_boolean_count(self):
        assert instance_count(2, 3, Variant.MPJ) == 32
        assert instance_count(3, 2, Variant.MPJ) == 24
        assert sum(1 for _ in enumerate_instances(2, 3, Variant.MPJ)) == 32

    def test_hat_all_permutation_count(self):
        mask = (True, True)
        assert instance_count(3, 3, Variant.MPJ_HAT, mask) == 108
        insts = list(enumerate_instances(3, 3, Variant.MPJ_HAT, mask))
        assert len(insts) == 108
        assert len(set(insts)) == 108

    def test_budget_refusal_reports_exact_count(self):
        with pytest.raises(BudgetExceededError) as err:
            list(enumerate_instances(3, 3, Variant.MPJ, budget=647))
        assert err.value.count == 648

    def test_lexicographic_order(self):
        insts = list(enumerate_instances(2, 3, Variant.MPJ))
        first, last = insts[0], insts[-1]
        assert (first.i, first.middles[0].values, first.x.to01()) == (1, (1, 1), "00")
        assert (last.i, last.middles[0].values, last.x.to01()) == (2, (2, 2), "11")
        assert len(set(insts)) == len(insts)

    def test_permutation_mask_restricts_layers(self):
        insts = list(enumerate_instances(3, 3, Variant.MPJ, (True,)))
        assert len(insts) == 3 * 6 * 8
        assert all(inst.middles[0].is_permutation for inst in insts)

    def test_each_bit_layer_is_built_once(self):
        insts = list(enumerate_instances(3, 4, Variant.MPJ))
        assert len({id(inst.x) for inst in insts}) <= 2**3

    def test_each_tuple_of_layers_is_built_once_per_start(self):
        insts = list(enumerate_instances(3, 4, Variant.MPJ))
        ids = {}
        for inst in insts:
            ids.setdefault((inst.i, inst.middles), set()).add(id(inst.middles))
        assert len(ids) == 3 * 27**2
        assert all(len(same) == 1 for same in ids.values())
        # both middle layers range over one list of the 27 layers
        assert len({id(f) for inst in insts for f in inst.middles}) == 27

    def test_a_stream_holds_no_past_tuple_of_layers(self):
        # 23,328 instances from 7,776 tuples of five layers: keeping every
        # tuple for the next start would hold several hundred KiB
        tracemalloc.start()
        try:
            for _ in enumerate_instances(3, 6, Variant.MPJ_HAT, (True,) * 5):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024


def stream_digest(insts):
    """sha256 of the JSON list of the instances' shared dict forms."""
    return hashlib.sha256(
        json.dumps([instance_to_dict(inst) for inst in insts]).encode()
    ).hexdigest()


# Recorded from the stream `randint` and `shuffle` drew, before sampling
# read `getrandbits` itself: 50 instances at seed 7 per sampled stream.
SAMPLED_DIGESTS = [
    (1, 3, Variant.MPJ, None,
     "76212c9447b7664bac303309f7ac45d74391b0718bc2c3d23d3bcb20c030449b"),
    (3, 4, Variant.MPJ, None,
     "cdb15724f44d51d3d6d623ee4e50174f2aa4cdd7dfec23e4efd703346d8ef276"),
    (16, 6, Variant.MPJ, None,
     "271ef91d63235a37e0279f9fe9377a60992c849255c155e4aff079815d5b82df"),
    (33, 5, Variant.MPJ, None,
     "db2e6489e6c943162986095b0c07fac50e14193081806e4f815ad9433dad8e91"),
    (16, 5, Variant.MPJ_HAT, (True,) * 4,
     "aaa6136604da0c3150ab1fcf5327359649742d00e69d6585191e47f466f21f8d"),
    (1, 3, Variant.MPJ_HAT, (True,) * 2,
     "d3d416b9c99a8a66148139289f33b0616fc36de6bc1e35cdc52867d590ffb318"),
    (7, 4, Variant.MPJ_HAT, (True, False, True),
     "94391918795cba123f839401e2449af8b8e57f94242cba4a53d0687e449a5abc"),
]

ENUMERATED_DIGESTS = [
    (3, 4, Variant.MPJ, None,
     "cde6c0afd8c696de9dfa7f80903fd73b100de21789ee2ec419d1a576da4d07a8"),
    (4, 3, Variant.MPJ_HAT, (True, True),
     "3047424ed04958f9e96ef89643af833070a4be630c131c6f0fbb7f297d7f471e"),
]


class TestPinnedStreams:
    @pytest.mark.parametrize("n, k, variant, mask, digest", SAMPLED_DIGESTS)
    def test_sampled_stream(self, n, k, variant, mask, digest):
        insts = sample_instances(n, k, variant, mask, count=50, seed=7)
        assert stream_digest(insts) == digest

    @pytest.mark.parametrize("n, k, variant, mask, digest", ENUMERATED_DIGESTS)
    def test_enumerated_space(self, n, k, variant, mask, digest):
        assert stream_digest(enumerate_instances(n, k, variant, mask)) == digest


def rebuilt(inst):
    """`inst` built again through the public constructors, every check run."""
    if isinstance(inst, MpjInstance):
        layers = tuple(LayerFunction(f.n, f.values) for f in inst.middles)
        return MpjInstance(inst.n, inst.k, inst.i, layers, BitVector(inst.x.n, inst.x.bits))
    layers = tuple(LayerFunction(f.n, f.values) for f in inst.layers)
    return MpjHatInstance(inst.n, inst.k, inst.i, layers, inst.perm_mask)


def assert_same_object(built, checked):
    """Same type, equality, hash and fields, in field order, as `checked`."""
    assert type(built) is type(checked)
    assert built == checked
    assert hash(built) == hash(checked)
    assert list(vars(built)) == list(vars(checked))
    for name, value in vars(checked).items():
        part = getattr(built, name)
        if isinstance(value, tuple):
            assert type(part) is tuple and len(part) == len(value)
            for a, b in zip(part, value):
                assert type(a) is type(b)
                if isinstance(b, LayerFunction):
                    assert_same_object(a, b)
        elif isinstance(value, BitVector):
            assert_same_object(part, value)
        else:
            assert type(part) is type(value) and part == value


class TestGeneratedInstancesMatchCheckedOnes:
    """Generated instances skip per-value checks; each must be the object
    the public constructors would build from the same values."""

    @pytest.mark.parametrize("n, k, variant, mask, digest", SAMPLED_DIGESTS)
    def test_sampled(self, n, k, variant, mask, digest):
        for inst in sample_instances(n, k, variant, mask, count=50, seed=7):
            assert_same_object(inst, rebuilt(inst))

    @pytest.mark.parametrize("n, k, variant, mask, digest", ENUMERATED_DIGESTS)
    def test_enumerated(self, n, k, variant, mask, digest):
        for inst in enumerate_instances(n, k, variant, mask):
            assert_same_object(inst, rebuilt(inst))


class TestSampling:
    def test_same_seed_same_instance(self):
        a = sample_instance(8, 4, Variant.MPJ, seed=123)
        b = sample_instance(8, 4, Variant.MPJ, seed=123)
        assert a == b

    def test_seeds_rarely_collide(self):
        drawn = {sample_instance(8, 3, Variant.MPJ, seed=s) for s in range(100)}
        assert len(drawn) == 100

    def test_stream_is_deterministic(self):
        a = list(sample_instances(6, 3, Variant.MPJ, count=20, seed=5))
        b = list(sample_instances(6, 3, Variant.MPJ, count=20, seed=5))
        assert a == b

    @pytest.mark.parametrize(
        "variant, mask",
        [(Variant.MPJ, None), (Variant.MPJ_HAT, None), (Variant.MPJ_HAT, (True,) * 3)],
    )
    def test_one_draw_is_the_first_of_the_stream(self, variant, mask):
        for seed in range(20):
            stream = sample_instances(5, 4, variant, mask, count=3, seed=seed)
            assert sample_instance(5, 4, variant, mask, seed=seed) == next(stream)

    def test_the_seed_defaults_to_zero(self):
        default = sample_instance(5, 4, Variant.MPJ)
        assert default == sample_instance(5, 4, Variant.MPJ, seed=0)
        assert default == next(sample_instances(5, 4, Variant.MPJ, count=1))
        assert default != sample_instance(5, 4, Variant.MPJ, seed=1)

    def test_mask_length_follows_the_variant(self):
        # k-2 middle layers for mpj, k-1 layers for mpjhat
        for call in (
            lambda mask: sample_instance(5, 4, Variant.MPJ, mask),
            lambda mask: list(enumerate_instances(2, 4, Variant.MPJ, mask)),
            lambda mask: instance_count(5, 4, Variant.MPJ, mask),
        ):
            call((False, False))
            with pytest.raises(ValueError, match="must have 2 entries, got 3"):
                call((False,) * 3)
        sample_instance(5, 4, Variant.MPJ_HAT, (False,) * 3)
        with pytest.raises(ValueError, match="must have 3 entries, got 2"):
            sample_instance(5, 4, Variant.MPJ_HAT, (False,) * 2)

    def test_negative_seed_is_refused(self):
        # Random seeds with |seed|, so -3 would repeat seed 3's stream
        with pytest.raises(ValueError, match="seed must be at least 0, got -3"):
            sample_instances(4, 3, Variant.MPJ, count=1, seed=-3)
        with pytest.raises(ValueError):
            sample_instance(4, 3, Variant.MPJ, seed=-1)

    def test_mask_produces_permutations(self):
        inst = sample_instance(16, 4, Variant.MPJ_HAT, (True,) * 3, seed=9)
        assert all(f.is_permutation for f in inst.layers)
        assert inst.perm_mask == (True, True, True)


M, H = Variant.MPJ, Variant.MPJ_HAT

# Every refusal of the generators and instance_count: the exception type
# and its whole text, recorded before the generators built instances
# trusted. Rows under "fixed" changed with that: sampling at n = 0 gave a
# generator whose first draw never ended, k = 1 on the Boolean variant
# was refused for its mask (or counted 24 instances), and a negative n
# was counted as 0.5 or refused by itertools.
REFUSALS = [
    ("sample, negative seed", lambda: sample_instances(4, 3, M, count=1, seed=-3),
     ValueError, "seed must be at least 0, got -3"),
    ("sample one, negative seed", lambda: sample_instance(4, 3, M, seed=-1),
     ValueError, "seed must be at least 0, got -1"),
    ("sample mpj, mask too long", lambda: sample_instances(5, 4, M, (False,) * 3, count=1),
     ValueError, "perm_mask must have 2 entries, got 3"),
    ("sample mpjhat, mask too short", lambda: sample_instances(5, 4, H, (False,) * 2, count=1),
     ValueError, "perm_mask must have 3 entries, got 2"),
    ("enumerate mpj, mask too long", lambda: list(enumerate_instances(2, 4, M, (False,) * 3)),
     ValueError, "perm_mask must have 2 entries, got 3"),
    ("enumerate mpjhat, mask too short", lambda: list(enumerate_instances(2, 4, H, (True,))),
     ValueError, "perm_mask must have 3 entries, got 1"),
    ("count mpj, mask too long", lambda: instance_count(5, 4, M, (False,) * 3),
     ValueError, "perm_mask must have 2 entries, got 3"),
    ("enumerate mpj, n = 0", lambda: list(enumerate_instances(0, 3, M)),
     ValueError, "n must be positive, got 0"),
    ("enumerate mpj, n = 0, k = 2", lambda: list(enumerate_instances(0, 2, M)),
     ValueError, "n must be positive, got 0"),
    ("enumerate mpjhat, n = 0", lambda: list(enumerate_instances(0, 3, H)),
     ValueError, "n must be positive, got 0"),
    ("enumerate mpjhat, n = 0, permutations",
     lambda: list(enumerate_instances(0, 3, H, (True, True))),
     ValueError, "n must be positive, got 0"),
    ("sample mpjhat, k = 1", lambda: list(sample_instances(3, 1, H, count=1, seed=1)),
     ValueError, "k must be at least 2, got 1"),
    ("enumerate mpjhat, k = 1", lambda: list(enumerate_instances(3, 1, H)),
     ValueError, "k must be at least 2, got 1"),
    ("enumerate mpj, over budget", lambda: list(enumerate_instances(3, 3, M, budget=647)),
     BudgetExceededError, "enumeration would produce 648 instances, over the budget of 647"),
    ("enumerate mpjhat, over budget",
     lambda: list(enumerate_instances(4, 3, H, (True, True), budget=100)),
     BudgetExceededError, "enumeration would produce 2304 instances, over the budget of 100"),
    ("sample mpj, k = 1", lambda: list(sample_instances(3, 1, M, count=1, seed=1)),
     ValueError, "k must be at least 2, got 1"),
    # fixed
    ("sample mpj, n = 0, at the call", lambda: sample_instances(0, 3, M, count=1, seed=1),
     ValueError, "n must be positive, got 0"),
    ("enumerate mpj, n = 0, at the call", lambda: enumerate_instances(0, 3, M),
     ValueError, "n must be positive, got 0"),
    ("enumerate mpj, over budget, at the call", lambda: enumerate_instances(3, 3, M, budget=647),
     BudgetExceededError, "enumeration would produce 648 instances, over the budget of 647"),
    ("enumerate mpj, k = 1", lambda: list(enumerate_instances(2, 1, M)),
     ValueError, "k must be at least 2, got 1"),
    ("count mpj, k = 1", lambda: instance_count(3, 1, M),
     ValueError, "k must be at least 2, got 1"),
    ("count mpj, n = -1", lambda: instance_count(-1, 3, M),
     ValueError, "n must be positive, got -1"),
    ("enumerate mpj, n = -1", lambda: list(enumerate_instances(-1, 3, M)),
     ValueError, "n must be positive, got -1"),
]


@pytest.mark.parametrize("call, kind, text", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal_type_and_text(call, kind, text):
    with pytest.raises(Exception) as err:
        call()
    assert type(err.value) is kind
    assert str(err.value) == text


class TestJsonForms:
    def test_boolean_round_trip(self):
        inst = MpjInstance(4, 3, 2, (layer(3, 1, 2, 4),), bits("0101"))
        d = instance_to_dict(inst)
        assert d == {
            "n": 4,
            "k": 3,
            "variant": "mpj",
            "i": 2,
            "layers": [[3, 1, 2, 4]],
            "x": "0101",
        }
        assert instance_from_dict(d) == inst

    def test_round_trip_of_non_int_bits(self):
        # True and 1.0 pass as bits; the text form reads them as 1
        inst = MpjInstance(3, 3, 2, (layer(3, 1, 2),), BitVector(3, (True, 0, 1.0)))
        d = instance_to_dict(inst)
        assert d["x"] == "101"
        assert instance_from_dict(d) == inst

    def test_hat_round_trip_keeps_mask(self):
        inst = MpjHatInstance(
            3, 3, 1, (layer(2, 3, 1), layer(3, 1, 2)), (True, True)
        )
        d = instance_to_dict(inst)
        assert d["perm_mask"] == [True, True]
        assert "x" not in d
        assert instance_from_dict(d) == inst

    def test_round_trip_everything_small(self):
        for inst in enumerate_instances(2, 3, Variant.MPJ):
            assert instance_from_dict(instance_to_dict(inst)) == inst
        for inst in enumerate_instances(2, 3, Variant.MPJ_HAT):
            assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_malformed_dicts_are_rejected(self):
        good = instance_to_dict(MpjInstance(3, 2, 1, (), bits("010")))
        for breakage in (
            lambda d: d.pop("x"),
            lambda d: d.update(x="01"),
            lambda d: d.update(i=0),
            lambda d: d.update(variant="nope"),
            lambda d: d.pop("n"),
        ):
            d = dict(good)
            breakage(d)
            with pytest.raises(ValueError):
                instance_from_dict(d)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            instance_from_dict(
                {"n": 3, "k": 3, "variant": "mpj", "i": 1, "layers": [[1, 2]], "x": "010"}
            )

    def test_mask_of_integers_rejected(self):
        # JSON 1 and 0 are not booleans, though Python compares them equal
        doc = {"n": 2, "k": 3, "variant": "mpjhat", "i": 1, "layers": [[2, 1], [1, 2]]}
        assert instance_from_dict({**doc, "perm_mask": [True, False]}).perm_mask == (True, False)
        with pytest.raises(ValueError, match="'perm_mask' must be a list of booleans"):
            instance_from_dict({**doc, "perm_mask": [1, 0]})


class TestValidation:
    def test_layer_count_must_match_k(self):
        with pytest.raises(ValueError):
            MpjInstance(3, 4, 1, (layer(1, 2, 3),), bits("010"))
        with pytest.raises(ValueError):
            MpjHatInstance(3, 3, 1, (layer(1, 2, 3),))

    def test_flagged_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            MpjHatInstance(3, 2, 1, (layer(1, 1, 2),), (True,))

    def test_start_pointer_in_range(self):
        with pytest.raises(ValueError):
            MpjInstance(3, 2, 4, (), bits("010"))

    def test_boolean_instance_refusals(self):
        with pytest.raises(ValueError, match="k must be at least 2, got 1"):
            MpjInstance(3, 1, 1, (), bits("010"))
        with pytest.raises(ValueError, match="middle layer width differs from n"):
            MpjInstance(3, 3, 1, (layer(1, 2),), bits("010"))
        with pytest.raises(ValueError, match="bit layer width differs from n"):
            MpjInstance(3, 2, 1, (), bits("01"))

    def test_pointer_instance_refusals(self):
        with pytest.raises(ValueError, match="k must be at least 2, got 1"):
            MpjHatInstance(3, 1, 1, ())
        with pytest.raises(ValueError, match="layer width differs from n"):
            MpjHatInstance(3, 2, 1, (layer(1, 2),))
        with pytest.raises(ValueError, match="perm_mask length must match"):
            MpjHatInstance(3, 2, 1, (layer(1, 2, 3),), (True, False))

    def test_chain_of_mixed_widths(self):
        with pytest.raises(ValueError, match="share one width"):
            chain_layers([layer(1, 2, 3), layer(1, 2)], 3)

    def test_eval_instance_dispatches(self):
        assert eval_instance(MpjInstance(3, 2, 3, (), bits("001"))) == 1
        assert eval_instance(MpjHatInstance(3, 2, 1, (layer(2, 2, 2),))) == 2


@settings(max_examples=60)
@given(boolean_instances())
def test_compose_bits_agrees_with_pointwise_walk(inst):
    collapsed = compose_bits(inst.x, inst.middles)
    for r in range(1, inst.n + 1):
        assert collapsed(r) == inst.x(follow_pointers(r, inst.middles))

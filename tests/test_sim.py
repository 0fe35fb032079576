"""Blackboard runtime: messages, views, replay checks, verification."""

import hashlib
import itertools
import re
import tracemalloc

import pytest

from mpjlab.core import (
    BitVector,
    LayerFunction,
    MpjHatInstance,
    MpjInstance,
    Variant,
    compose_bits,
    enumerate_instances,
    eval_instance,
    sample_instances,
)
from mpjlab.cli import main
from mpjlab.jump import index_protocol
from mpjlab.registry import build_protocol
from mpjlab.sim import (
    KEPT_FAILURES,
    Failure,
    Message,
    PlayerView,
    ProtocolContractError,
    ProtocolHandle,
    ProtocolInvariantError,
    Transcript,
    ViewKind,
    _decode_output,
    encode_pointer,
    make_view,
    pointer_width,
    run,
    verify,
)


def layer(*values):
    return LayerFunction(len(values), tuple(values))


def bits(text):
    return BitVector.from01(text)


ALL_KINDS = (ViewKind.FULL_ONE_WAY, ViewKind.COLLAPSING, ViewKind.CONSERVATIVE_COLLAPSING)


class TestMessage:
    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            Message((0, 2))

    def test_concat_and_add(self):
        a, b = Message.from01("01"), Message.from01("10")
        assert (a + b).to01() == "0110"
        assert Message.concat([a, b, Message()]).to01() == "0110"

    def test_slice_bounds(self):
        m = Message.from01("0110")
        assert m.slice(1, 3).to01() == "11"
        assert m.slice(4, 4).to01() == ""
        with pytest.raises(ValueError):
            m.slice(2, 5)
        with pytest.raises(ValueError):
            m.slice(3, 2)

    def test_chunks(self):
        m = Message.from01("011011")
        assert [c.to01() for c in m.chunks(3)] == ["011", "011"]
        assert Message().chunks(0) == ()
        with pytest.raises(ValueError):
            m.chunks(4)
        with pytest.raises(ValueError):
            m.chunks(0)

    def test_uint_round_trip_is_big_endian(self):
        assert Message.from_uint(5, 4).to01() == "0101"
        assert Message.from01("0101").to_uint() == 5
        assert Message.from_uint(0, 0).to01() == ""
        with pytest.raises(ValueError):
            Message.from_uint(4, 2)
        with pytest.raises(ValueError):
            Message.from_uint(-1, 2)


class TestPointerCodec:
    def test_width_table(self):
        assert [pointer_width(n) for n in (1, 2, 3, 4, 5, 8, 9, 16)] == [
            0, 1, 2, 2, 3, 3, 4, 4,
        ]

    def test_encode_is_value_minus_one(self):
        assert encode_pointer(3, 4).to01() == "10"
        assert encode_pointer(1, 4).to01() == "00"

    def test_round_trip_all_points(self):
        for n in (1, 2, 5, 8, 11):
            for v in range(1, n + 1):
                assert _decode_output(encode_pointer(v, n), n, Variant.MPJ_HAT) == v

    def test_width_needs_a_positive_n(self):
        with pytest.raises(ValueError, match="n must be positive"):
            pointer_width(0)

    def test_encode_rejects_a_point_outside_the_range(self):
        # the decode refusals are pinned by TestRun::test_contract_failures
        with pytest.raises(ValueError, match=r"^pointer 5 outside \[1, 4\]$"):
            encode_pointer(5, 4)


class TestViewContents:
    inst = MpjInstance(4, 4, 2, (layer(2, 3, 1, 4), layer(1, 1, 2, 2)), bits("0110"))

    def test_first_player_never_sees_the_start(self):
        for kind in ALL_KINDS:
            view = make_view(self.inst, 1, kind, ())
            assert view.start is None and view.walked is None

    def test_full_view_hides_own_layer_only(self):
        view = make_view(self.inst, 3, ViewKind.FULL_ONE_WAY, ())
        assert view.start == 2
        assert view.walked == 3  # f_2(2), from the start and prefix it shows
        assert view.prefix_layers == (layer(2, 3, 1, 4),)
        assert view.later_layers == ()  # nothing between layer 3 and the bits
        assert view.final_bits == bits("0110")
        assert view.suffix == self.inst.x  # composition of the final layer alone

    def test_last_player_cannot_see_the_bits(self):
        view = make_view(self.inst, 4, ViewKind.FULL_ONE_WAY, ())
        assert view.final_bits is None
        assert view.suffix is None
        assert view.prefix_layers == self.inst.middles
        assert view.walked == 2  # f_3(f_2(2)): the walk's end, entering x

    def test_collapsing_view_composes_the_suffix(self):
        view = make_view(self.inst, 1, ViewKind.COLLAPSING, ())
        assert view.prefix_layers == ()
        assert view.later_layers is None and view.final_bits is None
        assert view.suffix == compose_bits(self.inst.x, self.inst.middles)
        later = make_view(self.inst, 3, ViewKind.COLLAPSING, ())
        assert (later.start, later.walked) == (2, 3)  # f_2(2)
        assert later.prefix_layers == (layer(2, 3, 1, 4),) and later.suffix == self.inst.x

    def test_conservative_view_keeps_only_the_walk_point(self):
        view = make_view(self.inst, 3, ViewKind.CONSERVATIVE_COLLAPSING, ())
        assert view.walked == 3  # f_2(2)
        assert view.start is None and view.prefix_layers == ()
        assert view.suffix == self.inst.x

    def test_hat_suffix_is_a_layer(self):
        inst = MpjHatInstance(3, 3, 1, (layer(2, 3, 1), layer(3, 1, 2)))
        view = make_view(inst, 1, ViewKind.COLLAPSING, ())
        assert view.suffix == layer(3, 1, 2).after(layer(2, 3, 1))
        last = make_view(inst, 3, ViewKind.COLLAPSING, ())
        assert last.suffix == LayerFunction.identity(3)

    def test_player_index_must_be_in_range(self):
        with pytest.raises(ValueError):
            make_view(self.inst, 0, ViewKind.COLLAPSING, ())
        with pytest.raises(ValueError):
            make_view(self.inst, 5, ViewKind.COLLAPSING, ())


def _replaced(inst, **changes):
    if isinstance(inst, MpjInstance):
        return MpjInstance(
            inst.n,
            inst.k,
            changes.get("i", inst.i),
            changes.get("middles", inst.middles),
            changes.get("x", inst.x),
        )
    return MpjHatInstance(
        inst.n, inst.k, changes.get("i", inst.i), changes.get("layers", inst.layers)
    )


class TestViewIsolation:
    """Mutating a layer its owner cannot see must leave their view untouched."""

    def test_boolean_exhaustive(self):
        for inst in enumerate_instances(2, 3, Variant.MPJ):
            for kind in ALL_KINDS:
                base = [make_view(inst, j, kind, ()) for j in (1, 2, 3)]
                for other_i in range(1, 3):
                    if other_i != inst.i:
                        mutated = _replaced(inst, i=other_i)
                        assert make_view(mutated, 1, kind, ()) == base[0]
                for values in itertools.product((1, 2), repeat=2):
                    f = LayerFunction(2, values)
                    if f != inst.middles[0]:
                        mutated = _replaced(inst, middles=(f,))
                        assert make_view(mutated, 2, kind, ()) == base[1]
                for raw in itertools.product((0, 1), repeat=2):
                    x = BitVector(2, raw)
                    if x != inst.x:
                        mutated = _replaced(inst, x=x)
                        assert make_view(mutated, 3, kind, ()) == base[2]

    def test_hat_exhaustive(self):
        for inst in enumerate_instances(2, 3, Variant.MPJ_HAT):
            for kind in ALL_KINDS:
                for j in (1, 2, 3):
                    base = make_view(inst, j, kind, ())
                    if j == 1:
                        for other_i in range(1, 3):
                            if other_i != inst.i:
                                assert make_view(_replaced(inst, i=other_i), 1, kind, ()) == base
                    else:
                        for values in itertools.product((1, 2), repeat=2):
                            f = LayerFunction(2, values)
                            if f == inst.layers[j - 2]:
                                continue
                            layers = list(inst.layers)
                            layers[j - 2] = f
                            assert make_view(_replaced(inst, layers=tuple(layers)), j, kind, ()) == base

    def test_collapsing_view_is_factorization_blind(self):
        # any split of the suffix with the same composition gives the
        # same collapsing and conservative views
        for inst in enumerate_instances(2, 3, Variant.MPJ):
            composed = compose_bits(inst.x, inst.middles)
            for kind in (ViewKind.COLLAPSING, ViewKind.CONSERVATIVE_COLLAPSING):
                base = make_view(inst, 1, kind, ())
                for values in itertools.product((1, 2), repeat=2):
                    for raw in itertools.product((0, 1), repeat=2):
                        f = LayerFunction(2, values)
                        x = BitVector(2, raw)
                        alt = MpjInstance(2, 3, inst.i, (f,), x)
                        same = compose_bits(x, (f,)) == composed
                        if same:
                            assert make_view(alt, 1, kind, ()) == base

    def test_full_view_does_expose_the_factorization(self):
        # sanity check that the blindness above is a property of the
        # collapsed kinds, not an accident of the instances chosen
        a = MpjInstance(2, 3, 1, (layer(1, 1),), bits("10"))
        b = MpjInstance(2, 3, 1, (layer(2, 2),), bits("01"))
        assert compose_bits(a.x, a.middles) == compose_bits(b.x, b.middles)
        assert make_view(a, 1, ViewKind.COLLAPSING, ()) == make_view(b, 1, ViewKind.COLLAPSING, ())
        assert make_view(a, 1, ViewKind.FULL_ONE_WAY, ()) != make_view(b, 1, ViewKind.FULL_ONE_WAY, ())


def silent(view):
    return Message()


def one_bit(view):
    return Message((0,))


def raising(exc):
    def player(view):
        raise exc

    return player


def on_replay(first, then):
    """A player whose first call answers as `first` and every later call as `then`."""
    calls = itertools.count()
    return lambda view: (then if next(calls) else first)(view)


BOOLEAN = MpjInstance(2, 2, 1, (), BitVector.from01("01"))


class TestHandle:
    @pytest.mark.parametrize(
        "k, players, bounds, message",
        [
            (1, (silent,), None, "at least 2 players"),
            (3, (silent,) * 2, None, "expected 3 message functions, got 2"),
            (2, (silent,) * 2, (0, 1, 1), "one bound per player"),
        ],
        ids=["one-player", "too-few-functions", "bounds-for-three"],
    )
    def test_refusals(self, k, players, bounds, message):
        with pytest.raises(ValueError, match=message):
            ProtocolHandle(
                "bad", k, Variant.MPJ, ViewKind.FULL_ONE_WAY, players,
                declared_max_bits=bounds,
            )


class TestRun:
    def test_index_transcript_is_frozen(self):
        inst = MpjInstance(4, 2, 2, (), bits("0101"))
        t = run(index_protocol(4), inst)
        assert [m.to01() for m in t.messages] == ["0101", "1"]
        assert t.per_player_bits == (4, 1)
        assert t.total_cost == 5
        assert t.prefix_cost == 4
        assert t.output == 1

    def test_mismatch_rejection(self):
        proto = index_protocol(4)
        with pytest.raises(ValueError):
            run(proto, MpjInstance(3, 2, 1, (), bits("010")))  # wrong n
        with pytest.raises(ValueError):
            run(proto, MpjInstance(4, 3, 1, (layer(1, 2, 3, 4),), bits("0101")))  # wrong k
        with pytest.raises(ValueError):
            run(proto, MpjHatInstance(4, 2, 1, (layer(1, 2, 3, 4),)))  # wrong variant

    @pytest.mark.parametrize(
        "players, bounds, inst, error, text",
        [
            (lambda: (silent, raising(ValueError("boom"))), None, BOOLEAN,
             ProtocolContractError, "player 2 raised ValueError: boom"),
            (lambda: (silent, on_replay(one_bit, raising(KeyError("late")))), None, BOOLEAN,
             ProtocolContractError, "player 2 raised KeyError: 'late'"),
            (lambda: (raising(ProtocolInvariantError("no plan")), one_bit), None, BOOLEAN,
             ProtocolInvariantError, "no plan"),
            (lambda: (silent, lambda v: "1"), None, BOOLEAN,
             ProtocolContractError, "player 2 returned str, not a Message"),
            (lambda: (silent, on_replay(one_bit, lambda v: 0)), None, BOOLEAN,
             ProtocolContractError, "player 2 returned int, not a Message"),
            (lambda: (silent, on_replay(one_bit, lambda v: Message((1,)))), None, BOOLEAN,
             ProtocolContractError, "player 2 is nondeterministic on replay"),
            (lambda: (on_replay(lambda v: Message((0, 0, 0)), lambda v: Message((1, 1, 1))),
                      one_bit), (2, 1), BOOLEAN,
             ProtocolContractError, "player 1 is nondeterministic on replay"),
            (lambda: (lambda v: Message((0, 0, 0)), one_bit), (2, 1), BOOLEAN,
             ProtocolContractError, "player 1 sent 3 bits, over its declared bound 2"),
            (lambda: (silent, lambda v: Message((0, 1))), None, BOOLEAN,
             ProtocolContractError, "Boolean output message must be 1 bit, got 2"),
            (lambda: (silent, one_bit), None, MpjHatInstance(4, 2, 1, (layer(1, 2, 3, 4),)),
             ProtocolContractError, "pointer output message must be 2 bits, got 1"),
            (lambda: (silent, lambda v: Message((1, 1, 1))), None,
             MpjHatInstance(5, 2, 1, (layer(1, 2, 3, 4, 5),)),
             ProtocolContractError, "decoded pointer 8 outside [1, 5]"),
        ],
        ids=[
            "crash-first-call", "crash-on-replay-only", "invariant-passes-unwrapped",
            "non-message-first-call", "non-message-on-replay-only", "nondeterministic",
            "nondeterministic-over-bound", "over-declared-bound", "boolean-output-two-bits",
            "pointer-output-width", "pointer-output-range",
        ],
    )
    def test_contract_failures(self, players, bounds, inst, error, text):
        # the checks run in this order: the first call and its type, the
        # replay and its type, their equality, the declared bound, the output
        proto = ProtocolHandle(
            "faulty", 2, inst.variant, ViewKind.FULL_ONE_WAY, players(), declared_max_bits=bounds
        )
        with pytest.raises(error, match=f"^{re.escape(text)}$") as caught:
            run(proto, inst)
        assert type(caught.value) is error


class TestVerify:
    def always_zero(self):
        silent = lambda view: Message()
        return ProtocolHandle(
            "always-zero", 3, Variant.MPJ, ViewKind.FULL_ONE_WAY,
            (silent, silent, lambda view: Message((0,))),
        )

    def test_counts_wrong_answers(self):
        report = verify(self.always_zero(), enumerate_instances(2, 3, Variant.MPJ))
        assert report.checked == 32
        assert len(report.failures) == 16  # exactly the instances whose answer is 1
        assert not report.ok
        assert report.per_player_max_bits == (0, 0, 1)
        assert report.worst_cost == 1
        assert report.worst_prefix_cost == 0
        first = report.failures[0]
        assert (first.expected, first.got) == (1, 0)

    def test_correct_protocol_is_clean(self):
        report = verify(index_protocol(3), enumerate_instances(3, 2, Variant.MPJ))
        assert report.ok
        assert report.checked == 24
        assert report.per_player_max_bits == (3, 1)

    def test_crashing_player_is_a_recorded_failure(self):
        # index at n=3, except that start 1 trips an invariant and start 2
        # breaks the output contract with a two-bit answer
        def answer(view):
            if view.start == 1:
                raise ProtocolInvariantError("no answer for start 1")
            if view.start == 2:
                return Message((0, 0))
            return Message((view.messages[0].bits[view.start - 1],))

        crashing = ProtocolHandle(
            "crashing", 2, Variant.MPJ, ViewKind.FULL_ONE_WAY,
            (lambda view: Message(view.final_bits.bits), answer),
        )
        report = verify(crashing, enumerate_instances(3, 2, Variant.MPJ))
        assert report.checked == 24
        assert len(report.failures) == 16
        assert all(f.got is None for f in report.failures)
        assert {f.inst.i for f in report.failures} == {1, 2}
        by_start = {f.inst.i: f.error for f in report.failures}
        assert by_start[1] == "ProtocolInvariantError: no answer for start 1"
        assert by_start[2].startswith("ProtocolContractError: ")
        assert report.per_player_max_bits == (3, 1)  # from the clean runs only
        with pytest.raises(ProtocolInvariantError):
            run(crashing, report.failures[0].inst)

    def test_counts_every_failure_and_keeps_the_first(self):
        # silent, then 0, except that walk point 2 trips an invariant: 216
        # crashes and 216 wrong answers, interleaved in stream order
        def answer(view):
            if view.walked == 2:
                raise ProtocolInvariantError("no answer at 2")
            return Message((0,))

        silent = lambda view: Message()
        proto = ProtocolHandle(
            "crash-or-zero", 3, Variant.MPJ, ViewKind.FULL_ONE_WAY, (silent, silent, answer)
        )
        wrong = []
        for inst in enumerate_instances(3, 3, Variant.MPJ):
            expected = eval_instance(inst)
            try:
                got = run(proto, inst).output
            except ProtocolInvariantError as exc:
                wrong.append(Failure(inst, expected, None, f"ProtocolInvariantError: {exc}"))
                continue
            if got != expected:
                wrong.append(Failure(inst, expected, got))
        report = verify(proto, enumerate_instances(3, 3, Variant.MPJ))
        assert report.checked == 648
        assert report.failed == len(wrong) == 432
        assert not report.ok
        assert KEPT_FAILURES == 64
        assert report.failures == tuple(wrong[:KEPT_FAILURES])
        assert {f.got for f in report.failures} == {None, 0}

    def test_memory_does_not_grow_with_failures(self):
        built = build_protocol("broken-const", n=3, k=4)
        tracemalloc.start()
        try:
            report = verify(
                built.handle,
                sample_instances(3, 4, built.variant, built.perm_mask, count=4000, seed=1),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.checked, report.failed) == (4000, 2069)
        assert peak < 1 << 20


class TestTranscriptDigests:
    """Every transcript of the benchmark's three sweep spaces, pinned by one
    sha256 digest per space: each message's value and length, the output
    and the bits per player. A faster runtime must leave them all equal."""

    @pytest.mark.parametrize(
        "protocol, n, k, d, samples, digest",
        [
            ("mpjk-sublinear", 3, 4, 2, None,
             "9b7aa219bab1a8a61e02ffcdc169ffdba436d0beb640f291a6901992135a8c5e"),
            ("bucketing", 16, 5, None, 2000,
             "e5c87a79e3733ffbb692751980385597a711c994d18ed8516025ed7f7f3500d2"),
            ("mpjk-sublinear", 16, 6, 2, 1000,
             "5e6eebea5a8b725c358a370ab724648519e41ceb1c0bfd3130a519c5e564a1f7"),
        ],
        ids=["exhaustive-small", "sweep-bucketing", "sweep-sublinear"],
    )
    def test_every_transcript_is_unchanged(self, protocol, n, k, d, samples, digest):
        built = build_protocol(protocol, n=n, k=k, d=d, seed=1)
        if samples is None:
            instances = enumerate_instances(n, k, built.variant, built.perm_mask)
        else:
            instances = sample_instances(
                n, k, built.variant, built.perm_mask, count=samples, seed=1
            )
        h = hashlib.sha256()
        for inst in instances:
            t = run(built.handle, inst)
            h.update(repr(
                ([(m.value, m.length) for m in t.messages], t.output, t.per_player_bits)
            ).encode())
        assert h.hexdigest() == digest


class TestCostTables:
    """Worst-cost tables: `verify` measures them, the CLI row builder prints them."""

    def plot_csv(self, capsys, *argv):
        assert main(["emit-plot-data", *argv]) == 0
        return capsys.readouterr().out

    def test_profile_measures_worst_costs(self):
        rows = []
        for n in (2, 4):
            protocol = index_protocol(n)
            report = verify(protocol, enumerate_instances(n, 2, Variant.MPJ))
            rows.append((n, report.worst_cost, report.worst_prefix_cost))
        assert rows == [(2, 3, 2), (4, 5, 4)]
        assert protocol.name == "index"
        assert protocol.view_kind.value == "full-one-way"

    def test_csv_schema_is_fixed(self, capsys):
        argv = ("--protocol", "index", "--n", "4", "--samples", "10", "--seed", "1")
        plot = self.plot_csv(capsys, *argv)
        assert plot == (
            "n,k,protocol,view,max_cost,p1_bits,p2_bits\n"
            "4,2,index,full-one-way,5,4,1\n"
        )
        # the plot table is the leading 5 + k columns of bench's table
        assert main(["bench", *argv]) == 0
        bench = capsys.readouterr().out
        assert plot.splitlines() == [
            ",".join(line.split(",")[:7]) for line in bench.splitlines()
        ]

    def test_csv_is_deterministic(self, capsys):
        argv = ("--protocol", "index", "--n", "2,3", "--samples", "12", "--seed", "4")
        assert self.plot_csv(capsys, *argv) == self.plot_csv(capsys, *argv)

"""The int-packed `Message` codec agrees with the tuple codec it replaced.

`RefMessage` below is the `Message` the package ran before: a frozen
dataclass over a tuple of bits, every operation a tuple operation. The
packed codec must give the same bits and the same errors, with the same
texts, on every public entry.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from odd_values import Bit, EqualsOneHashedElsewhere, UnhashableZero, outcome

from mpjlab.sim import Message

# -- reference ----------------------------------------------------------------


@dataclass(frozen=True)
class RefMessage:
    bits: tuple = ()

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("message bits must be 0 or 1")

    def __len__(self):
        return len(self.bits)

    def __add__(self, other):
        return RefMessage(self.bits + other.bits)

    def slice(self, start, stop):
        if not 0 <= start <= stop <= len(self.bits):
            raise ValueError(f"slice [{start}, {stop}) outside message of {len(self.bits)} bits")
        return RefMessage(self.bits[start:stop])

    def chunks(self, width):
        if width < 0 or (width == 0 and self.bits):
            raise ValueError("bad chunk width")
        if width == 0:
            return ()
        if len(self.bits) % width:
            raise ValueError("message length is not a multiple of the chunk width")
        return tuple(
            RefMessage(self.bits[t : t + width]) for t in range(0, len(self.bits), width)
        )

    @classmethod
    def from_bits(cls, bits: Iterable[int]):
        return cls(tuple(bits))

    @classmethod
    def from01(cls, text):
        if any(c not in "01" for c in text):
            raise ValueError("message string must be over 0/1")
        return cls(tuple(int(c) for c in text))

    def to01(self):
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_uint(cls, value, width):
        if width < 0 or not 0 <= value < (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return cls(tuple((value >> (width - 1 - t)) & 1 for t in range(width)))

    def to_uint(self):
        out = 0
        for b in self.bits:
            out = (out << 1) | b
        return out

    @staticmethod
    def concat(parts):
        bits = []
        for p in parts:
            bits.extend(p.bits)
        return RefMessage(tuple(bits))


def seen(value):
    """A codec result as plain data: messages by their bits, tuples entry by entry."""
    if isinstance(value, (Message, RefMessage)):
        return ("message", tuple(value.bits), len(value), value.to01(), value.to_uint())
    if isinstance(value, tuple):
        return tuple(seen(v) for v in value)
    return value


def same(op, *args):
    """Run one codec operation on both classes; args that are bit tuples
    become a message of each class first."""
    outcomes = []
    for cls in (Message, RefMessage):
        converted = [cls(a) if isinstance(a, Bits) else a for a in args]
        outcomes.append(outcome(lambda *a: seen(op(cls, *a)), *converted))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class Bits(tuple):
    """A bit tuple standing for a message argument in `same`."""


bit_tuples = st.lists(st.integers(0, 1), max_size=70).map(lambda b: Bits(b))


# -- the codec against the reference ------------------------------------------


class TestCodecMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-3, 1 << 70), st.integers(-2, 70))
    def test_from_uint(self, value, width):
        same(lambda cls, v, w: cls.from_uint(v, w), value, width)

    @settings(max_examples=200, deadline=None)
    @given(bit_tuples)
    def test_to_uint_to01_len_and_bits(self, bits):
        same(lambda cls, m: (m.to_uint(), m.to01(), len(m), tuple(m.bits)), bits)

    @settings(max_examples=300, deadline=None)
    @given(bit_tuples, st.integers(-2, 72), st.integers(-2, 72))
    def test_slice(self, bits, start, stop):
        same(lambda cls, m, a, b: m.slice(a, b), bits, start, stop)

    @settings(max_examples=300, deadline=None)
    @given(bit_tuples, st.integers(-1, 72))
    def test_chunks(self, bits, width):
        same(lambda cls, m, w: m.chunks(w), bits, width)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(bit_tuples, max_size=6))
    def test_concat_and_add(self, parts):
        same(lambda cls, *ms: cls.concat(ms), *parts)
        same(lambda cls, *ms: cls.concat(iter(ms)), *parts)
        if len(parts) >= 2:
            same(lambda cls, a, b: a + b, parts[0], parts[1])

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="01x2 ", max_size=40) | st.text(alphabet="01", max_size=70))
    def test_from01_and_to01(self, text):
        same(lambda cls, t: cls.from01(t), text)
        same(lambda cls, t: cls.from01(t).to01(), text)

    @settings(max_examples=200, deadline=None)
    @given(bit_tuples)
    def test_from_bits(self, bits):
        same(lambda cls, b: cls.from_bits(iter(b)), tuple(bits))
        same(lambda cls, b: cls(list(b)), tuple(bits))

    @settings(max_examples=200, deadline=None)
    @given(bit_tuples, st.integers(-2, 72))
    def test_bit_reads_one_position(self, bits, t):
        m = Message(bits)
        if 0 <= t < len(bits):
            assert m.bit(t) == bits[t]
        else:
            with pytest.raises(IndexError, match=f"bit {t} outside message of {len(bits)} bits"):
                m.bit(t)

    @settings(max_examples=200, deadline=None)
    @given(bit_tuples, bit_tuples)
    def test_equality_and_hash_follow_the_bits(self, a, b):
        assert (Message(a) == Message(b)) == (a == b)
        if a == b:
            assert hash(Message(a)) == hash(Message(b))


# -- the packed form -----------------------------------------------------------


class TestPackedForm:
    def test_value_and_length(self):
        m = Message.from01("0101")
        assert (m.value, m.length) == (5, 4)
        assert Message.from01("1").value == Message.from01("001").value == 1

    def test_equal_values_of_different_lengths_differ(self):
        zero, zeros, empty = Message.from01("0"), Message.from01("00"), Message()
        assert zero != zeros and zero != empty and zeros != empty
        assert len({hash(zero), hash(zeros), hash(empty)}) == 3
        assert len({zero, zeros, empty}) == 3
        assert {Message.from_uint(0, 1): "one bit"}.get(Message.from_uint(0, 2)) is None

    def test_equal_messages_are_one_dict_key(self):
        built = {Message.from01("011"): 1}
        for same_bits in (Message((0, 1, 1)), Message.from_uint(3, 3),
                          Message.from01("1011").slice(1, 4),
                          Message.concat([Message.from01("0"), Message.from01("11")])):
            assert same_bits == Message.from01("011")
            assert built[same_bits] == 1

    def test_messages_do_not_equal_their_bit_tuples(self):
        assert Message.from01("01") != (0, 1)
        assert Message.from01("01") != RefMessage((0, 1))

    @pytest.mark.parametrize("name", ["value", "length", "bits"])
    def test_assignment_raises(self, name):
        m = Message.from01("01")
        with pytest.raises(AttributeError):
            setattr(m, name, 3)
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert (m.value, m.length, m.bits) == (1, 2, (0, 1))

    def test_fields_are_frozen_like_a_frozen_dataclass(self):
        with pytest.raises(FrozenInstanceError):
            Message.from01("01").value = 0

    def test_copies_and_pickles_are_equal(self):
        m = Message.from01("00101")
        for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert other == m and other.bits == (0, 0, 1, 0, 1)

    def test_bits_is_a_fresh_tuple_of_ints(self):
        m = Message.from_uint(6, 4)
        assert m.bits == (0, 1, 1, 0)
        assert all(type(b) is int for b in m.bits)

    @pytest.mark.parametrize("value", [1.0, 0.5, Fraction(1), Decimal(1)])
    def test_from_uint_refuses_non_integers_as_before(self, value):
        for cls in (Message, RefMessage):
            with pytest.raises(TypeError):
                cls.from_uint(value, 1)

    @pytest.mark.parametrize("value", [True, Bit.ONE])
    def test_from_uint_packs_integer_kinds_as_ints(self, value):
        m = Message.from_uint(value, 2)
        assert type(m.value) is int and m == Message.from01("01")

    @pytest.mark.parametrize(
        "element",
        [True, 1.0, Bit.ONE, UnhashableZero(), EqualsOneHashedElsewhere()],
        ids=["True", "1.0", "Bit.ONE", "UnhashableZero", "EqualsOneHashedElsewhere"],
    )
    def test_odd_elements_pack_as_equal_to_one(self, element):
        assert Message((element,)).bits == ((1,) if element == 1 else (0,))
        for bits in ((0, element, 1), [1, element]):
            assert Message(bits).bits == tuple(1 if b == 1 else 0 for b in bits)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 1), st.booleans(), st.sampled_from(list(Bit)),
        st.sampled_from([1.0, 0.0, -0.0, 1 + 0j, Fraction(1), Decimal(0),
                         EqualsOneHashedElsewhere(), UnhashableZero()]),
    ), max_size=12))
    def test_accepted_elements_pack_as_equal_to_one(self, bits):
        m = Message(tuple(bits))
        assert m.bits == tuple(1 if b == 1 else 0 for b in bits)
        assert m == Message.from01("".join("1" if b == 1 else "0" for b in bits))

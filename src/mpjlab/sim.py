"""One-way blackboard runtime with per-player view enforcement.

A protocol has k players speaking once each, in order. Player j's message
may depend only on their view and the messages already on the blackboard;
the last message encodes the output. Views come in three shapes:

* full one-way: every layer except the player's own (layer j);
* collapsing: the layers before j individually, plus everything after j
  collapsed into a single composed layer;
* conservative collapsing: only the walk point entering layer j, plus the
  collapsed suffix.

Every view also carries the walk point entering layer j; the full and
collapsing views show the start and prefix it follows from, so it adds
nothing a player could not compute. Views are plain frozen values that
simply do not contain invisible data, so reading outside the view is
structurally impossible. A run derives the collapsed suffixes (O(kn)) and
the walk points (O(k)) once and projects all k views from them. The
runtime calls every message function twice and requires bit-identical
results, which catches hidden state or stray randomness. The order of a
player's checks lives in `run`'s loop: the first call and its type, the
replay and its type, their equality, the declared bound; the output is
decoded last.

Costs are reported two ways: the full transcript length, and the length
without the final output message (upper-bound formulas exclude the output).
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from typing import Callable, Iterable

from .core import (
    BitVector,
    Instance,
    LayerFunction,
    MpjInstance,
    Variant,
    _are_bits,
    _BITS_TO_01,
    _new,
    _setattr,
    collapsed_suffixes,
    eval_instance,
)


class ViewKind(Enum):
    FULL_ONE_WAY = "full-one-way"
    COLLAPSING = "collapsing"
    CONSERVATIVE_COLLAPSING = "conservative-collapsing"


class ProtocolContractError(RuntimeError):
    """A player broke the runtime contract (nondeterminism, bad output shape)."""


class ProtocolInvariantError(RuntimeError):
    """A protocol's internal invariant failed while composing its message."""


_01_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


class Message:
    """An immutable finite bit sequence (possibly empty), held as `(value, length)`.

    The bits are one big-endian int: the first bit is the highest of
    `length` bits, so `from01("0101")` has value 5 and length 4, and
    `from01("0")` differs from `from01("00")`. Every codec operation works
    on that int; `bits` derives the tuple of 0/1 ints on each read, for
    readers that need one, and `bit(t)` reads one bit.
    """

    __slots__ = ("value", "length")

    def __init__(self, bits: Iterable[int] = ()):
        if type(bits) is not tuple:
            bits = tuple(bits)
        if not _are_bits(bits):
            raise ValueError("message bits must be 0 or 1")
        try:
            value = int(bytes(bits).translate(_BITS_TO_01), 2) if bits else 0
        except (TypeError, ValueError):  # e.g. 1.0 or an unhashable zero
            value = 0
            for b in bits:
                value = (value << 1) | (b == 1)
        _setattr(self, "value", value)
        _setattr(self, "length", len(bits))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _packed, (self.value, self.length)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value and self.length == other.length

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def __repr__(self) -> str:
        return f"Message.from01({self.to01()!r})"

    def __len__(self) -> int:
        return self.length

    def __add__(self, other: "Message") -> "Message":
        return _packed((self.value << other.length) | other.value, self.length + other.length)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.to01().encode().translate(_01_TO_BITS))

    def bit(self, t: int) -> int:
        """Bit t, counted from 0 at the first bit."""
        if not 0 <= t < self.length:
            raise IndexError(f"bit {t} outside message of {self.length} bits")
        return (self.value >> (self.length - 1 - t)) & 1

    def slice(self, start: int, stop: int) -> "Message":
        return _packed(_window(self, start, stop), stop - start)

    def chunks(self, width: int) -> tuple["Message", ...]:
        length = self.length
        if width < 0 or (width == 0 and length):
            raise ValueError("bad chunk width")
        if width == 0:
            return ()
        if length % width:
            raise ValueError("message length is not a multiple of the chunk width")
        value, mask = self.value, (1 << width) - 1
        return tuple(
            _packed((value >> shift) & mask, width) for shift in range(length - width, -1, -width)
        )

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Message":
        return cls(tuple(bits))

    @classmethod
    def from01(cls, text: str) -> "Message":
        if any(c not in "01" for c in text):
            raise ValueError("message string must be over 0/1")
        return _packed(int(text, 2) if text else 0, len(text))

    def to01(self) -> str:
        return bin(self.value | (1 << self.length))[3:]

    @classmethod
    def from_uint(cls, value: int, width: int) -> "Message":
        if width < 0 or not 0 <= value < (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        if type(value) is not int:  # bools and int enums pack as ints; floats are refused
            value = operator.index(value)
        return _packed(value, width)

    def to_uint(self) -> int:
        return self.value

    @staticmethod
    def concat(parts: Iterable["Message"]) -> "Message":
        value = length = 0
        for p in parts:
            value = (value << p.length) | p.value
            length += p.length
        return _packed(value, length)


def _packed(value: int, length: int) -> Message:
    """A message from its packed form, for callers that have checked
    0 <= value < 2**length themselves; public entries check and call this."""
    msg = _new(Message)
    _setattr(msg, "value", value)
    _setattr(msg, "length", length)
    return msg


def _window(msg: Message, start: int, stop: int) -> int:
    """Bits [start, stop) of msg as a big-endian int, bounds-checked as
    `slice` checks them; for readers that split the window themselves."""
    if not 0 <= start <= stop <= msg.length:
        raise ValueError(f"slice [{start}, {stop}) outside message of {msg.length} bits")
    return (msg.value >> (msg.length - stop)) & ((1 << (stop - start)) - 1)


def pointer_width(n: int) -> int:
    """Bits needed to name a point of [n] (0 when n = 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1).bit_length()


def encode_pointer(value: int, n: int) -> Message:
    """Big-endian encoding of value-1 in pointer_width(n) bits."""
    if not 1 <= value <= n:
        raise ValueError(f"pointer {value} outside [1, {n}]")
    return Message.from_uint(value - 1, pointer_width(n))


@dataclass(frozen=True)
class PlayerView:
    """Everything player j may read, and nothing else.

    Populated fields depend on the view kind; absent data is None/empty.
    `start` is the first-layer pointer (hidden from player 1), `walked` the
    walk point entering layer j (in every kind, and None for player 1),
    `prefix_layers` the individually visible middle layers before j,
    `later_layers` the individually visible layers after j (full one-way
    only), `final_bits` the Boolean final layer when individually visible,
    and `suffix` the collapsed composition of everything after layer j.
    Where `start` and `prefix_layers` show, `walked` is their walk's end.
    """

    j: int
    n: int
    k: int
    variant: Variant
    kind: ViewKind
    messages: tuple[Message, ...]
    start: int | None = None
    walked: int | None = None
    prefix_layers: tuple[LayerFunction, ...] = ()
    later_layers: tuple[LayerFunction, ...] | None = None
    final_bits: BitVector | None = None
    suffix: BitVector | LayerFunction | None = None


def _derive(inst: Instance) -> tuple:
    """What every view of one run is projected from, derived once: the
    function layers, the collapsed suffix after each layer (O(kn); None for
    the Boolean last player, whose own layer is x), the walk points (O(k)),
    walk[j-1] entering layer j and None for player 1, and x or None."""
    boolean = isinstance(inst, MpjInstance)
    layers = inst.middles if boolean else inst.layers
    walk = [None, inst.i]
    for f in layers[: inst.k - 2]:
        walk.append(f(walk[-1]))
    if boolean:
        return layers, collapsed_suffixes(inst) + (None,), walk, inst.x
    return layers, collapsed_suffixes(inst), walk, None


def make_view(
    inst: Instance, j: int, kind: ViewKind, messages: tuple[Message, ...], *, derived=None
) -> PlayerView:
    """Project an instance onto player j's view of the given kind.

    `run` passes `derived`, its one `_derive(inst)` for all k views; without
    it the view derives its own. The fields are set in one dict assignment,
    not by the frozen dataclass's one assignment per field.
    """
    n, k = inst.n, inst.k
    if not 1 <= j <= k:
        raise ValueError(f"player index {j} outside [1, {k}]")
    layers, suffixes, walk, x = derived or _derive(inst)
    full = kind is ViewKind.FULL_ONE_WAY
    # a conservative view shows only the walk point and the collapsed suffix
    shown = j >= 2 and kind is not ViewKind.CONSERVATIVE_COLLAPSING
    view = _new(PlayerView)
    _setattr(view, "__dict__", {
        "j": j, "n": n, "k": k, "variant": inst.variant, "kind": kind, "messages": messages,
        "start": inst.i if shown else None,
        "walked": walk[j - 1],
        "prefix_layers": layers[: j - 2] if shown else (),
        "later_layers": layers[j - 1 :] if full else None,
        "final_bits": x if full and j != k else None,
        "suffix": suffixes[j - 1],
    })
    return view


@dataclass(frozen=True)
class ProtocolHandle:
    """A k-player one-way protocol: one message function per player.

    `n` may be None for protocols that work at any width; when set, the
    runtime rejects mismatched instances. `declared_max_bits` is an
    optional per-player bound on message length, checked on every run.
    """

    name: str
    k: int
    variant: Variant
    view_kind: ViewKind
    players: tuple[Callable[[PlayerView], Message], ...]
    n: int | None = None
    declared_max_bits: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("protocols need at least 2 players")
        if len(self.players) != self.k:
            raise ValueError(f"expected {self.k} message functions, got {len(self.players)}")
        if self.declared_max_bits is not None and len(self.declared_max_bits) != self.k:
            raise ValueError("declared_max_bits must list one bound per player")


@dataclass(frozen=True)
class Transcript:
    """All messages of one run plus the decoded output."""

    messages: tuple[Message, ...]
    output: int
    per_player_bits: tuple[int, ...]

    @property
    def total_cost(self) -> int:
        return sum(self.per_player_bits)

    @property
    def prefix_cost(self) -> int:
        """Cost without the final output message."""
        return sum(self.per_player_bits[:-1])


def _decode_output(last: Message, n: int, variant: Variant) -> int:
    length, value = last.length, last.value
    if variant is Variant.MPJ:
        if length != 1:
            raise ProtocolContractError(f"Boolean output message must be 1 bit, got {length}")
        return value
    width = pointer_width(n)
    if length != width:
        raise ProtocolContractError(
            f"pointer output message must be {width} bits, got {length}"
        )
    if value >= n:
        raise ProtocolContractError(f"decoded pointer {value + 1} outside [1, {n}]")
    return value + 1


def _player_error(
    j: int, *, raised: Exception | None = None, returned=None
) -> ProtocolContractError:
    """The error for player j's call that raised `raised` or returned the
    non-Message `returned`. Built only on failure, for `call_player` and
    `run` alike, so their texts cannot drift apart."""
    if raised is not None:
        return ProtocolContractError(f"player {j} raised {type(raised).__name__}: {raised}")
    return ProtocolContractError(f"player {j} returned {type(returned).__name__}, not a Message")


def call_player(fn: Callable[[PlayerView], Message], view: PlayerView) -> Message:
    """Player view.j's message on `view`, for callers that make one call per
    view (the adversary's cell search). Any exception but the two protocol
    errors becomes a ProtocolContractError naming the player and what they
    raised, so a crash fails the run instead of escaping as a traceback, and
    so does a return value that is not a Message. `run` makes the same
    checks inline, around both of its calls."""
    try:
        msg = fn(view)
    except (ProtocolContractError, ProtocolInvariantError):
        raise
    except Exception as exc:
        raise _player_error(view.j, raised=exc) from exc
    if not isinstance(msg, Message):
        raise _player_error(view.j, returned=msg)
    return msg


def run(protocol: ProtocolHandle, inst: Instance) -> Transcript:
    """Execute one protocol run; replays every message to catch nondeterminism.

    Each player's checks run in this order, and this loop is where the order
    lives: the first call and its type check, the replay and its type
    check, their equality (class, value and length), the declared bound.
    The output is decoded after the last player. A crash or a non-Message
    fails as `call_player` fails it.
    """
    if inst.variant is not protocol.variant:
        raise ValueError(
            f"protocol expects variant {protocol.variant.value}, instance is {inst.variant.value}"
        )
    if inst.k != protocol.k:
        raise ValueError(f"protocol expects k={protocol.k}, instance has k={inst.k}")
    if protocol.n is not None and inst.n != protocol.n:
        raise ValueError(f"protocol expects n={protocol.n}, instance has n={inst.n}")

    derived = _derive(inst)
    kind, bounds = protocol.view_kind, protocol.declared_max_bits
    messages: tuple[Message, ...] = ()
    per_player_bits = []
    for j, fn in enumerate(protocol.players, start=1):
        view = make_view(inst, j, kind, messages, derived=derived)
        try:
            msg = fn(view)
            if not isinstance(msg, Message):
                raise _player_error(j, returned=msg)
            replay = fn(view)
        except (ProtocolContractError, ProtocolInvariantError):
            raise
        except Exception as exc:
            raise _player_error(j, raised=exc) from exc
        if (
            replay.__class__ is not msg.__class__
            or replay.value != msg.value
            or replay.length != msg.length
        ):
            if not isinstance(replay, Message):
                raise _player_error(j, returned=replay)
            raise ProtocolContractError(f"player {j} is nondeterministic on replay")
        length = msg.length
        if bounds is not None and length > bounds[j - 1]:
            raise ProtocolContractError(
                f"player {j} sent {length} bits, over its declared bound {bounds[j - 1]}"
            )
        messages += (msg,)
        per_player_bits.append(length)
    output = _decode_output(msg, inst.n, protocol.variant)
    transcript = _new(Transcript)
    _setattr(transcript, "__dict__", {
        "messages": messages, "output": output, "per_player_bits": tuple(per_player_bits)
    })
    return transcript


@dataclass(frozen=True)
class Failure:
    """One wrong answer, or one run a player crashed, caught during verification.

    A crashed run has no output (`got` is None) and carries the error text.
    """

    inst: Instance
    expected: int
    got: int | None
    error: str | None = None


KEPT_FAILURES = 64
"""How many failures a `VerifyReport` keeps with their instances: `cli` reads
the first, and the tests read all 16 of their crash and wrong-answer cases."""


@dataclass(frozen=True)
class VerifyReport:
    """`failed` counts every failing run; `failures` keeps the first
    `KEPT_FAILURES` of them, in stream order."""

    protocol: str
    checked: int
    failed: int
    failures: tuple[Failure, ...]
    worst_cost: int
    worst_prefix_cost: int
    per_player_max_bits: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failed


def verify(protocol: ProtocolHandle, instances: Iterable[Instance]) -> VerifyReport:
    """Run the protocol against the brute-force answer for every instance.

    A player that raises fails that instance only (`call_player` makes any
    exception a protocol error); the sweep carries on. Nothing kept grows
    with the sweep: past the first `KEPT_FAILURES`, failures are only counted.
    """
    checked = 0
    failed = 0
    failures: list[Failure] = []
    worst = 0
    worst_prefix = 0
    per_player = [0] * protocol.k
    for inst in instances:
        checked += 1
        expected = eval_instance(inst)
        try:
            transcript = run(protocol, inst)
        except (ProtocolContractError, ProtocolInvariantError) as exc:
            failure = Failure(inst, expected, None, f"{type(exc).__name__}: {exc}")
        else:
            worst = max(worst, transcript.total_cost)
            worst_prefix = max(worst_prefix, transcript.prefix_cost)
            per_player = [max(a, b) for a, b in zip(per_player, transcript.per_player_bits)]
            if transcript.output == expected:
                continue
            failure = Failure(inst, expected, transcript.output)
        failed += 1
        if len(failures) < KEPT_FAILURES:
            failures.append(failure)
    return VerifyReport(
        protocol.name, checked, failed, tuple(failures), worst, worst_prefix, tuple(per_player)
    )

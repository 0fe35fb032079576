"""Layered pointer-jumping instances and their brute-force evaluation.

An instance is a chain of layers over [n] = {1, ..., n}: a start pointer
i, middle layers (total functions on [n]), and a final layer that is
either a bit layer x (Boolean variant, answer is the bit reached) or one
more function layer (pointer variant, answer is the point reached).

Conventions shared across the package:

* [n] = {1, ..., n}; all public values and serialized forms are 1-based.
* The textual form of a bit layer lists position 1 first: "0101" means
  x_1 = 0, x_2 = 1, x_3 = 0, x_4 = 1.
* Every value type is immutable and hashable, so instances can be cached,
  deduplicated, and compared structurally.
* Enumeration order is lexicographic over (i, f_2, ..., f_{k-1}, x) and
  sampling is a pure function of the seed, so fixtures are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterator, Sequence


class Variant(Enum):
    """Which final layer an instance carries."""

    MPJ = "mpj"          # Boolean: final layer is a bit vector
    MPJ_HAT = "mpjhat"   # pointer: final layer is one more function

    @classmethod
    def parse(cls, text: str) -> "Variant":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(f"unknown variant {text!r}; expected 'mpj' or 'mpjhat'") from None


class BudgetExceededError(ValueError):
    """Enumeration refused because the instance count exceeds the budget."""

    def __init__(self, count: int, budget: int):
        super().__init__(
            f"enumeration would produce {count} instances, over the budget of {budget}"
        )
        self.count = count
        self.budget = budget


def _check_point(n: int, value: int, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= n:
        raise ValueError(f"{what} must be an integer in [1, {n}], got {value!r}")


_INT_ONLY = frozenset((int,))


def _are_points(n: int, values: Sequence[int]) -> bool:
    """Fast test that every value is a plain int in [1, n].

    False is not a rejection: the caller then runs `_check_point` on each
    value, which raises or accepts by the one rule (int subclasses such as
    IntEnum members pass there, bool does not).
    """
    return (
        type(values) is tuple
        and _INT_ONLY.issuperset(map(type, values))
        and min(values) >= 1
        and max(values) <= n
    )


_setattr = object.__setattr__
_new = object.__new__


def _trusted(cls, n, data):
    """A LayerFunction or BitVector built without its checks, for values
    derived from checked ones (a composition, a read-through, a cover
    member), which are valid by construction. Public constructors keep
    every check; this serves them as `sim._packed` serves `Message`.
    `data` fills the second field: `values` or `bits`."""
    obj = _new(cls)
    _setattr(obj, "n", n)
    _setattr(obj, cls.__match_args__[1], data)
    return obj


def _built(cls, *fields):
    """An instance built unchecked from parts in range by construction. Its
    fields are set in `__init__`'s order, which keeps the shared-key layout."""
    obj = _new(cls)
    for name, value in zip(cls.__match_args__, fields):
        _setattr(obj, name, value)
    return obj


_BIT_VALUES = frozenset((0, 1))
_BITS_TO_01 = bytes.maketrans(b"\x00\x01", b"01")


def _are_bits(bits: Sequence[int]) -> bool:
    """True when every element is 0 or 1, compared as `b in (0, 1)` compares.

    The hashed subset test answers a plain tuple of hashable elements in one
    C call (True and 1.0 hash and compare equal to 1, as `in` finds them);
    anything else, e.g. an unhashable element, goes to the element loop.
    """
    if type(bits) is tuple:
        try:
            if _BIT_VALUES.issuperset(bits):
                return True
        except TypeError:  # an unhashable element: the loop decides
            pass
    return all(b in (0, 1) for b in bits)


@dataclass(frozen=True)
class LayerFunction:
    """A total function [n] -> [n], stored as its value tuple (f(1), ..., f(n))."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(self.values)}")
        if not _are_points(self.n, self.values):
            for v in self.values:
                _check_point(self.n, v, "layer value")

    @classmethod
    def identity(cls, n: int) -> "LayerFunction":
        return cls(n, tuple(range(1, n + 1)))

    def __call__(self, r: int) -> int:
        if not (type(r) is int and 0 < r <= self.n):
            _check_point(self.n, r, "argument")
        return self.values[r - 1]

    @property
    def is_permutation(self) -> bool:
        return len(set(self.values)) == self.n

    def fiber(self, s: int) -> tuple[int, ...]:
        """All preimages of s, ascending (empty when s is not hit)."""
        _check_point(self.n, s, "fiber point")
        return tuple(r for r in range(1, self.n + 1) if self.values[r - 1] == s)

    def after(self, inner: "LayerFunction") -> "LayerFunction":
        """The composition self(inner(.)): apply `inner` first."""
        if inner.n != self.n:
            raise ValueError("composition requires matching widths")
        return _trusted(LayerFunction, self.n, tuple([self.values[v - 1] for v in inner.values]))

    def inverse(self) -> "LayerFunction":
        if not self.is_permutation:
            raise ValueError("only permutations can be inverted")
        out = [0] * self.n
        for r, v in enumerate(self.values, start=1):
            out[v - 1] = r
        return LayerFunction(self.n, tuple(out))


@dataclass(frozen=True)
class BitVector:
    """A bit layer over [n]: position r holds the answer bit for point r."""

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if len(self.bits) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(self.bits)}")
        if not _are_bits(self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from01(cls, text: str) -> "BitVector":
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"bit string must be nonempty over 0/1, got {text!r}")
        return cls(len(text), tuple(int(c) for c in text))

    def to01(self) -> str:
        """The bits as "0"/"1" characters, each read as `b == 1` reads it.

        Accepted bits need not be ints (True and 1.0 pass validation), so
        bytes() may refuse them; the element loop then spells each one.
        """
        try:
            return bytes(self.bits).translate(_BITS_TO_01).decode()
        except (TypeError, ValueError):
            return "".join("1" if b == 1 else "0" for b in self.bits)

    def __call__(self, r: int) -> int:
        if not (type(r) is int and 0 < r <= self.n):
            _check_point(self.n, r, "position")
        return self.bits[r - 1]

    @property
    def weight(self) -> int:
        return sum(self.bits)

    def complement(self) -> "BitVector":
        return BitVector(self.n, tuple(1 - b for b in self.bits))

    def through(self, f: LayerFunction) -> "BitVector":
        """The bit layer self(f(.)): read position f(r) for each r."""
        if f.n != self.n:
            raise ValueError("composition requires matching widths")
        return _trusted(BitVector, self.n, tuple([self.bits[v - 1] for v in f.values]))


def follow_pointers(start: int, layers: Sequence[LayerFunction]) -> int:
    """Walk the chain: apply layers[0] first, then layers[1], ..."""
    cur = start
    for f in layers:
        cur = f(cur)
    return cur


def chain_layers(layers: Sequence[LayerFunction], n: int) -> LayerFunction:
    """Collapse an application chain into one function (layers[0] applied first).

    An empty chain collapses to the identity.
    """
    out = LayerFunction.identity(n)
    for f in layers:
        if f.n != n:
            raise ValueError("chain layers must share one width")
        out = f.after(out)
    return out


def compose_bits(x: BitVector, layers: Sequence[LayerFunction]) -> BitVector:
    """Collapse (layers, x) into one bit layer: position r holds x at the walk end."""
    g = chain_layers(layers, x.n)
    return x.through(g)


def bit_suffixes(x: BitVector, layers: Sequence[LayerFunction]) -> tuple[BitVector, ...]:
    """compose_bits(x, layers[t:]) for every t in 0..len(layers), in one pass.

    Built right to left, one read-through per layer: the suffix from t is
    the suffix from t+1 read through layers[t].
    """
    out = [x]
    for f in reversed(layers):
        out.append(out[-1].through(f))
    out.reverse()
    return tuple(out)


def _check_chain(inst, layers: Sequence[LayerFunction], count: int, what: str) -> None:
    """The checks both instance kinds share: k, the start pointer, then
    `count` function layers (each a `what` in error text) of width n."""
    if inst.k < 2:
        raise ValueError(f"k must be at least 2, got {inst.k}")
    _check_point(inst.n, inst.i, "start pointer")
    if len(layers) != count:
        raise ValueError(f"expected {count} {what}s for k={inst.k}, got {len(layers)}")
    for f in layers:
        if f.n != inst.n:
            raise ValueError(f"{what} width differs from n")


@dataclass(frozen=True)
class MpjInstance:
    """Boolean chain instance: start pointer, k-2 middle layers, final bit layer."""

    variant: ClassVar[Variant] = Variant.MPJ
    n: int
    k: int
    i: int
    middles: tuple[LayerFunction, ...]
    x: BitVector

    def __post_init__(self):
        _check_chain(self, self.middles, self.k - 2, "middle layer")
        if self.x.n != self.n:
            raise ValueError("bit layer width differs from n")


@dataclass(frozen=True)
class MpjHatInstance:
    """Pointer chain instance: start pointer and k-1 function layers.

    perm_mask flags layers (f_2 first) that are required to be permutations;
    flagged layers are validated at construction time.
    """

    variant: ClassVar[Variant] = Variant.MPJ_HAT
    n: int
    k: int
    i: int
    layers: tuple[LayerFunction, ...]
    perm_mask: tuple[bool, ...] = ()

    def __post_init__(self):
        _check_chain(self, self.layers, self.k - 1, "layer")
        if not self.perm_mask:
            object.__setattr__(self, "perm_mask", (False,) * (self.k - 1))
        if len(self.perm_mask) != self.k - 1:
            raise ValueError("perm_mask length must match the layer count")
        for f, need_perm in zip(self.layers, self.perm_mask):
            if need_perm and not f.is_permutation:
                raise ValueError("layer flagged as permutation is not one")


Instance = MpjInstance | MpjHatInstance


def eval_mpj(inst: MpjInstance) -> int:
    """Brute-force answer: follow every middle layer from i, read the bit."""
    return inst.x(follow_pointers(inst.i, inst.middles))


def eval_mpj_hat(inst: MpjHatInstance) -> int:
    """Brute-force answer: follow every layer from i, report the point reached."""
    return follow_pointers(inst.i, inst.layers)


def eval_instance(inst: Instance) -> int:
    if isinstance(inst, MpjInstance):
        return eval_mpj(inst)
    return eval_mpj_hat(inst)


def collapsed_suffixes(inst: Instance) -> tuple[BitVector, ...] | tuple[LayerFunction, ...]:
    """The collapsed suffix after each layer j, at index j-1.

    This is the one derivation of collapsed suffixes. For a Boolean
    instance the k-1 entries are bit layers (everything after layer j, x
    included, read as one bit layer); for a pointer instance the k entries
    are functions (the layers after layer j composed, the last one the
    identity). Both are built right to left, one composition per layer,
    so the pass is O(kn).
    """
    if isinstance(inst, MpjInstance):
        return bit_suffixes(inst.x, inst.middles)
    # the identity after the last layer, then that layer itself: no copy of it
    maps = [_trusted(LayerFunction, inst.n, tuple(range(1, inst.n + 1))), inst.layers[-1]]
    for f in reversed(inst.layers[:-1]):
        maps.append(maps[-1].after(f))
    maps.reverse()
    return tuple(maps)


def _normalized_mask(
    n: int, k: int, variant: Variant, perm_mask: Sequence[bool] | None
) -> tuple[bool, ...]:
    """Check k and n, then one flag per function layer (k-2 for mpj, k-1 for mpjhat)."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    n_layers = k - 2 if variant is Variant.MPJ else k - 1
    if perm_mask is None:
        return (False,) * n_layers
    mask = tuple(bool(b) for b in perm_mask)
    if len(mask) != n_layers:
        raise ValueError(f"perm_mask must have {n_layers} entries, got {len(mask)}")
    return mask


def instance_count(
    n: int, k: int, variant: Variant, perm_mask: Sequence[bool] | None = None
) -> int:
    """Exact size of the (optionally permutation-restricted) instance space."""
    mask = _normalized_mask(n, k, variant, perm_mask)
    count = n
    for need_perm in mask:
        count *= math.factorial(n) if need_perm else n**n
    if variant is Variant.MPJ:
        count *= 2**n
    return count


def _layer_space(n: int, need_perm: bool) -> list[LayerFunction]:
    points = range(1, n + 1)
    values = itertools.permutations(points) if need_perm else itertools.product(points, repeat=n)
    return [_trusted(LayerFunction, n, vals) for vals in values]


def enumerate_instances(
    n: int,
    k: int,
    variant: Variant,
    perm_mask: Sequence[bool] | None = None,
    *,
    budget: int = 2_000_000,
) -> Iterator[Instance]:
    """Stream the full instance space in lexicographic (i, layers..., x) order.

    The arguments are checked at the call, which refuses up front
    (BudgetExceededError) when the space is larger than `budget`, reporting
    the exact count. Parts are then built trusted and shared: each layer and
    bit layer once, each tuple of layers per start.
    """
    mask = _normalized_mask(n, k, variant, perm_mask)
    count = instance_count(n, k, variant, mask)
    if count > budget:
        raise BudgetExceededError(count, budget)

    def stream() -> Iterator[Instance]:
        by_kind = {need_perm: _layer_space(n, need_perm) for need_perm in set(mask)}
        spaces = [by_kind[need_perm] for need_perm in mask]
        # One start at a time, so a stream holds no tuple of layers past its
        # instances; within a start each tuple is shared by every x.
        if variant is Variant.MPJ:
            xs = [_trusted(BitVector, n, bits) for bits in itertools.product((0, 1), repeat=n)]
            for i in range(1, n + 1):
                for layers in itertools.product(*spaces):
                    for x in xs:
                        yield _built(MpjInstance, n, k, i, layers, x)
        else:
            for i in range(1, n + 1):
                for layers in itertools.product(*spaces):
                    yield _built(MpjHatInstance, n, k, i, layers, mask)

    return stream()


def sample_instance(
    n: int,
    k: int,
    variant: Variant,
    perm_mask: Sequence[bool] | None = None,
    *,
    seed: int = 0,
) -> Instance:
    """Draw one uniform instance; a pure function of the seed."""
    return next(sample_instances(n, k, variant, perm_mask, count=1, seed=seed))


def sample_instances(
    n: int,
    k: int,
    variant: Variant,
    perm_mask: Sequence[bool] | None = None,
    *,
    count: int,
    seed: int = 0,
) -> Iterator[Instance]:
    """Deterministic stream of `count` uniform instances from one seeded source.

    Each instance draws i, then each layer, then (Boolean) the bit layer.
    The stream is defined by `random.Random(seed).getrandbits` draws with
    rejection: a value below m is `getrandbits(m.bit_length())`, drawn
    again while it is at least m. The start pointer and each function
    value are 1 plus a draw below n, a permutation layer is `shuffle`'s
    swaps applied to [1..n], and each bit is a draw below 2. These are the
    draws `randint` and `shuffle` make, and sha256 digests of sampled
    streams in the tests pin them. The seed must be at least 0: `Random`
    seeds with |seed|, so -s would repeat the stream of s. The arguments
    are checked once, at the call; instances are then built trusted.
    """
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    mask = _normalized_mask(n, k, variant, perm_mask)
    getrandbits = random.Random(seed).getrandbits

    def below(m: int) -> Iterator[int]:
        """Endless lazy draws below m: getrandbits(m.bit_length()), redrawn while >= m."""
        return filter(m.__gt__, map(getrandbits, itertools.repeat(m.bit_length())))

    def stream() -> Iterator[Instance]:
        point = map((1).__add__, below(n))
        bit = below(2)
        swaps = range(n - 1, 0, -1)  # shuffle's: position t with a draw below t + 1
        swap_draws = [below(t + 1) for t in swaps]
        identity = list(range(1, n + 1))
        for _ in range(count):
            i = next(point)
            layers = []
            for need_perm in mask:
                if need_perm:
                    vals = identity.copy()
                    for t, j in zip(swaps, map(next, swap_draws)):
                        vals[t], vals[j] = vals[j], vals[t]
                    layers.append(_trusted(LayerFunction, n, tuple(vals)))
                else:
                    layers.append(_trusted(LayerFunction, n, tuple(itertools.islice(point, n))))
            if variant is Variant.MPJ:
                x = _trusted(BitVector, n, tuple(itertools.islice(bit, n)))
                yield _built(MpjInstance, n, k, i, tuple(layers), x)
            else:
                yield _built(MpjHatInstance, n, k, i, tuple(layers), mask)

    return stream()


def instance_to_dict(inst: Instance) -> dict:
    """Serialize to the shared JSON form (1-based layers, f_2 first)."""
    boolean = isinstance(inst, MpjInstance)
    d = {
        "n": inst.n,
        "k": inst.k,
        "variant": inst.variant.value,
        "i": inst.i,
        "layers": [list(f.values) for f in (inst.middles if boolean else inst.layers)],
    }
    if boolean:
        d["x"] = inst.x.to01()
    elif any(inst.perm_mask):
        d["perm_mask"] = list(inst.perm_mask)
    return d


def _json_int(d: dict, key: str) -> int:
    value = d[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"instance field {key!r} must be an integer, got {value!r}")
    return value


def instance_from_dict(d: dict) -> Instance:
    """Parse the shared JSON form; any malformed field raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"instance must be a JSON object, got {type(d).__name__}")
    try:
        n = _json_int(d, "n")
        k = _json_int(d, "k")
        variant = Variant.parse(d["variant"])
        i = _json_int(d, "i")
        raw_layers = d["layers"]
    except KeyError as exc:
        raise ValueError(f"instance dict is missing key {exc.args[0]!r}") from None
    if not isinstance(raw_layers, list) or not all(isinstance(v, list) for v in raw_layers):
        raise ValueError("instance field 'layers' must be a list of integer lists")
    layers = tuple(LayerFunction(n, tuple(vals)) for vals in raw_layers)
    if variant is Variant.MPJ:
        if "x" not in d:
            raise ValueError("Boolean instance dict needs an 'x' bit string")
        if not isinstance(d["x"], str):
            raise ValueError(f"instance field 'x' must be a 0/1 string, got {d['x']!r}")
        x = BitVector.from01(d["x"])
        if x.n != n:
            raise ValueError("bit layer width differs from n")
        return MpjInstance(n, k, i, layers, x)
    mask = d.get("perm_mask", [])
    if not isinstance(mask, list) or not all(isinstance(b, bool) for b in mask):
        raise ValueError(f"instance field 'perm_mask' must be a list of booleans, got {mask!r}")
    return MpjHatInstance(n, k, i, layers, tuple(mask))

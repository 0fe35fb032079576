"""Values that compare like bits without being plain ints, and `outcome`.

The validation, codec and canonical-value tests share these: each public
constructor must judge such a value by the one bit rule, `b in (0, 1)`,
and store the plain int it equals.
"""

from enum import IntEnum


class Bit(IntEnum):
    ZERO = 0
    ONE = 1


class EqualsOneHashedElsewhere:
    """Equal to 1 but hashed apart from it: `in (0, 1)` finds it, a set does not."""

    def __eq__(self, other):
        return other == 1

    def __hash__(self):
        return 12345

    def __repr__(self):
        return "EqualsOneHashedElsewhere()"


class UnhashableZero:
    """Equal to 0 and unhashable."""

    __hash__ = None

    def __eq__(self, other):
        return other == 0

    def __repr__(self):
        return "UnhashableZero()"


def outcome(fn, *args):
    """What a call does: ("ok", result) or (exception type name, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the observation
        return (type(exc).__name__, str(exc))

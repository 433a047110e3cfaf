"""Integers extended with -inf/+inf endpoints.

Bound functions take values in Z together with an infinite endpoint
(-inf for lower bounds, +inf for upper bounds).  ExtInt keeps the
infinities as tagged values rather than sentinel integers, defines a
total order mixing freely with built-in ints, and makes the one
undefined combination (-inf) + (+inf) a hard error instead of a NaN.
ExtInt is what callers pass in and get back, as bounds and results.
Inner loops run on plain(): the bounds as plain ints, None for an
infinity, which is -inf on a lower bound and +inf on an upper one.
"""

from __future__ import annotations

from .errors import InfinityClashError

_NEG, _FIN, _POS = -1, 0, 1


class ExtInt:
    """An integer, or one of the two infinities.

    Instances are immutable and hashable.  Arithmetic and comparisons
    accept plain ints on either side; ``ExtInt(3) == 3`` holds.
    """

    __slots__ = ("_kind", "_value")

    def __init__(self, value: int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"ExtInt requires an int, got {value!r}")
        self._kind = _FIN
        self._value = value

    @classmethod
    def _make_infinite(cls, kind: int) -> "ExtInt":
        obj = object.__new__(cls)
        obj._kind = kind
        obj._value = 0
        return obj

    # -- predicates ---------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._kind == _FIN

    @property
    def finite(self) -> int:
        """The wrapped int; raises on an infinity."""
        if self._kind != _FIN:
            raise ValueError(f"{self} is not finite")
        return self._value

    # -- arithmetic ---------------------------------------------------

    def __neg__(self) -> "ExtInt":
        if self._kind == _FIN:
            return ExtInt(-self._value)
        return NEG_INF if self._kind == _POS else POS_INF

    def __add__(self, other) -> "ExtInt":
        other = as_extint(other)
        if self._kind == _FIN and other._kind == _FIN:
            return ExtInt(self._value + other._value)
        kinds = {self._kind, other._kind}
        if kinds >= {_NEG, _POS}:
            raise InfinityClashError("cannot add -inf to +inf")
        return POS_INF if _POS in kinds else NEG_INF

    __radd__ = __add__

    def __sub__(self, other) -> "ExtInt":
        return self + (-as_extint(other))

    def __rsub__(self, other) -> "ExtInt":
        return as_extint(other) + (-self)

    # -- total order --------------------------------------------------

    def _cmp(self, other) -> int:
        other = as_extint(other)
        if self._kind != other._kind:
            return -1 if self._kind < other._kind else 1
        if self._kind != _FIN:
            return 0
        return (self._value > other._value) - (self._value < other._value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExtInt, int)) or isinstance(other, bool):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        if self._kind == _FIN:
            return hash(self._value)
        return hash(("ExtInt", self._kind))

    def __reduce__(self):  # under every protocol; an infinity loads as its singleton
        if self._kind == _FIN:
            return ExtInt, (self._value,)
        return "POS_INF" if self._kind == _POS else "NEG_INF"

    def __repr__(self) -> str:
        if self._kind == _FIN:
            return str(self._value)
        return "+inf" if self._kind == _POS else "-inf"


NEG_INF = ExtInt._make_infinite(_NEG)
POS_INF = ExtInt._make_infinite(_POS)


def as_extint(value) -> ExtInt:
    """Coerce an int (or ExtInt) to ExtInt."""
    if isinstance(value, ExtInt):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected int or ExtInt, got {value!r}")
    return ExtInt(value)


def plain(values) -> list[int | None]:
    """The values as plain ints, None for an infinity (or a None); TypeError as in as_extint."""
    return [
        (None if b._kind else b._value) if type(b) is ExtInt
        else b if type(b) is int or b is None
        else plain((as_extint(b),))[0]  # TypeError unless an int subclass
        for b in values
    ]

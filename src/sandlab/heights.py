"""Column heights: ordinary integers plus two symbolic infinities.

A column of a configuration holds either an exact grain count (a Python
int, unbounded) or one of the two interned sentinels PLUS_INF / MINUS_INF.
The sentinels order correctly against ints and against each other, and
absorb the addition of any finite delta. No other arithmetic is defined
on them; anything else is a bug and should blow up loudly.
"""

from __future__ import annotations


class Infinity:
    """One of the two infinite heights. Use the module constants."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return {PLUS_INF: "PLUS_INF", MINUS_INF: "MINUS_INF"}.get(self, f"Infinity({self.sign!r})")

    # Identity semantics: there are exactly two instances.
    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("sandlab.Infinity", self.sign))

    def __lt__(self, other):
        if isinstance(other, Infinity):
            return self.sign < other.sign
        if isinstance(other, int):
            return self.sign < 0
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (Infinity, int)):
            return self is other or self < other
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Infinity):
            return self.sign > other.sign
        if isinstance(other, int):
            return self.sign > 0
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (Infinity, int)):
            return self is other or self > other
        return NotImplemented

    # A finite offset is absorbed; adding the opposite infinity is
    # undefined on purpose.
    def __add__(self, other):
        if isinstance(other, int):
            return self
        if isinstance(other, Infinity):
            if other is self:
                return self
            raise ArithmeticError("cannot add opposite infinities")
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self
        if isinstance(other, Infinity):
            if other is self:
                raise ArithmeticError("cannot subtract an infinity from itself")
            return self
        return NotImplemented

    def __neg__(self):
        return MINUS_INF if self is PLUS_INF else PLUS_INF


PLUS_INF = Infinity(+1)
MINUS_INF = Infinity(-1)

#: A column height: an exact int or one of the infinities.
Height = int | Infinity

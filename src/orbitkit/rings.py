"""Coefficient rings with exact arithmetic: Z, Q, and prime fields F_p.

Every ring element supports the ordinary Python operators, so matrix code
can be written once with ``+``, ``-``, ``*`` and stay exact.  Integers are
plain ``int``, rationals are ``fractions.Fraction``, and F_p elements are
the small wrapper class below (canonical residues ``0..p-1``).
"""

from __future__ import annotations

from fractions import Fraction


class FpElement:
    """Residue modulo a prime, with field arithmetic via operators."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.p, self.v * pow(o.v, -1, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"Fp({self.p},{self.v})"


class IntegerRing:
    name = "Z"
    is_field = False

    def normalize(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        if isinstance(x, str):
            return int(x)
        raise ValueError(f"not an integer: {x!r}")

    zero = 0
    one = 1

    def to_json(self, v):
        return v

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "Z"


class RationalField:
    name = "Q"
    is_field = True

    def normalize(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return Fraction(int(x[0]), int(x[1]))
        raise ValueError(f"not a rational: {x!r}")

    zero = Fraction(0)
    one = Fraction(1)

    def to_json(self, v):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    is_field = True

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = FpElement(p, 0)
        self.one = FpElement(p, 1)

    def normalize(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError(f"element of F_{x.p} in F_{self.p}")
            return x
        if isinstance(x, int):
            return FpElement(self.p, x)
        if isinstance(x, str):
            return FpElement(self.p, int(x))
        raise ValueError(f"not an F_{self.p} element: {x!r}")

    def to_json(self, v):
        return v.v

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_tag(tag: str):
    """Parse a ring tag: "Z", "Q", or "Fp:<prime>"."""
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:"):
        return PrimeField(int(tag[3:]))
    raise ValueError(f"unknown ring tag {tag!r} (expected Z, Q, or Fp:p)")

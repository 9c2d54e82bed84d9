"""Coefficient rings with exact arithmetic: Z, Q, and prime fields F_p.

Integers are plain ``int``, rationals are ``fractions.Fraction``, and F_p
elements are plain ``int`` residues ``0..p-1``.  Matrix code adds,
subtracts and multiplies entries with the ordinary operators and passes
each row of raw results through ``ring.reduce``, which returns it unchanged
over Z and Q and reduces it mod p over F_p.  Fields also provide
``inverse``; no other code divides ring elements, so no float can appear.
"""

from __future__ import annotations

from fractions import Fraction


class Ring:
    """Name-based equality, and the operations that are the same for Z and F_p."""

    zero = 0
    one = 1

    @staticmethod
    def reduce(row):
        return row

    def to_json(self, v):
        return v

    def __eq__(self, other):
        return isinstance(other, Ring) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
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


class RationalField(Ring):
    name = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

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

    @staticmethod
    def inverse(x):
        return 1 / x

    def to_json(self, v):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def normalize(self, x):
        if isinstance(x, (int, str)):
            return int(x) % self.p
        raise ValueError(f"not an F_{self.p} element: {x!r}")

    def reduce(self, row):
        p = self.p
        return [v % p for v in row]

    def inverse(self, x):
        return pow(x, -1, self.p)


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

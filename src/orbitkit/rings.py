"""Coefficient rings with exact arithmetic: Z, Q, and prime fields F_p.

Integers are plain ``int``; rationals are plain ``int`` when integral and
``fractions.Fraction`` otherwise; F_p elements are plain ``int`` residues
``0..p-1``.  Matrix code adds, subtracts and multiplies entries with the
ordinary operators and passes each sparse row of raw results through
``ring.nonzero``, which keeps it over Z, turns integral fractions back
into ``int`` over Q and reduces it mod p over F_p, and drops its zeros;
``ring.normalize`` does so for one entry, and also reads input.  Rings
never divide: ``exactla`` clears rational rows to integers and inverts
F_p pivots by ``pow``, so no float can appear.  Booleans are not entries
of any ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

MAX_PRIME = 2 ** 32  # trial division up to sqrt(p) stays under 66k steps


class Ring:
    """Name-based equality, ``zero`` and ``one``, and the plain ``nonzero`` of Z."""

    zero = 0
    one = 1

    @staticmethod
    def nonzero(entries: dict) -> dict:
        """The nonzero entries of a sparse vector of raw results, reduced."""
        return {i: x for i, x in entries.items() if x}

    def to_json(self, v):
        return v

    def __eq__(self, other):
        return self is other or isinstance(other, Ring) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"
    is_field = False

    def normalize(self, x):
        if isinstance(x, (int, str)) and not isinstance(x, bool):
            return int(x)
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise ValueError(f"not an integer: {x!r}")


class RationalField(Ring):
    name = "Q"
    is_field = True

    def normalize(self, x):
        if type(x) is int:
            return x
        if not isinstance(x, (int, str, Fraction)) or isinstance(x, bool):
            raise ValueError(f"not a rational: {x!r}")
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    @staticmethod
    def nonzero(entries: dict) -> dict:
        return {i: v if type(v) is int or v.denominator != 1 else v.numerator
                for i, v in entries.items() if v}

    def to_json(self, v):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise ValueError(f"{p} exceeds the cap {MAX_PRIME} on primes")
        if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def normalize(self, x):
        if isinstance(x, (int, str)) and not isinstance(x, bool):
            return int(x) % self.p
        raise ValueError(f"not an F_{self.p} element: {x!r}")

    def nonzero(self, entries: dict) -> dict:
        p = self.p
        return {i: r for i, v in entries.items() if (r := v % p)}


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_tag(tag: str):
    """Parse a ring tag: "Z", "Q", or "Fp:<prime>"."""
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if tag.startswith("Fp:") and tag[3:].isascii() and tag[3:].isdigit():
        try:
            p = int(tag[3:])
        except ValueError:  # int() reads at most 4,300 digits
            raise ValueError(f"ring tag Fp:<{len(tag) - 3} digits> exceeds the cap "
                             f"{MAX_PRIME} on primes") from None
        return PrimeField(p)
    raise ValueError(f"unknown ring tag {tag!r} (expected Z, Q, or Fp:p)")

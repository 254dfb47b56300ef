"""Exact scalar arithmetic: arbitrary-precision rationals and small prime fields.

Every computation in the package runs over one of these two fields; there is
no floating point anywhere.  Rationals are ``fractions.Fraction`` (always in
lowest terms with positive denominator).  Prime-field elements are ``Fp``
values normalized to ``[0, p)``; they exist for the brute-force search corpus,
while serious verification work defaults to the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union


class Fp:
    """An element of Z/pZ for a small prime p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, val):  # immutable after construction
        raise AttributeError("Fp values are immutable")

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields: p={self.p} vs p={other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return Fp(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return Fp(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.value == other.value and self.p == other.p
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"

    def __str__(self):
        return f"{self.value} mod {self.p}"


Scalar = Union[Fraction, Fp]


@dataclass(frozen=True)
class Rationals:
    """The field of rational numbers, carried by ``fractions.Fraction``."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def of_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, s: str) -> Fraction:
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {s!r}") from exc

    def to_str(self, a: Fraction) -> str:
        return str(a)

    def to_json(self) -> dict:
        return {"type": "rational"}


@dataclass(frozen=True)
class PrimeField:
    """The prime field Z/pZ; scalars render as ``"k mod p"``."""

    p: int

    def __post_init__(self):
        if self.p < 2 or any(self.p % q == 0 for q in range(2, int(self.p**0.5) + 1)):
            raise ValueError(f"not a prime: {self.p}")

    def zero(self) -> Fp:
        return Fp(0, self.p)

    def one(self) -> Fp:
        return Fp(1, self.p)

    def of_int(self, k: int) -> Fp:
        return Fp(k, self.p)

    def parse(self, s: str) -> Fp:
        parts = s.split("mod")
        if len(parts) != 2:
            raise ValueError(f"not a prime-field scalar: {s!r}")
        try:
            k, p = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"not a prime-field scalar: {s!r}") from exc
        if p != self.p:
            raise ValueError(f"scalar {s!r} does not live in F_{self.p}")
        return Fp(k, self.p)

    def to_str(self, a: Fp) -> str:
        return f"{a.value} mod {self.p}"

    def elements(self) -> Iterator[Fp]:
        return (Fp(k, self.p) for k in range(self.p))

    def to_json(self) -> dict:
        return {"type": "prime", "p": self.p}


Field = Union[Rationals, PrimeField]

QQ = Rationals()


def field_from_json(doc: dict) -> Field:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError(f"malformed field descriptor: {doc!r}")
    if doc["type"] == "rational":
        return QQ
    if doc["type"] == "prime":
        return PrimeField(int(doc["p"]))
    raise ValueError(f"unknown field type: {doc['type']!r}")

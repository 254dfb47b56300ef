"""Exact scalar arithmetic: arbitrary-precision rationals and small prime fields.

Every computation in the package runs over one of these two fields; there is
no floating point anywhere.  Rationals are ``fractions.Fraction`` (always in
lowest terms with positive denominator).  Prime-field elements are ``Fp``
values normalized to ``[0, p)``; they exist for the brute-force search corpus,
while serious verification work defaults to the rationals.

Scalar strings are read by a strict grammar: ``-?digits(/digits)?`` with a
nonzero denominator for rationals and ``-?digits mod p`` for F_p; nothing
else (no whitespace, exponent, underscore or decimal point) is accepted.
"""

from __future__ import annotations

import re
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
        # Only elements compare equal, so equality agrees with the hash.
        if isinstance(other, Fp):
            return self.value == other.value and self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"

    def __str__(self):
        return f"{self.value} mod {self.p}"


Scalar = Union[Fraction, Fp]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_RESIDUE = re.compile(r"(-?[0-9]+) mod ([0-9]+)")

# The largest accepted modulus (the Mersenne prime 2**31 - 1): primality is
# decided by trial division, about 46,000 steps at the ceiling.
MAX_PRIME = 2**31 - 1


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
        if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
            raise ValueError(f"not a rational scalar: {s!r}")
        try:
            return Fraction(s)
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
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ValueError(f"a prime must be an integer, got {type(self.p).__name__}")
        if self.p > MAX_PRIME:
            raise ValueError(f"prime exceeds the ceiling {MAX_PRIME}")
        if self.p < 2 or any(self.p % q == 0 for q in range(2, int(self.p**0.5) + 1)):
            raise ValueError(f"not a prime: {self.p}")

    def zero(self) -> Fp:
        return Fp(0, self.p)

    def one(self) -> Fp:
        return Fp(1, self.p)

    def of_int(self, k: int) -> Fp:
        return Fp(k, self.p)

    def parse(self, s: str) -> Fp:
        match = _RESIDUE.fullmatch(s) if isinstance(s, str) else None
        if match is None:
            raise ValueError(f"not a prime-field scalar: {s!r}")
        k, p = int(match[1]), int(match[2])
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
        return PrimeField(doc.get("p"))
    raise ValueError(f"unknown field type: {doc['type']!r}")

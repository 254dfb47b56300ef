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
from fractions import Fraction
from typing import Iterator, Union


def _record(*hidden: str):
    """Make a class an immutable record of its annotated fields (`_fields`),
    with plain methods, so nothing is compiled at start-up: __init__ binds
    arguments as Python would and calls __post_init__, and ==, hash and repr
    read the fields not named in hidden as a tuple.  Own methods are kept."""

    def make(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        indexed, shown = tuple(enumerate(names)), tuple(n for n in names if n not in hidden)
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        post_init = getattr(cls, "__post_init__", None)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                args = _bind(cls, names, defaults, args, kwargs)
            for i, name in indexed:
                _set(self, name, args[i])
            if post_init is not None:
                post_init(self)

        def refuse(self, name, *value):
            raise AttributeError(f"cannot assign to or delete field {name!r}")

        def key(self) -> tuple:
            return tuple([getattr(self, n) for n in shown])

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        def __repr__(self):
            return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"

        methods = {"__init__": __init__, "__setattr__": refuse, "__delattr__": refuse,
                   "__eq__": __eq__, "__hash__": lambda self: hash(key(self)), "__repr__": __repr__}
        for name, method in methods.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)
        cls._fields = names
        return cls

    return make


# Sets a field past a refusing __setattr__.  Writing into __dict__ instead
# makes CPython 3.11 read every field of that instance up to 3x slower.
_set = object.__setattr__


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values, in order, of a constructor call with keywords or
    defaults; too many, unknown, repeated or missing arguments are a TypeError."""
    given = dict(zip(names, args))
    values = {**defaults, **given, **kwargs}
    if len(args) > len(names) or kwargs.keys() & given.keys() or values.keys() != set(names):
        raise TypeError(f"{cls.__qualname__}() takes the fields ({', '.join(names)}), got"
                        f" {len(args)} positional arguments and {sorted(kwargs)} by keyword")
    return [values[n] for n in names]


class Fp:
    """An element of Z/pZ for a small prime p; it computes only with elements
    of the same field (mixing in an int is a TypeError)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        _set_value(self, value % p)
        _set_p(self, p)

    def __setattr__(self, name, val):  # immutable after construction
        raise AttributeError("Fp values are immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not the refusing __setattr__.
        return Fp, (self.value, self.p)

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError(f"mixed prime fields: p={self.p} vs p={other.p}")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value + o.value, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value - o.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Fp(self.value * o.value, self.p)

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


# The slot setters bypass the refusing __setattr__ at half the cost of object.__setattr__.
_set_value, _set_p = Fp.value.__set__, Fp.p.__set__

Scalar = Union[Fraction, Fp]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_RESIDUE = re.compile(r"(-?[0-9]+) mod ([0-9]+)")

# The largest accepted modulus (the Mersenne prime 2**31 - 1): primality is
# decided by trial division, about 46,000 steps at the ceiling.
MAX_PRIME = 2**31 - 1


@_record()
class Rationals:
    """The field of rational numbers, carried by ``fractions.Fraction``."""

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def of_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, s: str) -> Fraction:
        match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
        if match is None:
            raise ValueError(f"not a rational scalar: {s!r}")
        try:
            return Fraction(s) if match[1] else Fraction(int(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational scalar: {s!r}") from exc

    def to_str(self, a: Fraction) -> str:
        return str(a)

    def to_json(self) -> dict:
        return {"type": "rational"}


@_record()
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


def _require_field(what: str, field, table_field: Field) -> None:
    """Refuse an operand over another field than the table it is used with;
    None, the field of an operand that holds no scalars, is accepted."""
    if field not in (None, table_field):
        raise ValueError(f"{what} is over {field}, the table over {table_field}")


def field_from_json(doc: dict) -> Field:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError(f"malformed field descriptor: {doc!r}")
    if doc["type"] == "rational":
        return QQ
    if doc["type"] == "prime":
        return PrimeField(doc.get("p"))
    raise ValueError(f"unknown field type: {doc['type']!r}")

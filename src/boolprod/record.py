"""Value records: plain classes compared, hashed and printed by their fields.

A subclass names its fields in FIELDS, and its own __init__ checks or
normalises the arguments and passes the field values on, in FIELDS order.  A
record equals one of the same class whose fields are equal, and is never
equal to one of another class.  A Record is mutable and unhashable; a
FrozenRecord refuses assignment and hashes by value.  A Terms record holds a
dict key -> nonzero coefficient in its last field, terms, and adds to one of
its own class with the same other fields.
"""


class Record:
    FIELDS: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Terms(Record):
    """A Record whose last field, terms, maps keys to nonzero coefficients;
    a coefficient is anything with +, truthiness and, for is_nonnegative,
    >= 0.  Zeros are dropped when it is built."""

    def __init__(self, *values):
        *fields, terms = values
        super().__init__(*fields, {key: c for key, c in (terms or {}).items() if c})

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        *fields, terms = self._values()
        if other._values()[:-1] != tuple(fields):
            raise ValueError("mixed variable counts")
        terms = dict(terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return type(self)(*fields, terms)

    def items_sorted(self) -> list:
        """Terms in descending key order (keys are distinct)."""
        return sorted(self.terms.items(), reverse=True)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

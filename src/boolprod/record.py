"""Value records: plain classes compared, hashed and printed by their fields.

A subclass names its fields in FIELDS, and its own __init__ checks or
normalises the arguments and passes the field values on, in FIELDS order.  A
record equals one of the same class whose fields are equal, and is never
equal to one of another class.  A Record is mutable and unhashable; a
FrozenRecord refuses assignment and hashes by value.
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

"""Frozen value records, the base of every parameter and result type.

A record class names its fields in __slots__.  Record.__init__ takes one
positional value per field, in __slots__ order; a class that sets
_optional = n lets its last n fields default to None, and any other
argument count raises TypeError.  Only a record that validates its
arguments writes its own __init__, setting its fields through set_field
(and calling Record.__init__(self, ...), never super(), if it delegates).

Record supplies what dataclass(frozen=True) would: equality only
between instances of the same class, the hash of the field tuple, a repr
of the form Name(field=value, ...), an AttributeError on assignment or
deletion, and pickling through the constructor.  Plain classes are used because
generating those methods with dataclasses costs every command-line call
a large share of its start-up.
"""

#: Sets a field from __init__, past Record.__setattr__.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    #: How many trailing fields default to None.
    _optional = 0

    def __init__(self, *values):
        names = self.__slots__
        missing = len(names) - len(values)
        if not 0 <= missing <= self._optional:
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(names)} fields"
                f" ({self._optional} optional), got {len(values)}"
            )
        for name, value in zip(names, values + (None,) * missing):
            set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

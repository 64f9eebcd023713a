"""The base of the package's immutable value types.

Every record of the package is a `__slots__` class derived from `Value`.
Its fields are its slots whose names do not start with `_`, in
declaration order; `Value` gives it the refusal of assignment and
deletion, a `Name(field=value, ...)` repr and pickle/copy support, and,
for types that do not write their own, `==` and `hash` over the field
tuple.  No methods are generated, so defining a type costs no more than
a plain class.

A slot whose name starts with `_` is a derived cache, not a field: a
value its `__init__` computes once from the fields, such as the atom's
hash, sort key, K0 pair and text (`p1.ShiftedIndec`).  `_fields`,
`_compare`, `repr`, `==` and pickle/copy ignore it; since pickle and copy
rebuild a value through `__init__`, they recompute it.  It is refused
assignment and deletion like a field.

Nine types that the HN engine and the window checks hash and compare in
bulk write `__eq__` and `__hash__` out by hand, as the generic methods,
which build the field tuple through `getattr`, cost them measurable time:
`Point`, `Line`, `Torsion`, `StableClass`, `ShiftedIndec` and the four
slope types.  `ShiftedIndec`'s returns the `_hash` it cached, `hash` of
its field tuple all the same.  So does the sort-key element
`elliptic.MuKey`, which adds `<` and `<=`.  Every other type, formal sums
and K0 classes included, takes `Value`'s methods, which a profile shows
cold.  The rules are the same:

* `a == b` compares the field tuples when `a` and `b` are of the very
  same class, and is NotImplemented (so False, unless reflected)
  otherwise;
* `hash(a)` is `hash` of the field tuple, so set and dict order follow
  the field values alone;
* a field listed outside `_compare` takes no part in either.

Pickle and copy rebuild a value by calling its class on its fields, so
every `__init__` takes the fields in declaration order, and a value it
has normalised comes back as it was.

`INT_TEXT` is the one integer literal of specs, flags and documents.
"""

from __future__ import annotations

set_field = object.__setattr__  # how an __init__ sets a field past Value.__setattr__

# ASCII digits with an optional sign.  Compiled on first use, through `re`'s
# own cache, so commands that read none do not pay for it at import.
INT_TEXT = r"[+-]?[0-9]+\Z"


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of an immutable value."""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()   # the slots but the derived ones, in declaration order
    _compare: tuple[str, ...] = ()  # the fields that == and hash read; all unless declared

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        if slots:
            cls._fields = tuple(name for name in slots if not name.startswith("_"))
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _compared(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compare])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


def assign(obj: Value, values: dict) -> None:
    """Set each field of `obj` from `values`, an `__init__`'s `locals()`."""
    for name in obj._fields:
        set_field(obj, name, values[name])

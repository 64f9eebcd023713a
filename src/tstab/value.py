"""The base of the package's immutable value types.

Every record of the package is a `__slots__` class derived from `Value`.
Its fields are its slots whose names do not start with `_`, in
declaration order; `Value` gives it the refusal of assignment and
deletion, a `Name(field=value, ...)` repr, pickle/copy support, and `==`
and `hash` over the field tuple.  No methods are generated, so defining
a type costs no more than a plain class and one getter of its fields.

A slot whose name starts with `_` is a derived cache, not a field: a
value computed once from the fields when the value is built, such as the
atom's hash, sort key, K0 pair and text (`p1.ShiftedIndec`).  `_fields`,
`_compare`, `repr`, `==` and pickle/copy ignore it; pickle and copy call
the class, which computes it again or returns the atom that holds it.  It is
refused assignment and deletion like a field.

The rules of `==` and `hash`:

* `a == b` compares the field tuples when `a` and `b` are of the very
  same class, and is NotImplemented (so False, unless reflected)
  otherwise;
* `hash(a)` is `hash` of the field tuple, so set and dict order follow
  the field values alone;
* a field listed outside `_compare` takes no part in either.

Each class gets its getters in C, an `operator.attrgetter`: `==` compares
the compared tuples, or the bare field of a one-field type, and `hash`
reads the tuple, which a one-field type wraps in Python.  Two types keep
methods of their own:

* `slopes.ExtendedRational`, the exact slope and a sort key element, has
  `<` and `<=` by cross-multiplication, and an `==` of the same form that
  sort-key comparisons call hot; its `hash` is `hash` of its coprime fields;
* `p1.ShiftedIndec` is hash-consed, one object per field tuple, so its `==`
  is identity; its `hash` returns the `_hash` of that tuple it computed when
  built, as the field hash nests the hashes of base and point.

Pickle and copy rebuild a value by calling its class on its fields, so
every constructor takes the fields in declaration order, and a value it
has normalised comes back as it was.

`INT_TEXT` is the one integer literal of specs, flags and documents.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__  # how an __init__ sets a field past Value.__setattr__

# ASCII digits with an optional sign.  Compiled on first use, through `re`'s
# own cache, so commands that read none do not pay for it at import.
INT_TEXT = r"[+-]?[0-9]+\Z"


def _getters(names: tuple[str, ...]):
    """The maps from a value to what `==` compares of its fields `names`, the
    bare field where there is one, and to their tuple, which `hash` reads."""
    if not names:
        return (lambda value: (),) * 2
    get = attrgetter(*names)
    return get, (get if len(names) > 1 else lambda value: (get(value),))


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of an immutable value."""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()   # the slots but the derived ones, in declaration order
    _compare: tuple[str, ...] = ()  # the fields that == and hash read; all unless declared
    _eq_key = _compared = staticmethod(_getters(())[0])  # value -> what == and hash read

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        if slots:
            cls._fields = tuple(name for name in slots if not name.startswith("_"))
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields
        eq_key, compared = _getters(cls._compare)
        cls._eq_key, cls._compared = staticmethod(eq_key), staticmethod(compared)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            eq_key = self._eq_key
            return eq_key(self) == eq_key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self._fields])


def assign(obj: Value, values: dict) -> None:
    """Set each field of `obj` from `values`, an `__init__`'s `locals()`."""
    for name in obj._fields:
        set_field(obj, name, values[name])

"""The base of the package's immutable value types, their field contract and interning.

Every record of the package is a `__slots__` class derived from `Value`.  Its
fields are its slots whose names do not start with `_`, in declaration order;
`Value` gives it the refusal of assignment and deletion, a `Name(field=value,
...)` repr, pickle/copy support, and `==` and `hash` over the field tuple.  A
slot named with a leading `_` is a derived cache, computed from the fields when
the value is built (`p1.ShiftedIndec`'s key, K0 pair and text), which
`_fields`, `_compare`, `repr`, `==` and pickle/copy ignore.

The field contract: a class names its int fields once, in `_ints`, each with
what else it takes (a standard slope's level a `Point`, a threshold +-inf).
`check_ints`, the one test of them and of multiplicities and K0 components,
refuses any other value, a bool too, with TypeError "<field> must be an
integer, got <value>"; `assign` runs it, and a hot constructor calls it on
its values in `_ints` order.  A type with a normal form (`p1.FormalSum`,
`slopes.ExtendedRational`) refuses fields out of it; the package builds values
already in normal form through the class's private `_raw`, which checks nothing.

`a == b` compares the field tuples (`_compare`, all unless declared) by C
`operator.attrgetter`s when `a` and `b` are of the very same class, and is
NotImplemented otherwise; `hash(a)` hashes that tuple, so set and dict order
follow the field values alone.  `slopes.ExtendedRational` compares by
cross-multiplication.  Pickle and copy call the class on the fields, which
every constructor takes in order.  An `Interned` class (the points, sheaves and
atoms of `p1` and `elliptic`) maps each field tuple, defaults filled in, to one
value in its table: a call checks the int fields, looks the tuple up, and on a
miss runs `__init__`'s other rules and stores the value built, so a refused build
stores nothing; `==` is identity, and copy and pickle return the table's value.

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
    _ints: dict = {}  # the int fields, each with what else it takes (see `check_ints`)
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


def check_ints(fields: dict | str, a, b=0) -> None:
    """Refuse, with TypeError, `a` or `b` if it is no int (a bool is none) nor what its field
    also takes: `fields` maps the fields, in order, to a tuple of the values and classes each
    also takes, or a str names both.  Two values at most: a fixed arity halves a call's cost."""
    if a.__class__ is int and b.__class__ is int:
        return
    for (name, also), value in zip([(fields, ())] * 2 if isinstance(fields, str)
                                   else fields.items(), (a, b)):
        if value.__class__ is not int and value.__class__ not in also and value not in also:
            other = "".join(f" or {getattr(v, '__name__', repr(v))}" for v in also)
            raise TypeError(f"{name} must be an integer{other}, got {value!r}")


def assign(obj: Value, values: dict) -> None:
    """Set each field of `obj` from `values`, an `__init__`'s `locals()`, by `check_ints`."""
    for name, also in obj._ints.items():
        check_ints({name: also}, values[name])
    for name in obj._fields:
        set_field(obj, name, values[name])


class _Interning(type):
    """The class of the `Interned` classes: calling one returns its table's value."""

    def __call__(cls, *fields):
        if len(fields) != cls._arity:  # the defaults, so that they make no second key
            fields += cls._defaults[len(fields) - cls._arity:]
            if len(fields) != cls._arity:
                return super().__call__(*fields)  # which refuses the arity
        i, j = cls._int_at  # before the lookup, as True == 1.0 == 1 hash alike
        if fields[i].__class__ is not int or fields[j].__class__ is not int:
            check_ints(cls._ints, fields[i], fields[j])  # j is i for one field, unread
        value = cls._table.get(fields)
        if value is None:
            value = cls._table[fields] = super().__call__(*fields)
            set_field(value, "_hash", hash(fields))
        return value


class Interned(Value, metaclass=_Interning):
    """A hash-consed value (see above) of one or two int fields, whose `__init__`
    takes its fields in order, positionally, and sets them as given."""

    __slots__ = ("_hash",)
    __eq__ = object.__eq__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        at = [cls._fields.index(name) for name in cls._ints]
        cls._table, cls._arity, cls._int_at = {}, len(cls._fields), (*at, *at)[:2]
        cls._defaults = cls.__init__.__defaults__ or ()

    def __hash__(self):
        return self._hash

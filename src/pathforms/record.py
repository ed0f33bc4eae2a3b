"""Slotted value records: the part of a dataclass the package uses, with
nothing to compile per class and nothing to bind per call.

A record class names its fields once, as `__slots__ = dict(name=annotation)`,
and gets the table `_fields` of (name, annotation, default) down its
hierarchy, a default being that of the `__init__` parameter of the same
name, else MISSING.  Values of one type with equal fields are equal;
values hash their fields, repr as a dataclass does, copy and pickle, and
refuse assignment and deletion.  A plain `__init__` checks its arguments
and stores them with object.__setattr__; the base's, and `_trusted`,
store their positional arguments as given.
"""

from operator import attrgetter

MISSING = object()


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        code, defaults = cls.__init__.__code__, cls.__init__.__defaults__ or ()
        params = code.co_varnames[1 : code.co_argcount]
        defaults = dict(zip(params[len(params) - len(defaults) :], defaults))
        cls._fields = tuple(
            (name, kind, defaults.get(name, MISSING))
            for klass in reversed(cls.__mro__)
            for name, kind in dict(klass.__dict__.get("__slots__", ())).items()
        )
        # no call frame or generator per comparison; a record with no fields has its class
        cls._values = attrgetter(*[name for name, _, _ in cls._fields] or ["__class__"])

    def __init__(self, *values):
        if len(values) != len(self._fields):
            name, count = type(self).__name__, len(self._fields)
            raise TypeError(f"{name} takes {count} field values, got {len(values)}")
        for (name, _, _), value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name, _, _ in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _trusted(cls, *values):
        """The trusted constructor: stores values that `__init__` would not change."""
        out = object.__new__(cls)
        Record.__init__(out, *values)
        return out

    def __reduce__(self):
        return self._trusted, tuple([getattr(self, name) for name, _, _ in self._fields])

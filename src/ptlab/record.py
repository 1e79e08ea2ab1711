"""Frozen value records: the part of ``@dataclass(frozen=True)`` ptlab uses.

Every value class of the library (rings, series, towers, monoids, reports)
is a record: its fields are its own annotations, in order, with defaults
taken from class attributes; it gets ``__init__`` (positional and keyword
binding, then ``__post_init__`` if the class defines one), field-wise
``__eq__`` between objects of the same class, ``__hash__`` of the field
tuple, a dataclass-style ``__repr__`` and frozen ``__setattr__`` /
``__delattr__``.  A method the class defines itself is kept.  Instances keep
a ``__dict__``, so ``functools.cached_property`` works and ``__post_init__``
may normalise a field through ``object.__setattr__``.

The methods are closures over the field names.  ``dataclasses`` instead
writes each method as source text and execs it, and importing it loads
``inspect``, ``ast`` and ``dis``; every fresh ``ptlab`` process paid for that
on every value class.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    pass


# Fields are set in field order through object.__setattr__, as dataclasses
# does, so CPython keeps the values inline with keys shared by the class.
# Filling instance.__dict__ instead builds a dict per instance: on 200k
# MonoidElems that cost 28% more memory and 1.6x slower attribute reads.
_set_field = object.__setattr__


def record(cls):
    """Class decorator: gives cls the record methods of the module docstring,
    over the fields its own annotations name."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {k: cls.__dict__[k] for k in names if k in cls.__dict__}
    for a, b in zip(names, names[1:]):
        if a in defaults and b not in defaults:
            raise TypeError(f"non-default field {b!r} follows default field {a!r}")
    qualname = cls.__qualname__
    post_init = hasattr(cls, "__post_init__")
    n = len(names)

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} arguments but {len(args)} were given")
        for k, v in zip(names, args):
            _set_field(self, k, v)
        for k in names[len(args):]:
            if k in kwargs:
                _set_field(self, k, kwargs.pop(k))
            elif k in defaults:
                _set_field(self, k, defaults[k])
            else:
                raise TypeError(f"{qualname}() missing argument {k!r}")
        for k in kwargs:
            why = "multiple values for" if k in names else "an unexpected keyword"
            raise TypeError(f"{qualname}() got {why} argument {k!r}")
        if post_init:
            self.__post_init__()

    if n == 1:
        get = attrgetter(names[0])

        def values(self):
            return (get(self),)
    else:
        values = attrgetter(*names) if names else (lambda self: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{k}={getattr(self, k)!r}" for k in names)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__}
    for name, fn in methods.items():
        if name not in cls.__dict__:
            fn.__qualname__ = f"{qualname}.{name}"
            setattr(cls, name, fn)
    cls.__record_fields__ = names
    return cls


def replace(obj, **changes):
    """A copy of the record obj with some fields changed; ``__init__`` runs
    again, so the class's validation applies to the result."""
    return obj.__class__(**{**{k: getattr(obj, k) for k in obj.__record_fields__}, **changes})

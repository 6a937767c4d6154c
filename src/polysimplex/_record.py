"""Frozen records: the value classes' constructor, equality, hash and repr.

``@record`` reads a class's annotated fields in order and adds what the
class body does not define itself: an ``__init__`` taking the fields
positionally or by keyword, field-wise ``==``, a hash of the field tuple,
a ``Name(field=value, ...)`` repr, and ``__setattr__`` and
``__delattr__`` that raise :class:`AttributeError`.  A class attribute
gives a field its default; :func:`field` gives a fresh default per
instance.  ``__post_init__``, when the class has one, runs last and is
looked up on the instance at every call.  Field values live in the
instance ``__dict__``, so a trusted constructor may fill it directly; so
may ``__post_init__``, with what it derives from the fields, which
``==``, hash and repr do not read.

The methods are closures over the field names; nothing is compiled at
run time, which keeps :mod:`dataclasses` (and the :mod:`inspect` it
imports) out of the package's import.
"""

from operator import attrgetter

_MISSING = object()


class field:
    """A field whose default, ``default_factory()``, is made afresh for
    each instance that does not pass it."""

    __slots__ = ("default_factory",)

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls):
    """Class decorator making ``cls`` a frozen record."""
    names, defaults, factories = [], {}, {}
    for name in cls.__dict__.get("__annotations__", {}):
        names.append(name)
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, field):
            delattr(cls, name)
            factories[name] = value.default_factory
        elif value is not _MISSING:
            defaults[name] = value
    count, accepted = len(names), frozenset(names)
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    key = get if count > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) > count:
            raise TypeError(f"{cls.__name__}() takes {count} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name in kwargs:
            if name not in accepted:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values.update(kwargs)
        if len(values) < count:
            for name in names:
                if name in values:
                    continue
                if name in factories:
                    values[name] = factories[name]()
                elif name in defaults:
                    values[name] = defaults[name]
                else:
                    raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    for name, method in methods.items():
        if name not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls

"""Frozen records: the value classes' constructor, equality, hash and repr.

``@record`` reads a class's annotated fields in order and adds what the
class body does not define itself: an ``__init__`` taking the fields
positionally or by keyword, field-wise ``==``, a hash of the field tuple
(frozen records only; a mutable record is unhashable), a
``Name(field=value, ...)`` repr, and, when frozen, ``__setattr__`` and
``__delattr__`` that raise :class:`AttributeError`.  A class attribute
gives a field its default; :func:`field` gives a fresh default per
instance, or leaves a field out of ``__init__``, ``repr`` or ``==``.
``__post_init__``, when the class has one, runs last and is looked up
on the instance at every call.  Field values live in the instance
``__dict__``, so a trusted constructor may fill it directly.

The methods are closures over the field names; nothing is compiled at
run time, which keeps :mod:`dataclasses` (and the :mod:`inspect` it
imports) out of the package's import.
"""

from operator import attrgetter

_MISSING = object()


class field:
    """Per-field options: ``default_factory`` is called for each instance
    that does not pass the field; a field with ``init=False`` is set by
    ``__post_init__``."""

    __slots__ = ("default_factory", "init", "repr", "compare")

    def __init__(self, *, default_factory=None, init=True, repr=True, compare=True):
        self.default_factory, self.init, self.repr, self.compare = default_factory, init, repr, compare


_PLAIN = field()


def record(cls=None, *, frozen=True):
    """Class decorator making ``cls`` a record; ``@record(frozen=False)``
    makes a mutable, unhashable one."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names, shown, compared, defaults, factories = [], [], [], {}, {}
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        spec = value if isinstance(value, field) else _PLAIN
        if spec is value:
            delattr(cls, name)
        elif value is not _MISSING:
            defaults[name] = value
        if spec.default_factory is not None:
            factories[name] = spec.default_factory
        if spec.init:
            names.append(name)
        if spec.repr:
            shown.append(name)
        if spec.compare:
            compared.append(name)
    count, accepted = len(names), frozenset(names)
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*compared)
    key = get if len(compared) > 1 else lambda self: (get(self),)

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
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__}
    if frozen:
        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for name, method in methods.items():
        if name not in cls.__dict__:
            if method is not None:
                method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls

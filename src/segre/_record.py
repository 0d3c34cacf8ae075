"""Immutable values: one frozen base, and records in place of frozen dataclasses.

``Frozen`` is the base of every value type.  Assigning or deleting an
attribute raises ``dataclasses.FrozenInstanceError``; values compare equal
when of the same class with equal ``_values()``, and hash as that tuple.
A slotted value (``QuadricPencil``, ``Polynomial``) names its ``_values()``
and fills its slots with ``object.__setattr__``; ``SegreSymbol`` keeps its
own structural ``==`` and ``hash``.

``Record`` is a ``Frozen`` with fields.  A subclass lists its fields as
annotations, in order; a class attribute of the same name is the field's
default.  Instances keep their fields in ``__dict__`` (their ``_values()``),
print as ``Name(field=value, ...)`` and pickle through their constructor.
``replace(**changes)`` makes a copy with some fields changed.

Unlike a dataclass, a record class generates no code when it is built,
and this module imports nothing, so records add next to nothing to the
start-up of ``segre analyze``.  The generic constructor runs
``__post_init__``; a class built many times per analysis may define its
own ``__init__`` instead, storing its fields into ``self.__dict__``.
"""

from __future__ import annotations

__all__ = ["Frozen", "Record"]


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class Record(Frozen):
    __slots__ = ()
    __match_args__ = ()  # the field names, set for each subclass
    _names = frozenset()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)  # the class's own annotations
        cls.__match_args__ = names
        cls._names = frozenset(names)
        cls._defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__match_args__
        values = kwargs
        if args:
            values = dict(zip(names, args))
            if len(values) < len(args):
                raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
            if kwargs.keys() & values.keys():
                raise TypeError(f"{cls.__name__}() got repeated arguments {sorted(kwargs)}")
            values.update(kwargs)
        if not values.keys() <= cls._names:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(values)}")
        if len(values) < len(names):
            values = {**cls._defaults, **values}
            if len(values) < len(names):
                missing = [n for n in names if n not in values]
                raise TypeError(f"{cls.__name__}() is missing arguments {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[n] for n in self.__match_args__])

    def replace(self, **changes):
        """A copy with the given fields changed, made by the constructor."""
        return type(self)(**{**self.__dict__, **changes})

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

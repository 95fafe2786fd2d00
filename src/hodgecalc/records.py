"""Immutable result records.

A record class lists its fields as annotations, after those of its bases; a
class attribute of the same name is the field's default, and the fields
named in ``_hidden`` are left out of ``==``, ``hash`` and ``repr``.  Records
behave as frozen dataclasses, but their methods are the shared ones of the
base class, so defining a record class compiles no code at import (the
dataclass decorator runs ``exec`` six times per class).
"""


class Record:
    """Base of the immutable records: fields by position or keyword, then
    ``__post_init__`` when the class defines it; no assignment afterwards."""

    _fields = ()
    _hidden = ()

    def __init_subclass__(cls):
        own = [f for f in cls.__dict__.get("__annotations__", ()) if f not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        n = len(cls._fields)       # the last fields from n on all have a default
        while n and cls._fields[n - 1] in cls._defaults:
            n -= 1
        cls._tail = tuple(cls._defaults[f] for f in cls._fields[n:])
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        missing = len(fields) - len(args)
        if kwargs or missing:
            if not kwargs and 0 < missing <= len(self._tail):
                args += self._tail[-missing:]
            else:
                args = self._arguments(args, kwargs)
        # one attribute at a time: touching self.__dict__ would give the
        # instance a dict of its own, and reading its fields three times slower
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        if self._post_init is not None:
            self._post_init()

    def _arguments(self, args, kwargs):
        """The value of every field, in order, from a call that gives some
        by keyword or leaves some to their defaults."""
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        # too many values, a field given twice, a keyword no field has, a field left out
        if len(args) > len(fields) or kwargs.keys() & given.keys() or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        return [values[f] for f in fields]

    def _values(self):
        return tuple([getattr(self, f) for f in self._shown])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

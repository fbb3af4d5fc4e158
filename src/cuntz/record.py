"""Immutable records: the value, query and expression classes.

A subclass declares its fields as class annotations, in base-class order,
and a default as a class attribute of the same name.  Instances refuse
assignment and deletion, equal exactly the instances of the same class with
equal fields, hash like the tuple of their fields and print as
``Name(field=value, ...)``.  A ``__post_init__`` method validates the fields
once they are set, also on ``replace``.

Unlike ``dataclasses``, defining a class generates no code, so importing a
module of records stays cheap: equality and hashing read the fields through
one ``operator.attrgetter`` per class, and the first instance of a class
compiles the ``__init__`` that sets them.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()  # the field names, in order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = []
        for klass in reversed(cls.__mro__):
            for name in vars(klass).get("__annotations__", ()):
                if name not in names:
                    names.append(name)
        cls._fields = tuple(names)
        if "__eq__" not in vars(cls):
            cls.__eq__, cls.__hash__ = _comparisons(cls._fields)
        # A subclass may add fields or change defaults, so it compiles its
        # own __init__; a hand-written one is inherited as it is.
        if "__init__" not in vars(cls) and getattr(cls.__init__, "_compiled", False):
            cls.__init__ = Record.__init__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        cls.__init__ = _compile_init(cls)
        cls.__init__(self, *args, **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes) -> Record:
        """A copy with the given fields changed, validated as a new instance."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


def _comparisons(names):
    get = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if type(other) is type(self):
            return get(self) == get(other)
        return NotImplemented

    if len(names) == 1:  # attrgetter returns the bare value

        def __hash__(self):
            return hash((get(self),))

    else:

        def __hash__(self):
            return hash(get(self))

    return __eq__, __hash__


def _compile_init(cls):
    names = cls._fields
    defaults = [getattr(cls, name) for name in names if hasattr(cls, name)]
    if not all(hasattr(cls, name) for name in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows a default")
    lines = [f"def __init__(self, {', '.join(names)}):", "    pass"]
    lines += [f"    _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    namespace = {"_set": _set}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init._compiled = True
    return init

"""The immutable record base of the package's value classes.  It stands in
for ``@dataclass(frozen=True)``: importing ``dataclasses`` and building the
classes with it cost about 24 ms of CPU per cold CLI command (2-CPU VM,
Python 3.11)."""

_set = object.__setattr__


class _ValueType(type):
    """Makes the annotated names of a class body its ``__slots__``; a class
    attribute of the same name becomes that field's default."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields
        return super().__new__(mcls, name, bases, ns)


class Value(metaclass=_ValueType):
    """Immutable record whose fields are its annotations, in order.  It is
    built positionally or by keyword, with defaults, then checked by
    ``__post_init__``, which may normalize fields through
    ``object.__setattr__``.  Equality and hashing go by type and field
    values, and the repr is ``Name(field=value, ...)``."""

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > len(names) or kwargs.keys() & names[: len(args)] or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields {names}, got {args} and {kwargs}")
            args = [given[n] for n in names]
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, n) for n in self.__slots__])

    def _asdict(self) -> dict:
        """The fields by name, one level deep."""
        return dict(zip(self.__slots__, self._values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: the slots refuse setattr
        return type(self), self._values()

"""Exception hierarchy shared by all fractaloid modules, and the base class
of its validated value types."""

from operator import attrgetter


class FractaloidError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(FractaloidError):
    """A graph (or graph-derived value) is structurally invalid, or values
    from different graphs were mixed in one operation."""


class UnknownVertexError(GraphError):
    """A vertex id was looked up in a graph that does not declare it."""


class ParameterError(FractaloidError):
    """An argument is outside the documented domain of an operation."""


class LimitError(FractaloidError):
    """A configured computation budget (states, paths, nodes) was exceeded."""


class DisconnectedGraphError(FractaloidError):
    """An operation restricted to connected graphs received a disconnected
    (or empty) graph."""


class NotFractalError(FractaloidError):
    """An operation restricted to fractal graphs received a non-fractal one."""


class Frozen:
    """Base of the value types that validate or derive tables when built.

    A subclass lists its constructor arguments in `_fields` (and, if some of
    them do not take part in equality, the others in `_compared`), keeps its
    attributes in `__slots__`, and sets them in `__init__` through `_set`.
    Equality, hashing and repr follow those fields; a copy or a pickle calls
    the constructor again. Assignment afterwards raises the standard
    library's `FrozenInstanceError`, an `AttributeError`, imported only then.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        compared = cls.__dict__.get("_compared", cls._fields)
        cls._key = attrgetter(*compared)
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return self is other or key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        from dataclasses import FrozenInstanceError

        verb = "assign to" if value else "delete"
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    __delattr__ = __setattr__

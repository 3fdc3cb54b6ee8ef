"""The base of twistlab's immutable value types, without `dataclasses`.

A subclass lists its fields in _fields and sets them in its own
__init__ with object.__setattr__, after its checks.  Instances are
equal and hash-equal exactly when their class and fields are, print as
Name(field=value, ...), and refuse assignment.  The instance __dict__
stays, so functools.cached_property works on them.
"""


class Value:
    _fields: tuple[str, ...] = ()

    @classmethod
    def _canonical(cls, **fields):
        """An instance holding fields, by name, that its caller has already
        made canonical: __init__ and its checks do not run.  Every public
        constructor keeps them."""
        self = object.__new__(cls)
        object.__setattr__(self, "__dict__", fields)
        return self

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

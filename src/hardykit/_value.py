"""The base of the package's immutable value classes; it imports nothing."""


class Value:
    """``==``, ``hash`` and ``repr`` over the fields named in ``_fields``, and no assignment.

    A subclass's ``__init__`` writes its fields into ``__dict__`` and then runs
    its ``__post_init__``, if it has one, which may store cleaned values with
    ``object.__setattr__``. Afterwards, setting or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.
    """

    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _equal(self._values(), other._values())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _equal(a, b) -> bool:
    """``a == b`` as one bool: tuples item by item, arrays by shape and then entries."""
    if a is b:
        return True
    if type(a) is tuple or type(b) is tuple:
        return type(a) is type(b) and len(a) == len(b) and all(map(_equal, a, b))
    shape = getattr(a, "shape", ())
    if shape or getattr(b, "shape", ()):  # an array on either side, compared without numpy
        return shape == getattr(b, "shape", ()) and bool((a == b).all())
    return bool(a == b)

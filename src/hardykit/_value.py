"""The base of the immutable value classes, their trusted builds and copies; it imports nothing."""


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

    def __reduce__(self):
        return (_restored, (self.__class__, self.__dict__))


def _trusted(cls, **fields):
    """A value built without ``__init__`` or validation, for values valid by construction.

    Every field must be given in the form ``__post_init__`` would have stored.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _restored(cls, entries: dict):
    """The value that ``copy``, ``deepcopy`` and ``pickle`` make: ``entries``, arrays read-only.

    A copied array views nothing, so a spin scenario's ``_sides`` are cut from its ``_spin`` again.
    """
    value = _trusted(cls, **{name: _frozen(entry) for name, entry in entries.items()})
    if "_spin" in entries:
        value.__dict__["_sides"] = (value._spin[0:6:2], value._spin[1:7:2])
    return value


def _read_only(array):
    """``array``, set read-only."""
    array.setflags(write=False)
    return array


def _frozen(entry):
    """``entry`` with every array in it, or in its tuples, set read-only."""
    if type(entry) is tuple:
        return tuple(map(_frozen, entry))
    return _read_only(entry) if hasattr(entry, "setflags") else entry


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

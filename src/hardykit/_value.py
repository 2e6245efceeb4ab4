"""Immutable values: base class, trusted builds, copies and element rules; no import at load."""

import sys


class Value:
    """``==``, ``hash`` and ``repr`` over the fields named in ``_fields``, and no assignment.

    A subclass's ``__init__`` checks its arguments and then writes the cleaned
    fields into ``__dict__`` in one step. Afterwards, setting or deleting an
    attribute raises ``dataclasses.FrozenInstanceError``.
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

    Every entry must be given in the form ``__init__`` stores, ``_sides`` or ``_state`` included.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _restored(cls, entries: dict):
    """The value that ``copy``, ``deepcopy`` and ``pickle`` make: ``entries``, arrays read-only."""
    return _trusted(cls, **{name: _frozen(entry) for name, entry in entries.items()})


def _boolean(value) -> bool:
    """Whether ``value`` is a Python or a numpy boolean."""
    numpy = sys.modules.get("numpy")  # a numpy boolean exists only once numpy is loaded
    return isinstance(value, bool) or (numpy is not None and isinstance(value, numpy.bool_))


def _not_a_number(value) -> bool:
    """Whether ``value`` is a boolean or text (bytes-like included), which no numeric rule reads."""
    return isinstance(value, (str, bytes, bytearray, memoryview)) or _boolean(value)


def _number(value, field: str) -> float:
    """A number as a float; what ``_not_a_number`` names or ``float`` refuses raises ``ValueError``.

    A number too large for a float is named without its digits, from ``float``'s ``OverflowError``.
    """
    if type(value) is float:
        return value
    if type(value) is int or not _not_a_number(value):
        try:
            return float(value)
        except OverflowError as exc:
            raise ValueError(f"{field} must be a number, got one too large for a float") from exc
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{field} must be a number, got {value!r}")


def _array(data, dtype):
    """``data`` as a new array of ``dtype``; None if numpy refuses it or it holds a bool or string."""
    import numpy as np
    try:
        array = np.array(data, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or ints too large
        return None
    if isinstance(data, np.ndarray) and data.dtype.kind in "iufc":  # its dtype rules both out
        return array
    elements = np.array(data, dtype=object).flat  # the rest one by one: Fractions pass, as in lists
    return None if any(map(_not_a_number, elements)) else array


def _shown(value) -> str:
    """``repr(value)``, or words for it if it holds an int past Python's int-to-str digit limit."""
    try:
        return repr(value)
    except ValueError:
        return "a value too large to print"


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

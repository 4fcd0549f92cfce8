"""The shared base of the library's value types.

A value type names its fields once, in ``__slots__``.  Its instances are
frozen records: built by position or by keyword and checked by the
class's ``__post_init__``, compared and hashed as the tuple of their
fields, shown as ``Name(field=value, ...)``, and pickled or copied
through the checking constructor.  A field named in the class keyword
``derived`` is set by ``__post_init__`` from the others: it takes no
argument and no part in ``==`` or ``hash``, though ``repr`` shows it.  A
class that caches with ``functools.cached_property`` adds ``"__dict__"``
to its slots, and a class whose fields do not hash as they are overrides
``__hash__`` alone.  ``Value._trusted`` is the one unchecked constructor:
a closed operation that built valid fields itself wraps them with it.

The checks of what a field may hold live here too, one per rule, for
every value type to read: ``_is_int`` (an int, never a bool),
``_is_number`` (an exact number: such an int or a ``Fraction``),
``_normalize`` (an integral ``Fraction`` read as its int), and ``_items``
and ``_pair``, which read a field of iterable or pair shape or refuse it
with ``InvariantViolation``, never a bare ``TypeError`` or ``ValueError``.
"""
from fractions import Fraction
from operator import attrgetter

from .errors import InvariantViolation

Number = int | Fraction


def _is_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _normalize(x: Number) -> Number:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _items(x, what: str):
    """An iterator over the field ``x``, named ``what`` in the error when
    it is not iterable."""
    try:
        return iter(x)
    except TypeError:
        raise InvariantViolation(f"{what} must be iterable, got {x!r}") from None


def _pair(x, what: str) -> tuple:
    """The two entries of ``x``, named ``what`` in the error when it is not
    an iterable of exactly two."""
    try:
        first, second = x
    except (TypeError, ValueError):
        raise InvariantViolation(f"{what} must be a pair, got {x!r}") from None
    return first, second


class Value:
    """Frozen record over the fields named in a subclass's ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, derived: tuple = (), **kwargs):
        super().__init_subclass__(**kwargs)
        shown = tuple(name for name in cls.__slots__ if name != "__dict__")
        fields = tuple(name for name in shown if name not in derived)
        get = attrgetter(*fields)
        cls._fields, cls._shown = fields, shown
        cls._setters = tuple(getattr(cls, name).__set__ for name in shown)
        # attrgetter of one name gives the value, not a 1-tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = args + tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if len(values) != len(fields) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes the arguments {', '.join(fields)}, "
                            f"each once, by position or keyword")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)
        self.__post_init__()

    @classmethod
    def _trusted(cls, *values):
        """Wrap fields a closed operation built from valid records: one
        value per field in ``__slots__`` order, derived fields included and
        ``__dict__`` left out, with no ``__post_init__``."""
        record = object.__new__(cls)
        try:
            for set_field, value in zip(cls._setters, values, strict=True):
                set_field(record, value)
        except ValueError:
            raise InvariantViolation(
                f"{cls.__name__}._trusted takes {len(cls._setters)} values, got {len(values)}"
            ) from None
        return record

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)

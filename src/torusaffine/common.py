"""What every module shares: the value-class base and the size ceiling.
It imports only ``operator``, so the commands that never touch a rational
point load no ``fractions``."""

from operator import attrgetter

# The most points built or listed: the default oracle grid denominator, the
# longest intersection `intersect` prints, the largest grid `gen` emits, the
# most point-line incidences the collineation search tabulates and the most
# congruence solutions built.  Larger inputs are refused with exit 2.
MAX_POINTS = 1_000_000


class Frozen:
    """An immutable value whose fields are the names in ``__slots__``, a
    subclass's after its bases'.  Instances of one class are equal when
    their fields are, and hash as the tuple of the fields; the repr is
    ``Name(field=value, ...)``.  Fields are set once, in ``__init__``
    (``Frozen.__init__`` takes them by position or name, and a subclass's
    own sets them with ``object.__setattr__``), and pickled as a tuple."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())
        get = attrgetter(*cls._fields)  # a tuple for two or more names
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple(named.pop(f) for f in fields[len(values) :] if f in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setstate__(self, state: tuple):
        Frozen.__init__(self, *state)

"""Exception types, and the immutable record base, shared across the package."""


class Record:
    """Base of the package's immutable value types.

    A subclass names its constructor arguments in ``_fields`` and sets each
    in its own ``__init__`` with ``object.__setattr__``; a slotted subclass
    declares ``__slots__ = _fields``.  The ``repr`` and equality (between
    objects of the same class) cover ``_shown``, all fields unless narrowed,
    and so does the hash.  Any assignment raises AttributeError.  Copies and
    pickles are rebuilt through the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] | None = None

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown or self._fields)

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={value!r}" for name, value in
                          zip(self._shown or self._fields, self._key()))
        return f"{type(self).__qualname__}({items})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class RevPinskerError(ValueError):
    """Base class for all domain errors raised by this package."""


class EmptyVector(RevPinskerError):
    pass


class NegativeWeight(RevPinskerError):
    pass


class SumOutOfTolerance(RevPinskerError):
    pass


class LengthMismatch(RevPinskerError):
    pass


class NotAbsolutelyContinuous(RevPinskerError):
    """P puts mass where Q has none."""


class InvalidAlpha(RevPinskerError):
    pass


class FailsAnchorCheck(RevPinskerError):
    """f(1) != 0 beyond tolerance."""


class FailsConvexitySample(RevPinskerError):
    """Sampled midpoint-convexity check failed."""


class InvalidParams(RevPinskerError):
    pass


class Infeasible(RevPinskerError):
    """No distribution pair realizes the requested (delta, m, M)."""


class UnboundedM(RevPinskerError):
    """Operation requires a finite ratio supremum M."""


class LogDomain(RevPinskerError):
    """Argument of a logarithm is nonpositive."""

"""Physical setup of the trigonometric double-well oscillator on the N-sphere.

A particle of mass `m` lives on the sphere of radius `R` embedded in
(N+1)-dimensional space and feels the latitudinal potential

    V(theta) = 2 m omega1^2 R^2 tan^2(theta/2) + 2 m omega2^2 R^2 cot^2(theta/2).

Each frequency enters the spectrum only through the dimensionless coupling
w_k = 4 m omega_k R^2 / hbar, and every energy is naturally measured in
units of hbar^2 / (2 m R^2).  All downstream code works with (N, w1, w2)
and converts to physical units at the API boundary.
"""

import math

from .errors import DomainError, RangeError, check_int, check_real


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in `__slots__` and sets them once, through `_init`.
    Equality and hashing go by type and field values, and the repr names every field.
    """

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"

    def __reduce__(self):  # pickle and copy rebuild through the constructor, which validates again
        return type(self), self._values()


class OscillatorParams(Record):
    """Sphere dimension, radius, particle mass, hbar, and the two trap frequencies."""

    __slots__ = ("N", "R", "m", "hbar", "omega1", "omega2")

    def __init__(self, N: int, R: float = 1.0, m: float = 1.0, hbar: float = 1.0,
                 omega1: float = 0.0, omega2: float = 0.0):
        self._init(check_int("dimension N", N, 2), R, m, hbar, omega1, omega2)
        for name in ("R", "m", "hbar"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        check_real("omega1", self.omega1, 0.0)
        check_real("omega2", self.omega2, 0.0)
        # Validating the derived scales here means no later R**2 or hbar**2 can overflow.
        try:
            w1, w2, unit = self.w1, self.w2, self.energy_unit
        except (OverflowError, ZeroDivisionError):
            raise RangeError(f"R={self.R!r}, m={self.m!r}, hbar={self.hbar!r} overflow "
                             "the couplings or the energy unit") from None
        check_real("coupling w1", w1)
        check_real("coupling w2", w2)
        check_real("energy unit hbar^2/(2 m R^2)", unit, 0.0, strict=True)

    def coupling(self, k: int) -> float:
        """Dimensionless coupling w_k = 4 m omega_k R^2 / hbar."""
        if k not in (1, 2):
            raise DomainError(f"k must be 1 or 2, got {k!r}")
        omega = self.omega1 if k == 1 else self.omega2
        return 4.0 * self.m * omega * self.R**2 / self.hbar

    @property
    def w1(self) -> float:
        return self.coupling(1)

    @property
    def w2(self) -> float:
        return self.coupling(2)

    @property
    def energy_unit(self) -> float:
        """The natural energy scale hbar^2 / (2 m R^2)."""
        return self.hbar**2 / (2.0 * self.m * self.R**2)

    @classmethod
    def from_couplings(cls, N: int, w1: float = 0.0, w2: float = 0.0,
                       R: float = 1.0, m: float = 1.0, hbar: float = 1.0):
        """Build params from the couplings (0 by default), in natural units by default.

        The params store omega, and `.w1`/`.w2` rebuild w from it.  In natural units
        (R = m = hbar = 1) both steps scale by a power of two, so w comes back exactly for
        w = 0 and every w of at least 4x the smallest normal double; with other R, m, hbar it
        comes back within a few units in the last place, not always exactly.
        """
        check_real("w1", w1, 0.0)
        check_real("w2", w2, 0.0)
        base = cls(N=N, R=R, m=m, hbar=hbar)  # validates R, m, hbar before R**2 is formed
        scale = hbar / (4.0 * m * R**2)
        return cls(base.N, base.R, base.m, base.hbar, w1 * scale, w2 * scale)


class QuantumNumbers(Record):
    """Quasi-radial index n_theta and angular index L labeling one state."""

    __slots__ = ("n_theta", "L")

    def __init__(self, n_theta: int, L: int):
        self._init(check_int("n_theta", n_theta, 0), check_int("L", L))


class EuclideanParams(Record):
    """Flat-space oscillator with an inverse-square (centrifugal-like) admixture chi."""

    __slots__ = ("N", "omega", "chi", "m", "hbar")

    def __init__(self, N: int, omega: float, chi: float, m: float = 1.0, hbar: float = 1.0):
        self._init(check_int("dimension N", N, 2), omega, chi, m, hbar)
        check_real("omega", self.omega, 0.0)
        for name in ("chi", "m", "hbar"):
            check_real(name, getattr(self, name), 0.0, strict=True)


def reduce_L(N: int, L: int) -> int:
    """Angular index actually used by the formulas.

    On the 2-sphere any integer L is allowed and only |L| enters (everything
    depends on L through (L + N/2 - 1)^2 = L^2 there); for N >= 3 negative L
    is rejected.
    """
    if N == 2:
        return abs(L)
    if L < 0:
        raise DomainError(f"L must be >= 0 for N >= 3, got {L}")
    return L


def half_index(N: int, L: int) -> float:
    """The combination L + N/2 - 1 with the N=2 sign convention applied."""
    return reduce_L(N, L) + 0.5 * N - 1.0


def mu(params: OscillatorParams, L: int, k: int) -> float:
    """Effective weight exponent sqrt((L + N/2 - 1)^2 + w_k^2) for trap k."""
    return math.hypot(half_index(params.N, L), params.coupling(k))


def big_lambda(eparams: EuclideanParams, L: int) -> float:
    """Effective flat-space angular quantum number sqrt((L+N/2-1)^2 + chi^2) - 1/2."""
    return math.hypot(half_index(eparams.N, check_int("L", L)), eparams.chi) - 0.5


def finite_radius_params(eparams: EuclideanParams, R: float) -> OscillatorParams:
    """Spherical setup whose large-R limit is the given flat-space oscillator.

    omega1 is kept independent of R while omega2 = hbar * chi / (4 m R^2),
    so the second coupling stays pinned at w2 = chi for every radius, up to rounding: w2 is
    rebuilt from omega2 and can differ from chi in the last place.
    """
    base = OscillatorParams(N=eparams.N, R=R, m=eparams.m, hbar=eparams.hbar,
                            omega1=eparams.omega)  # validates R before R**2 is formed
    omega2 = eparams.hbar * eparams.chi / (4.0 * eparams.m * R**2)
    return OscillatorParams(base.N, base.R, base.m, base.hbar, base.omega1, omega2)

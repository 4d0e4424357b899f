"""Closed-form test functions with exact gradients.

These are the functions a distribution is paired against.  Anything with a
``value`` and ``gradient`` broadcast like :func:`~tranship.geom.dists` works:
for points ``(..., dim)`` they return ``(...)`` and ``(..., dim)``.  The
classes here are the built-in C^1 kinds; their powers use ``np.float_power``
(C ``pow``, as Python's ``**`` on a float; an array ``x ** e`` rounds
differently on some inputs).  Polynomials additionally expose ``degree`` so
quadrature routines can flag exactness violations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import ValidationError
from .geom import as_point

__all__ = ["TestFunction", "Coordinate", "Polynomial", "RadialBump", "polynomial_family"]


@runtime_checkable
class TestFunction(Protocol):
    """A function of points along the last axis, broadcast over the leading
    axes: ``value`` returns ``points.shape[:-1]``, ``gradient``
    ``points.shape``; powers go through ``np.float_power``."""

    def value(self, points) -> np.ndarray: ...

    def gradient(self, points) -> np.ndarray: ...


@dataclass(frozen=True)
class Coordinate:
    """The i-th coordinate function x -> x_i."""

    axis: int
    dim: int = 2

    degree = 1

    def value(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float)[..., self.axis]

    def gradient(self, points) -> np.ndarray:
        g = np.zeros(np.shape(points))
        g[..., self.axis] = 1.0
        return g

    def __str__(self):
        return f"x[{self.axis}]"


@dataclass(frozen=True)
class Polynomial:
    """Multivariate polynomial given by {multi-index exponent: coefficient}."""

    coeffs: dict
    dim: int

    def __post_init__(self):
        clean = {}
        for exps, c in self.coeffs.items():
            e = tuple(int(k) for k in exps)
            if len(e) != self.dim or any(k < 0 for k in e):
                raise ValidationError(f"bad monomial exponent {exps!r} for dim {self.dim}")
            if c != 0.0:
                clean[e] = float(c)
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    @staticmethod
    def _sum(x, monomials) -> np.ndarray:
        """sum of c * prod_k x_k^e_k over (c, e) in `monomials`, in order."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape[:-1])
        for c, exps in monomials:
            term = c
            for k, e in enumerate(exps):
                if e:
                    term = term * np.float_power(x[..., k], e)
            total = total + term
        return total

    def value(self, points) -> np.ndarray:
        return self._sum(points, ((c, e) for e, c in self.coeffs.items()))

    def gradient(self, points) -> np.ndarray:
        return np.stack([self._sum(points, self._derivative(k)) for k in range(self.dim)], axis=-1)

    def _derivative(self, k):
        """The (coefficient, exponents) monomials of d/dx_k, in order."""
        for e, c in self.coeffs.items():
            if e[k]:
                yield c * e[k], e[:k] + (e[k] - 1,) + e[k + 1:]

    def __str__(self):
        terms = sorted(self.coeffs.items())
        return " + ".join(f"{c}*x^{e}" for e, c in terms) or "0"


@dataclass(frozen=True)
class RadialBump:
    """Compactly supported C^2 bump a*(1 - (r/R)^2)^3 around a center."""

    center: np.ndarray
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not self.radius > 0:
            raise ValidationError("bump radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def _offsets(self, points):
        d = np.asarray(points, dtype=float) - self.center
        return d, np.vecdot(d, d) / self.radius**2

    def value(self, points) -> np.ndarray:
        _d, s2 = self._offsets(points)
        return np.where(s2 >= 1.0, 0.0, self.amplitude * np.float_power(1.0 - s2, 3))

    def gradient(self, points) -> np.ndarray:
        d, s2 = self._offsets(points)
        slope = (-6.0 * self.amplitude / self.radius**2) * np.float_power(1.0 - s2, 2)
        return np.where((s2 >= 1.0)[..., None], 0.0, slope[..., None] * d)

    def __str__(self):
        return f"bump({self.center.tolist()}, R={self.radius})"


def polynomial_family(dim: int, max_degree: int = 3) -> tuple:
    """All monomials of total degree <= max_degree, in graded lexicographic order.

    The constant monomial is included: it pairs to the total mass of the
    measure part, so it detects imbalance.
    """
    funcs = []
    for total in range(max_degree + 1):
        for exps in itertools.product(range(total + 1), repeat=dim):
            if sum(exps) == total:
                funcs.append(Polynomial({exps: 1.0}, dim))
    return tuple(funcs)

"""Composite Gauss-Legendre quadrature for smooth complex integrands.

The height integral of the emission spectrum is integrated with one rule: a
20-node Gauss-Legendre formula on equal panels (Davis & Rabinowitz, *Methods
of Numerical Integration*, ch. 2).  The caller picks the largest panel width
the integrand allows, from its own scales (the distance of the nearest pole
from the path, the oscillation period); :func:`panel_count` turns that into a
number of panels P, and :func:`gauss_legendre` integrates on P and on 2P
panels and returns the finer sum with their difference as the error estimate.
Callers decide what tolerance failure means.

``kernel_area`` still calls QUADPACK through the ``integrate`` binding below.
``scipy.integrate`` is loaded on that first call, not on import: loading it
takes about 0.5 s, longer than a closed-form scenario runs without it, and
only ``delta-limit`` needs it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = ["panel_count", "gauss_legendre"]

_ORDER = 20

# P panels are integrated with 2P more for the error estimate, 60 P integrand
# values in all: at the cap that is about 1.2e5 values and a few MB of arrays,
# a few ms per integral
MAX_PANELS = 2048


class _LazyIntegrate:
    """Stands in for ``scipy.integrate``, which it imports on first attribute access.

    A plain object rather than ``importlib.util.LazyLoader``: the import runs
    under the ordinary per-module import lock, so a second thread's first
    touch waits for the first thread's import and never sees a half-loaded
    module.
    """

    def __getattr__(self, name: str):
        from scipy import integrate

        return getattr(integrate, name)


# the one binding through which the package reaches QUADPACK
integrate = _LazyIntegrate()


@functools.cache
def _nodes_weights() -> tuple[np.ndarray, np.ndarray]:
    # loaded on first use: numpy.polynomial costs a few ms to import
    from numpy.polynomial.legendre import leggauss

    return leggauss(_ORDER)


def panel_count(length: float, max_width: float) -> int:
    """Fewest equal panels no wider than max_width over a path of this length.

    Raises QuadratureError, before anything is evaluated, when that is more
    than MAX_PANELS (or not finite).
    """
    ratio = length / max_width if max_width > 0.0 else math.inf
    if not ratio <= MAX_PANELS:  # also catches inf and NaN
        raise QuadratureError(
            f"quadrature needs {ratio:.4g} panels of width <= {max_width!r} over length "
            f"{length!r}, more than the cap of {MAX_PANELS}"
        )
    return max(1, math.ceil(ratio))


def _panel_sum(f: Callable, lo: float, hi: float, panels: int) -> complex:
    x, w = _nodes_weights()
    half = 0.5 * (hi - lo) / panels
    mids = lo + half * (2.0 * np.arange(panels) + 1.0)
    values = f(mids[:, None] + half * x)
    # np.sum, not a BLAS product: its pairwise order does not depend on the BLAS build
    return complex(half * np.sum(values * w))


def gauss_legendre(f: Callable, lo: float, hi: float, panels: int) -> tuple[complex, float, int]:
    """Integral of a vectorized complex f over [lo, hi] on 2 x panels equal panels.

    Returns (value, error estimate, integrand evaluations); the error estimate
    is the value's distance from the same rule on ``panels`` panels.
    """
    coarse = _panel_sum(f, lo, hi, panels)
    fine = _panel_sum(f, lo, hi, 2 * panels)
    return fine, abs(fine - coarse), 3 * panels * _ORDER

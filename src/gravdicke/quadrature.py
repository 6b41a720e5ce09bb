"""Composite Gauss-Legendre quadrature for smooth complex integrands.

The height integral of the emission spectrum and the area of the emission
kernel are integrated with one rule: a 20-node Gauss-Legendre formula on
equal panels (Davis & Rabinowitz, *Methods of Numerical Integration*, ch. 2).
The caller picks the largest panel width the integrand allows, from its own
scales (a decay length, the distance of the nearest pole from the path, the
oscillation period); :func:`panel_count` turns that into a number of panels
P, and :func:`gauss_legendre` integrates on P and on 2P panels and returns the
finer sum with their difference as the error estimate.  Callers decide what
tolerance failure means.  No scenario calls QUADPACK or loads
``scipy.integrate``.
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


# no package code reads it: a plain attribute, for bench/tracer.py to rebind
# until the benchmark counts the panel rule's evaluations
integrate = None


@functools.cache
def _nodes_weights() -> tuple[np.ndarray, np.ndarray]:
    """The _ORDER-point rule's nodes in increasing order, and their weights.

    numpy's Legendre module gives an exactly symmetric rule, leggauss(20), so
    its positive half, tabulated to the last bit, mirrors into the whole, and
    no run spends the 5-7 ms that importing that module takes.
    """
    half = np.array([  # (node, weight), node increasing
        (0.07652652113349734, 0.15275338713072628),
        (0.22778585114164507, 0.14917298647260424),
        (0.37370608871541955, 0.1420961093183824),
        (0.5108670019508271, 0.1316886384491769),
        (0.636053680726515, 0.1181945319615186),
        (0.7463319064601508, 0.1019301198172407),
        (0.8391169718222188, 0.08327674157670471),
        (0.912234428251326, 0.06267204833410879),
        (0.9639719272779138, 0.040601429800386446),
        (0.993128599185095, 0.017614007139150893),
    ])
    return (np.concatenate((-half[::-1, 0], half[:, 0])),
            np.concatenate((half[::-1, 1], half[:, 1])))


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
    """Integral of a vectorized complex f from lo to hi on 2 x panels equal panels.

    The nodes are placed by steps from lo, so they round relative to lo; lo > hi
    integrates in the reverse direction.

    Returns (value, error estimate, integrand evaluations); the error estimate
    is the value's distance from the same rule on ``panels`` panels.
    """
    coarse = _panel_sum(f, lo, hi, panels)
    fine = _panel_sum(f, lo, hi, 2 * panels)
    return fine, abs(fine - coarse), 3 * panels * _ORDER

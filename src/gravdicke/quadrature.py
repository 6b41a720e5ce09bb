"""Adaptive quadrature helpers for complex integrands.

Thin wrappers around QUADPACK: complex-valued integrands are split into real
and imaginary parts, and Fourier-type integrals use the oscillatory (QAWO)
weights so the subdivision does not have to resolve every oscillation.
Each helper returns (value, error_estimate); callers decide what tolerance
failure means.

``scipy.integrate`` is loaded on the first quadrature call, not on import:
loading it takes about 0.5 s, longer than a closed-form scenario runs without
it, and only ``curved-spectrum`` and ``delta-limit`` integrate.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["complex_quad", "fourier_complex_quad"]


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


def complex_quad(f: Callable, lo: float, hi: float, *, epsabs: float = 1e-12,
                 limit: int = 200, weight: str | None = None,
                 wvar: float | None = None) -> tuple[complex, float]:
    """Integral of a complex f over [lo, hi] (either end may be infinite).

    ``weight``/``wvar`` are passed to QUADPACK unchanged, so the integral is of
    f times that weight function.
    """
    re, re_err = integrate.quad(lambda z: f(z).real, lo, hi, epsabs=epsabs, epsrel=1e-12,
                                limit=limit, weight=weight, wvar=wvar)
    im, im_err = integrate.quad(lambda z: f(z).imag, lo, hi, epsabs=epsabs, epsrel=1e-12,
                                limit=limit, weight=weight, wvar=wvar)
    return complex(re, im), re_err + im_err


def fourier_complex_quad(f: Callable, q: float, lo: float, hi: float, *,
                         epsabs: float = 1e-12, limit: int = 400) -> tuple[complex, float]:
    """Integral of f(z) e^{i q z} over [lo, hi] with oscillatory weights.

    f may be complex-valued; q = 0 falls back to plain adaptive quadrature
    (QUADPACK rejects a zero oscillation frequency).
    """
    if q == 0.0:
        return complex_quad(f, lo, hi, epsabs=epsabs, limit=limit)
    cos_part, cos_err = complex_quad(f, lo, hi, epsabs=epsabs, limit=limit, weight="cos", wvar=q)
    sin_part, sin_err = complex_quad(f, lo, hi, epsabs=epsabs, limit=limit, weight="sin", wvar=q)
    return cos_part + 1j * sin_part, cos_err + sin_err

"""Independent numerical oracles used by the test suite.

Everything here is deliberately written from the governing equations rather
than from the library's closed forms, so that agreement between the two is a
meaningful check and not a tautology.
"""

import math

import numpy as np


def volterra_flat_band(gamma: float, t_max: float, n_steps: int, bandwidth: float):
    """Excited-state amplitude from the memory-kernel equation with a flat reservoir.

        c'(t) = - int_0^t K(t - s) c(s) ds,
        K(tau) = (gamma / pi) sin(W tau) / tau

    which is the kernel of a reservoir with constant coupling density
    gamma / (2 pi) over a band of half-width W around resonance.  Trapezoidal
    product integration with an implicit (linear) step; second order in dt.
    The residual deviation from the collapsed-kernel decay scales like
    gamma / W, so the bandwidth controls the physical agreement and dt only
    the discretization.
    """
    dt = t_max / n_steps
    tau = np.arange(n_steps + 1) * dt
    kern = np.empty(n_steps + 1)
    kern[0] = gamma * bandwidth / np.pi
    kern[1:] = gamma * np.sin(bandwidth * tau[1:]) / (np.pi * tau[1:])

    c = np.empty(n_steps + 1)
    c[0] = 1.0
    conv = np.zeros(n_steps + 1)  # trapezoid convolution int_0^{t_n} K(t_n - s) c(s) ds
    for n in range(1, n_steps + 1):
        partial = 0.5 * kern[n] * c[0]
        if n > 1:
            partial += np.dot(kern[n - 1:0:-1], c[1:n])
        known = dt * partial
        rhs = c[n - 1] - 0.5 * dt * (conv[n - 1] + known)
        c[n] = rhs / (1.0 + 0.25 * dt**2 * kern[0])
        conv[n] = known + 0.5 * dt * kern[0] * c[n]
    return tau, c


def component_polarization_H(mode, z: float, k_local, f) -> np.ndarray:
    """Magnetic polarization from the three literal component formulas.

    Built directly from the local wavevector ``k_local`` = (omega, k_x, k_y, k_z)
    and the corrected electric polarization ``f`` at height z, which the caller
    passes in, component by component, with wavelength-proportional
    (post-geometrical) factors set to zero.  Independent transcription used to
    cross-check the vector-form construction.
    """
    a = mode.metric.a
    kt = np.asarray(k_local)[1:]
    knorm = mode.index.knorm
    scale = (1.0 + a * z) / knorm
    p1 = -(kt[1] * f[2] - kt[2] * f[1]) * scale
    p2 = -(-kt[0] * f[2] + kt[2] * f[0]) * scale
    p3 = -(-kt[1] * f[0] + kt[0] * f[1]) * scale
    return np.array([p1, p2, p3])


def component_perturbations(mode, z: float):
    """Literal first-order component corrections (M1, M2, M3), constants included.

    Independent transcription of the closed-form solutions of the three
    perturbation equations, used to cross-check ``mode_field_first_order``:
    shared real part = amplitude correction, shared imaginary part = quadratic
    phase correction, plus the polarization-mixing ratio on the transverse
    components and the divergence-fixing constant on the vertical one.
    """
    kx, ky, kz = mode.k
    f0 = mode.f0
    ktsq = kx * kx + ky * ky
    shared = z * ktsq / (4.0 * kz**2) + 1j * z**2 * (ktsq + 2.0 * kz**2) / (4.0 * kz)
    c3 = -1j * ktsq / (4.0 * kz**3)
    m3 = shared + c3
    m1 = shared + (kx / (2.0 * kz)) * z * f0[2] / f0[0] if f0[0] != 0.0 else None
    m2 = shared + (ky / (2.0 * kz)) * z * f0[2] / f0[1] if f0[1] != 0.0 else None
    return m1, m2, m3


def lorentzian_mode_weight(detuning: np.ndarray, gamma: float) -> np.ndarray:
    """|1 / (detuning + i gamma/2)|^2, the single-mode emission line shape."""
    return 1.0 / (detuning**2 + 0.25 * gamma**2)


def quadpack_height_integral(params, k_z: float, z_range, *, dispersion: str, tails: str,
                             include_volume_weight: bool) -> complex:
    """The emission height integral by QUADPACK, written from the integral itself.

        int dz e^{i q z} w(z) / [(omega - nu + i Gamma/2) - (a/2) omega z],

    q = k0z - k_z, z the height above the box centre, where the metric is flat,
    and w = 1 - a z / 2 with the volume weight and 1 without.
    The window is integrated with the oscillatory (QAWO) weights cos and sin.
    With tails="rotated" the path beyond each end of the window turns into the
    half-plane where e^{i q z} decays and runs to infinity along a vertical
    line; at q = 0 the tails are the integral's own antiderivative, a log pair.
    An independent route to the library's Gauss-Legendre panels.
    """
    from scipy import integrate

    nu, gamma, a = params.nu, params.gamma, params.metric.a
    kx, ky, k0z = params.k0
    omega = nu if dispersion == "resonant" else params.constants.c * math.sqrt(
        kx * kx + ky * ky + k_z * k_z)
    q = k0z - k_z

    def f(z):
        weight = 1.0 - 0.5 * a * z if include_volume_weight else 1.0
        return weight / ((omega - nu + 0.5j * gamma) - 0.5 * a * omega * z)

    # absolute tolerance: 1e-13 of the integral's natural scale 2 pi / ((a/2) omega)
    epsabs = 1e-13 * 4.0 * math.pi / (a * omega)

    def quad(g, lo, hi, **kw):
        re = integrate.quad(lambda z: g(z).real, lo, hi, epsabs=epsabs, epsrel=1e-12,
                            limit=400, **kw)[0]
        im = integrate.quad(lambda z: g(z).imag, lo, hi, epsabs=epsabs, epsrel=1e-12,
                            limit=400, **kw)[0]
        return complex(re, im)

    z_lo, z_hi = z_range
    if q == 0.0:
        total = quad(f, z_lo, z_hi)
    else:
        total = (quad(f, z_lo, z_hi, weight="cos", wvar=q)
                 + 1j * quad(f, z_lo, z_hi, weight="sin", wvar=q))
    if tails == "none":
        return total
    if q == 0.0:
        # int_{-inf}^{z_lo} + int_{z_hi}^{inf} of 1 / (c - b z), principal logs
        c, b = omega - nu + 0.5j * gamma, 0.5 * a * omega
        return total - (1j * math.pi + np.log(c - b * z_lo) - np.log(c - b * z_hi)) / b
    up = 1j if q > 0.0 else -1j

    def vertical(tau):
        zr, zl = z_hi + up * tau, z_lo + up * tau
        return up * (np.exp(1j * q * zr) * f(zr) - np.exp(1j * q * zl) * f(zl))

    return total + quad(vertical, 0.0, np.inf)


def quadpack_kernel_area(params) -> complex:
    """Area of the emission kernel by QUADPACK, written from the kernel itself.

        int_{-inf}^{k0z} dk_z (-i / (a nu)) exp(-(k0z - k_z) Gamma / (a nu)),

    truncated 300 decay lengths a nu / Gamma below k0z, where the rest is
    e^-300 of the area.  The integrand is purely imaginary, so only its
    imaginary part is integrated.  An independent route to the library's
    Gauss-Legendre panels.
    """
    from scipy import integrate

    scale = params.metric.a * params.nu
    k0z = params.k0[2]
    value, _ = integrate.quad(lambda kz: -math.exp(-(k0z - kz) * params.gamma / scale) / scale,
                              k0z - 300.0 * scale / params.gamma, k0z,
                              epsabs=1e-12 / params.gamma, epsrel=1e-13, limit=300)
    return complex(0.0, value)

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import oracles
from batch_sums import one_batch_sum
from gravdicke import spectrum
from gravdicke.cli import _offset_grid
from gravdicke.emission import Box, Ensemble, curved_timed_dicke, sample_ensemble
from gravdicke.errors import LinearizationError, PhysicsDomainError, QuadratureError
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.quadrature import MAX_PANELS, _nodes_weights, gauss_legendre, panel_count
from gravdicke.spectrum import (
    SpectrumParams,
    flat_delta_limit,
    frequency_spread,
    frequency_spread_over_gamma,
    g_kernel,
    kernel_area,
    kernel_decay_constant,
    mean_stderr,
    monte_carlo_spectrum,
    quadrature_spectrum,
    replicated_mc_spectrum,
    structure_factor,
    structure_factor_expectation,
    wavevector_spread,
    z_integral_oracle,
)

try:
    import resource
except ImportError:  # Windows
    resource = None

CST = PhysicalConstants.scaled()


def make_params(a=1e-3, nu=1.0, gamma=1e-2, theta0=math.pi / 6):
    return SpectrumParams(
        nu=nu, gamma=gamma, metric=WeakFieldMetric(a=a), theta0=theta0, constants=CST,
    )


def decay_length(params):
    return params.gamma / (params.metric.a * params.nu)


class TestParams:
    def test_resonance_enforced(self):
        # the absorbed photon is resonant by construction: |k0| = nu / c at any angle
        for theta0 in (0.0, 0.3, math.pi / 2, 2.0, -4.0):
            p = make_params(nu=2.5, theta0=theta0)
            assert math.hypot(*p.k0) == pytest.approx(2.5 / CST.c, rel=1e-15)
        # and the weak-coupling guard on the line: 0.5 nu is not weakly coupled, and
        # no gamma is below a line at nu <= 0
        for nu, gamma in ((1.0, -1.0), (1.0, 0.0), (1.0, 0.5), (1.0, float("nan")),
                          (0.0, 1e-2), (-1.0, 1e-2)):
            with pytest.raises(PhysicsDomainError):
                make_params(nu=nu, gamma=gamma)

    def test_constants_are_required(self):
        # no unit regime is implied: left out, the constants are a TypeError
        with pytest.raises(TypeError):
            SpectrumParams(1.0, 1e-2, WeakFieldMetric(a=1e-3), 0.0)
        p = SpectrumParams(1.0, 1e-2, WeakFieldMetric(a=1e-3), 0.0, CST)
        assert p.constants == PhysicalConstants.scaled()

    def test_from_angles_geometry(self):
        p = make_params(theta0=math.pi / 3)
        assert np.linalg.norm(p.k0) == pytest.approx(p.nu / CST.c)
        assert p.cos_theta0 == pytest.approx(0.5)
        assert p.theta0 == math.pi / 3
        # k0 lies in the x-z plane: no route depends on its azimuth
        assert p.k0[1] == 0.0 and p.k0[0] > 0.0
        assert p.k0z == p.k0[2] == (p.nu / CST.c) * math.cos(math.pi / 3)
        # the angle given is kept as given, also outside [0, pi]
        assert make_params(theta0=-math.pi / 6).theta0 == -math.pi / 6

    def test_tiny_k0_keeps_its_angle(self):
        # |k0| = 1e-200: squaring its components underflows, math.hypot does not
        p = make_params(nu=1e-200, gamma=1e-202, theta0=math.pi / 3)
        assert p.cos_theta0 == pytest.approx(0.5, rel=1e-12)

    def test_directional_guard(self):
        p = make_params(theta0=math.pi / 2)  # construction is fine
        with pytest.raises(PhysicsDomainError):
            p.require_directional()
        with pytest.raises(PhysicsDomainError):
            g_kernel(0.0, p)


class TestKernel:
    def test_one_sided(self):
        p = make_params()
        q_above = -np.array([1e-9, 0.1, 2.0])  # k_z above k0z
        np.testing.assert_array_equal(g_kernel(q_above, p), np.zeros(3, dtype=complex))

    def test_peak_value_and_step_convention(self):
        p = make_params()
        assert g_kernel(0.0, p) == -1j / (p.metric.a * p.nu)
        assert g_kernel(-0.0, p) == g_kernel(0.0, p)

    def test_decay_profile(self):
        p = make_params()
        q = 0.7
        expected = (-1j / (p.metric.a * p.nu)) * math.exp(-q * p.gamma / (p.metric.a * p.nu))
        assert g_kernel(q, p) == pytest.approx(expected)

    def test_flat_space_raises(self):
        with pytest.raises(PhysicsDomainError):
            g_kernel(0.5, make_params(a=0.0))

    @pytest.mark.parametrize("a", [1e-4, 1e-3, 1e-2])
    def test_area_invariance(self, a):
        p = make_params(a=a)
        area, _, _ = kernel_area(p, tol=1e-12)
        assert abs(area - (-1j / p.gamma)) <= 1e-10 * abs(1.0 / p.gamma)

    @pytest.mark.parametrize("a", [1e-4, 1e-3, 1e-2])
    def test_area_matches_quadpack(self, a):
        p = make_params(a=a)
        assert abs(kernel_area(p)[0] - oracles.quadpack_kernel_area(p)) <= 1e-12 / p.gamma

    def test_area_records_error_and_work(self):
        _, ratio, evals = kernel_area(make_params())
        assert 0.0 <= ratio < 1.0
        assert evals == 3 * 150 * 20  # 150 panels of two decay lengths, then 300

    def test_zero_area_tolerance_raises(self):
        with pytest.raises(QuadratureError, match="kernel area"):
            kernel_area(make_params(), tol=0.0)


class TestSpreads:
    def test_quoted_spread_scaled_values(self):
        p = make_params(a=1e-3, nu=1.0, gamma=1e-2, theta0=0.0)
        assert wavevector_spread(p) == pytest.approx(0.1)
        assert kernel_decay_constant(p) == pytest.approx(0.1)

    def test_horizontal_limit_is_zero(self):
        p = make_params(theta0=math.pi / 2)
        assert wavevector_spread(p) == pytest.approx(0.0, abs=1e-16)
        assert frequency_spread(p) == pytest.approx(0.0, abs=1e-16)
        # the kernel's own decay constant carries no angle factor
        assert kernel_decay_constant(p) == pytest.approx(0.1)

    def test_flat_space_zero(self):
        p = make_params(a=0.0)
        assert wavevector_spread(p) == 0.0
        assert frequency_spread(p) == 0.0

    def test_earth_frequency_spread(self):
        si = PhysicalConstants()
        p = SpectrumParams(
            nu=1e15, gamma=1e8, metric=WeakFieldMetric(a=2e-16), theta0=0.0,
            constants=si,
        )
        assert frequency_spread(p) == pytest.approx(0.5996, rel=1e-3)

    def test_frequency_spread_over_gamma(self):
        assert frequency_spread_over_gamma(make_params()) == pytest.approx(5.0 * math.sqrt(3.0))
        # 8.66e-3 / gamma^2 is past the largest float at gamma = 1e-156
        assert frequency_spread_over_gamma(make_params(gamma=1e-156)) is None


class TestHeightIntegralOracle:
    def test_matches_kernel_shape(self):
        p = make_params()
        ell = decay_length(p)
        zr = (-50.0 * ell, 50.0 * ell)
        q_folds = np.arange(0.1, 7.0, 0.34)
        q = q_folds * kernel_decay_constant(p)
        oracle = np.abs([z_integral_oracle(p.k0z - dq, p, zr)[0] for dq in q])
        kernel = np.abs(g_kernel(q, p))
        ratio = (oracle / oracle.max()) / (kernel / kernel.max())
        np.testing.assert_allclose(ratio, 1.0, rtol=1e-6)

    @pytest.mark.parametrize("a", [1e-4, 1e-3, 1e-2])
    def test_matches_kernel_as_complex_amplitude(self, a):
        # criterion 4's grid and window, phase included: each side over its peak |value|,
        # so the closed form's -i and the integral's 4 pi (-i) / (a nu) agree point by point
        p = make_params(a=a)
        ell = decay_length(p)
        dec = kernel_decay_constant(p)
        q = np.arange(0.1, 6.95, 0.2) * dec
        oracle = np.array([z_integral_oracle(p.k0z - dq, p, (-50.0 * ell, 50.0 * ell))[0]
                           for dq in q])
        kernel = g_kernel(q, p)
        on = oracle / np.max(np.abs(oracle))
        kn = kernel / np.max(np.abs(kernel))
        assert np.max(np.abs(on - kn) / np.abs(kn)) <= 1e-9

    def test_one_sidedness(self):
        p = make_params()
        ell = decay_length(p)
        zr = (-50.0 * ell, 50.0 * ell)
        width = kernel_decay_constant(p)
        peak = abs(z_integral_oracle(p.k0z - 0.1 * width, p, zr)[0])
        off = abs(z_integral_oracle(p.k0z + 5.0 * width, p, zr)[0])
        assert off <= 1e-2 * peak

    def test_window_doubling_invariance(self):
        # rotated tails evaluate the infinite integral: window choice is immaterial
        p = make_params()
        ell = decay_length(p)
        kz = p.k0z - 2.0 * p.metric.a * p.nu / p.gamma
        v1, _, _ = z_integral_oracle(kz, p, (-30.0 * ell, 30.0 * ell))
        v2, _, _ = z_integral_oracle(kz, p, (-60.0 * ell, 60.0 * ell))
        assert v1 == pytest.approx(v2, rel=1e-8)

    def test_small_gradient_fixed_window_gives_window_sinc(self):
        # as a -> 0 at fixed window the slab's denominator and volume weight
        # freeze and the integral becomes the window Fourier factor 2 sin(q W) / (q D0),
        # with D0 = (omega - nu) + i Gamma/2 at the exact dispersion omega = c |k|
        p = make_params(a=1e-9)
        w = 20.0
        q = 0.21
        kz = p.k0z - q
        val, _, _ = z_integral_oracle(kz, p, (-w, w), model="slab")
        omega = CST.c * math.hypot(p.k0[0], p.k0[1], kz)
        d0 = (omega - p.nu) + 0.5j * p.gamma
        expected = 2.0 * math.sin(q * w) / (q * d0)
        assert val == pytest.approx(expected, rel=1e-4)

    def test_upward_rotation_requires_pole_in_window(self):
        p = make_params()
        # the kernel's resonance pole sits at height 0, outside the window
        kz = p.k0z - 5.0 * kernel_decay_constant(p)
        with pytest.raises(QuadratureError, match="contain the resonance pole"):
            z_integral_oracle(kz, p, (1.0, 20.0), model="kernel")

    def test_invalid_arguments(self):
        p = make_params()
        with pytest.raises(PhysicsDomainError):
            z_integral_oracle(0.5, p, (1.0, -1.0))
        with pytest.raises(PhysicsDomainError, match="unknown height-integral model"):
            z_integral_oracle(0.5, p, (-1.0, 1.0), model="nope")
        with pytest.raises(PhysicsDomainError):
            z_integral_oracle(0.5, make_params(a=0.0), (-1.0, 1.0))


# each model of z_integral_oracle as the QUADPACK oracle's own knobs
_QUADPACK_KNOBS = {
    "kernel": dict(dispersion="resonant", tails="rotated", include_volume_weight=False),
    "slab": dict(dispersion="exact", tails="none", include_volume_weight=True),
}


def _quadpack_cases():
    """(params, kz grid, z window, model) of the grids the panel rule must reproduce."""
    p = make_params(a=1e-3)
    ell = decay_length(p)
    decay = kernel_decay_constant(p)
    offsets = np.arange(-8.0, 3.01, 0.25)
    # the small-a, tall-box corner: 150 decay lengths at a = 1e-4, |a z| up to 0.75
    corner = make_params(a=1e-4)
    corner_height = 150.0 * decay_length(corner)
    return {
        "criterion-4": (p, np.sort(p.k0z - np.arange(0.1, 6.95, 0.2) * decay),
                        (-50.0 * ell, 50.0 * ell), "kernel"),
        "criterion-5": (p, p.k0z + offsets * decay, (-40.0 * ell, 40.0 * ell), "slab"),
        "small-a-tall-box": (corner, corner.k0z + offsets * kernel_decay_constant(corner),
                             (-0.5 * corner_height, 0.5 * corner_height), "slab"),
        "q-zero": (p, np.array([p.k0z]), (-50.0 * ell, 50.0 * ell), "kernel"),
    }


class TestPanelRule:
    @pytest.mark.parametrize("case", list(_quadpack_cases()))
    def test_matches_quadpack(self, case):
        params, kz, z_range, model = _quadpack_cases()[case]
        panels = np.array([z_integral_oracle(k, params, z_range, 1e-9, model=model)[0]
                           for k in kz])
        quadpack = np.array([oracles.quadpack_height_integral(params, k, z_range,
                                                              **_QUADPACK_KNOBS[model])
                             for k in kz])
        peak = np.max(np.abs(quadpack))
        assert np.max(np.abs(panels - quadpack)) <= 1e-10 * peak

    def test_oscillatory_and_polynomial_integrals(self):
        value, err, evals = gauss_legendre(lambda z: np.exp(1j * z), 0.0, math.pi, 3)
        assert value == pytest.approx(2j, abs=1e-14)
        assert err <= 1e-14 and evals == 3 * 3 * 20
        # degree 39 is exact on a single 20-node panel
        value, _, _ = gauss_legendre(lambda z: 40.0 * z**39 + 0j, 0.0, 1.0, 1)
        assert value == pytest.approx(1.0, rel=1e-14)

    def test_node_table_is_leggauss_bit_for_bit(self):
        nodes, weights = _nodes_weights()
        ref_nodes, ref_weights = leggauss(20)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()

    def test_panel_count(self):
        assert panel_count(1.0, 2.0) == 1
        assert panel_count(10.0, 3.0) == 4
        assert panel_count(1.0, 1.0 / MAX_PANELS) == MAX_PANELS

    @pytest.mark.parametrize("width", [1.0 / (MAX_PANELS + 1), 0.0, float("nan")])
    def test_panel_cap_names_the_count(self, width):
        with pytest.raises(QuadratureError, match=f"panels .* cap of {MAX_PANELS}"):
            panel_count(1.0, width)

    def test_quadrature_spectrum_records_error_and_work(self):
        p = make_params()
        ell = decay_length(p)
        kz = p.k0z + kernel_decay_constant(p) * np.array([-2.0, 0.0, 1.0])
        _, ratio, evals = quadrature_spectrum(kz, p, (-40.0 * ell, 40.0 * ell))
        assert 0.0 < ratio <= 1.0
        assert evals > 0 and evals % 60 == 0


class TestMonteCarlo:
    def setup_method(self):
        self.params = make_params()
        ell = decay_length(self.params)
        height = 60.0 * ell
        self.box = Box(height)
        self.kz = self.params.k0z + kernel_decay_constant(self.params) * np.arange(-6.0, 2.01, 0.4)

    def test_flat_coherent_peak(self):
        p = make_params(a=1e-12)  # effectively flat but kernel-safe
        ens = sample_ensemble(400, self.box, 21)
        amps = one_batch_sum(ens, np.array([p.k0z]), p)
        # all phasors align at k = k0: |amp| = sqrt(N) / |i G / 2|
        expected = math.sqrt(ens.n) / (0.5 * p.gamma)
        assert abs(amps[0]) == pytest.approx(expected, rel=1e-9)

    def test_translation_invariance_in_xy(self):
        p = self.params
        ens = sample_ensemble(500, self.box, 23)
        amps = one_batch_sum(ens, self.kz, p)
        shifted_pos = ens.positions + np.array([3.7, -1.2, 0.0])
        big = Box(50 * self.box.edge)
        ens2 = Ensemble(shifted_pos, big)
        amps2 = one_batch_sum(ens2, self.kz, p)
        # the lateral phases cancel atom by atom, so the route never forms them
        np.testing.assert_array_equal(amps2, amps)

    def test_volume_weights(self):
        # one atom per sum, in its timed Dicke state c: over c e^{-i k_z z} / D(z), its
        # sum is its weight sqrt(1 - a z), the curved volume element
        p = self.params
        for z in (-0.25 / p.metric.a, -1.0, 0.0, 2.5, 0.25 / p.metric.a):
            ens = Ensemble([[0.0, 0.0, z]], self.box)
            got = one_batch_sum(ens, self.kz, p)
            omega = p.constants.c * np.sqrt(p.k0[0] ** 2 + p.k0[1] ** 2 + self.kz**2)
            den = omega - p.nu + 0.5j * p.gamma - 0.5 * p.metric.a * omega * z
            unweighted = curved_timed_dicke(ens, p.k0z)[0] * np.exp(-1j * self.kz * z) / den
            np.testing.assert_allclose(got / unweighted, math.sqrt(1.0 - p.metric.a * z),
                                       rtol=1e-12)

    def test_rejects_heights_outside_linear_domain(self):
        # the replicas guard the heights their sums weight: |a z| < 1 on the faces of
        # the box every atom is drawn in
        box = Box(10.0)
        with pytest.raises(LinearizationError):
            replicated_mc_spectrum(make_params(a=1.01 / box.high), self.kz, 100, box, 2, 19)
        replicated_mc_spectrum(make_params(a=0.99 / box.high), self.kz, 100, box, 2, 19)

    def test_flat_space_sum_is_unweighted(self):
        # at a = 0 the sum forms weights of exactly 1, and matches the brute force, whose
        # weights are then 1 too
        p = make_params(a=0.0)
        ens = sample_ensemble(1600, self.box, 27)
        got = one_batch_sum(ens, self.kz, p)
        amps = brute_force_atom_sum(ens, self.kz, p)
        assert np.max(np.abs(got - amps)) <= 1e-12 * np.max(np.abs(amps))

    def test_mismatch_rejected(self):
        # a grid of another shape than one k_z per point, checked at the replicas' entry
        with pytest.raises(PhysicsDomainError, match="kz grid must be a nonempty 1-D array"):
            replicated_mc_spectrum(self.params, self.kz[None, :], 50, self.box, 2, 25)

    @pytest.mark.parametrize("grid", [[], [float("nan")], [1.0, float("inf")]])
    def test_bad_grid_rejected_by_name(self, grid):
        # an empty grid, or one holding a NaN or an inf, is rejected at the replicas'
        # entry, before any cell is sized from it
        with pytest.raises(PhysicsDomainError, match="kz grid must be a nonempty 1-D array"):
            replicated_mc_spectrum(self.params, np.array(grid), 50, self.box, 2, 25)

    def test_replicated_matches_quadrature_pointwise(self):
        p = self.params
        mc, mc_stderr, _ = replicated_mc_spectrum(p, self.kz, n_atoms=10000, box=self.box,
                                                  n_replicas=8, base_seed=31)
        quad, _, _ = quadrature_spectrum(self.kz, p, (self.box.low, self.box.high))
        mc_n = mc / np.max(np.abs(mc))
        qd_n = quad / np.max(np.abs(quad))
        sig = np.maximum(mc_stderr / np.max(np.abs(mc)), 1e-300)
        frac = np.mean(np.abs(mc_n - qd_n) <= 3.0 * sig)
        assert frac >= 0.9

    def test_threaded_replicas_bit_identical(self):
        p = self.params
        serial = replicated_mc_spectrum(p, self.kz, 2000, self.box, 4, 77, threads=1)
        threaded = replicated_mc_spectrum(p, self.kz, 2000, self.box, 4, 77, threads=3)
        for got, want in zip(threaded, serial):  # mean, stderr and probability
            np.testing.assert_array_equal(got, want)


class TestMeanStderr:
    def test_real_and_complex_samples(self, rng):
        real = rng.normal(size=(7, 3))
        mean, err = mean_stderr(real)
        np.testing.assert_array_equal(mean, real.mean(axis=0))
        np.testing.assert_allclose(err, real.std(axis=0, ddof=1) / math.sqrt(7), rtol=1e-15)
        cplx = real + 1j * rng.normal(size=(7, 3))
        _, err_c = mean_stderr(cplx)
        expected = np.sqrt(cplx.real.var(axis=0, ddof=1) + cplx.imag.var(axis=0, ddof=1)) / math.sqrt(7)
        np.testing.assert_allclose(err_c, expected, rtol=1e-14)

    def test_needs_two_samples(self):
        with pytest.raises(PhysicsDomainError):
            mean_stderr(np.ones((1, 3)))


def brute_force_atom_sum(ens, kz_grid, p):
    """Reference atom sum: one full-phase exp and one complex division per atom and k_z.

    It keeps the full 3-D timed Dicke state e^{i k0 . r} / sqrt(N) and the 3-D
    phase e^{-i k . r}, so that the heights-only route is checked against the
    lateral phases' cancellation rather than assuming it.
    """
    x, y, z = ens.positions.T
    kx, ky = p.k0[0], p.k0[1]
    state = np.exp(1j * (ens.positions @ p.k0)) / math.sqrt(ens.n)
    weight = np.sqrt(1.0 - p.metric.a * z)  # the curved volume element
    amps = []
    for kz in kz_grid:
        omega = p.constants.c * math.sqrt(kx**2 + ky**2 + kz**2)
        den = omega - p.nu + 0.5j * p.gamma - 0.5 * p.metric.a * omega * z
        terms = state * weight * np.exp(-1j * (kx * x + ky * y + kz * z)) / den
        amps.append(terms.sum())
    return np.array(amps)


class RecurrenceCase:
    """Set-up shared by the atom-sum tests: the spectrum tests' box, three kinds of grid."""

    def setup_method(self):
        self.params = make_params()
        height = 60.0 * decay_length(self.params)
        self.box = Box(height)
        self.dk = kernel_decay_constant(self.params)

    def grid(self, name):
        k0z, dk = self.params.k0z, self.dk
        if name == "uniform":
            return k0z + dk * np.linspace(-6.0, 2.0, 41)
        if name == "two-spacing":
            return k0z + dk * _offset_grid(-8.0, 1.0, 45)
        steps = np.random.default_rng(5).uniform(0.05, 0.6, 30)
        return k0z + dk * (np.cumsum(steps) - 8.0)


class TestPhaseRecurrence(RecurrenceCase):
    """The atom sum against a brute-force sum on three kinds of grid, to 1e-12 of the peak."""

    # one_batch_sum sums its ensemble as one batch; a replica's batches are
    # tested in TestBatchComposition
    @pytest.mark.parametrize("grid, n_atoms", [
        ("uniform", 1600), ("two-spacing", 1600), ("irregular", 1600), ("uniform", 10),
    ])
    def test_matches_brute_force(self, grid, n_atoms):
        p = self.params
        kz = self.grid(grid)
        ens = sample_ensemble(n_atoms, self.box, 61)
        got = one_batch_sum(ens, kz, p)
        amps = brute_force_atom_sum(ens, kz, p)
        peak = np.max(np.abs(amps))
        assert np.max(np.abs(got - amps)) <= 1e-12 * peak


class TestCellExpansion(RecurrenceCase):
    """The cell expansion's edges against the brute-force sum, to 1e-12 of the peak."""

    def assert_matches(self, p, kz, n_atoms, height):
        ens = sample_ensemble(n_atoms, Box(height), 61)
        got = one_batch_sum(ens, kz, p)
        amps = brute_force_atom_sum(ens, kz, p)
        assert np.max(np.abs(got - amps)) <= 1e-12 * np.max(np.abs(amps))

    def test_one_point_at_k0z(self):
        # q = k0z - k_z = 0: the denominator alone sets the cells, and the phase
        # series stops at its first term
        self.assert_matches(self.params, np.array([self.params.k0z]), 1600, self.box.edge)

    def test_grid_100_decay_constants_wide(self):
        # |q| up to 50 decay constants: cells a fiftieth of a decay length wide, most
        # of them holding one atom or none
        kz = self.params.k0z + self.dk * np.linspace(-50.0, 50.0, 41)
        self.assert_matches(self.params, kz, 1600, self.box.edge)

    def test_ten_atoms_in_80_decay_lengths(self):
        # hundreds of cells across the box, ten of them occupied
        self.assert_matches(self.params, self.grid("two-spacing"), 10,
                            80.0 * decay_length(self.params))

    @pytest.mark.parametrize("gamma", [1e-9, 1e-2, 1e8])
    def test_linewidth_scales(self, gamma):
        # the spectrum tests' regime with every rate, a and wavenumber times gamma / 1e-2:
        # the same phases, with D from 1e-9 to 1e8, across the resonance and at it
        s = gamma / 1e-2
        p = make_params(a=1e-3 * s, nu=s, gamma=gamma)
        kz = p.k0z + kernel_decay_constant(p) * np.linspace(-6.0, 2.0, 41)
        self.assert_matches(p, kz, 1600, 60.0 * decay_length(p))

    def test_far_off_resonance(self):
        # gamma = 1e-9 at nu = 1: the grid, 1e6 wide, puts D up to 1e15 linewidths
        # off resonance, and the cells, 3e-14 wide, hold one atom each
        p = make_params(gamma=1e-9)
        kz = p.k0z + kernel_decay_constant(p) * np.linspace(-6.0, 2.0, 41)
        self.assert_matches(p, kz, 1600, 60.0 * decay_length(p))

    def test_stats_count_occupied_cells(self):
        # a replica of one batch is summed as its whole ensemble is: one contraction
        # each, over the same cells.  The counts sum over contractions and replicas
        p = self.params
        kz = self.grid("uniform")
        stats = {}
        replicated_mc_spectrum(p, kz, 1000, self.box, 2, 61, stats=stats)
        cells = 0
        for r in range(2):
            ens = sample_ensemble(1000, self.box, (61, r))
            counts = {}
            one_batch_sum(ens, kz, p, stats=counts)
            assert counts == {"occupied_cells": counts["occupied_cells"], "contractions": 1,
                              "cell_kz": counts["occupied_cells"] * kz.size}
            cells += counts["occupied_cells"]
        assert 2 <= cells <= 2000
        # and the wall time of each part of the replicas (see test_cli's TestDeterminism)
        times = {key: stats.pop(key) for key in spectrum._STAGE_TIMES}
        assert all(isinstance(s, float) and s > 0.0 for s in times.values()), times
        assert stats == {"occupied_cells": cells, "contractions": 2, "cell_kz": cells * kz.size,
                         "order": spectrum._TERMS,
                         "truncation_bound": spectrum.TRUNCATION_BOUND}

    def test_truncation_bound(self):
        # the closed form of the comment against the double sum it bounds, at the cell rule's
        # largest r = |rho| h and b = |q| h
        r, b, order = spectrum._CELL_RHO, spectrum._CELL_Q, spectrum._TERMS
        tail = sum(r**n * b**l / math.factorial(l)
                   for n in range(80) for l in range(40) if n + l >= order)
        assert tail <= spectrum.TRUNCATION_BOUND <= 1.01 * tail
        assert spectrum.TRUNCATION_BOUND < 2e-13

    def test_cells_finer_than_float_range_are_a_domain_error(self):
        # a omega / gamma overflows: no cell is narrow enough for the expansion.  The
        # heights, within 5e-302 of 0, keep |a z| under 1
        p = make_params(a=1e300, gamma=1e-10)
        ens = sample_ensemble(10, Box(1e-301), 3)
        with pytest.raises(PhysicsDomainError, match="cannot resolve"):
            one_batch_sum(ens, np.array([p.k0z]), p)


def lattice_ensemble(h, cells, per_cell, seed):
    """per_cell atoms in each lattice cell m of ``cells`` (centres 2 h m), at most 0.8 h
    from the centre, x and y random, and the box that holds them."""
    rng = np.random.default_rng(seed)
    m = np.repeat(np.asarray(cells, dtype=float), per_cell)
    pos = rng.uniform(-1.0, 1.0, (m.size, 3))
    pos[:, 2] = 2.0 * h * (m + 0.4 * pos[:, 2])
    return Ensemble(pos, Box(2.02 * np.max(np.abs(pos))))


class TestCellGrouping(RecurrenceCase):
    """Atoms grouped into cells by their lattice keys m - min m, whose type is the
    narrowest unsigned one that holds the span, against the brute-force sum to 1e-12
    of the peak."""

    def assert_matches(self, p, kz, ens):
        got = one_batch_sum(ens, kz, p)
        amps = brute_force_atom_sum(ens, kz, p)
        assert np.max(np.abs(got - amps)) <= 1e-12 * np.max(np.abs(amps))

    @pytest.mark.parametrize("span", [255, 256, 65_535, 65_536])
    def test_key_spans_across_type_boundaries(self, span):
        # uint8 keys up to 255 lattice steps, uint16 up to 65 535, uint32 past it.  At
        # gamma = 1e-4 the cells are narrow enough for 65 536 steps to keep |a z| < 1
        p = make_params(gamma=1e-4)
        kz = p.k0z + kernel_decay_constant(p) * np.linspace(-6.0, 2.0, 41)
        h = spectrum._cell_half_width(kz, p, 1.0)
        low = -(span // 2)
        cells = np.concatenate(([low, low + span],
                                np.random.default_rng(span).integers(low, low + span, 400)))
        ens = lattice_ensemble(h, cells, 1, 71)
        assert spectrum._cell_half_width(kz, p, np.max(np.abs(ens.positions[:, 2]))) == h
        index = np.rint(ens.positions[:, 2] / (2.0 * h))
        assert index.max() - index.min() == span
        self.assert_matches(p, kz, ens)

    @pytest.mark.parametrize("m", [0, 3, -7])
    def test_every_height_in_one_cell(self, m):
        p = self.params
        kz = self.grid("two-spacing")
        h = spectrum._cell_half_width(kz, p, 1e6)
        ens = lattice_ensemble(h, [m], 300, 73)
        # off the origin the heights reach past one half-width, so the sum's own cells
        # are these; at m = 0 their reach is the half-width, and cell 0 still holds them
        if m:
            assert spectrum._cell_half_width(kz, p, np.max(np.abs(ens.positions[:, 2]))) == h
        self.assert_matches(p, kz, ens)


class TestCellMerge(RecurrenceCase):
    """A second batch's cells merged into the held ones by position, with and without new
    cells, against the brute-force sum over both batches to 1e-12 of the peak."""

    FIRST = [-6, -4, -2, 0, 2, 4, 6]

    @pytest.mark.parametrize("second", [
        [-4, 0, 2, 6],          # every cell held
        [-9, -8],               # new cells below every held one
        [7, 12],                # and above
        [-5, -3, 1, 3, 5],      # between held ones
        [-9, -5, -4, 1, 4, 8],  # new below, between and above, and held ones
    ])
    def test_second_batch_matches_brute_force(self, second):
        p = self.params
        kz = self.grid("uniform")
        h = spectrum._cell_half_width(kz, p, 1e6)
        batches = [lattice_ensemble(h, self.FIRST, 3, 81), lattice_ensemble(h, second, 2, 82)]
        both = Ensemble(np.concatenate([ens.positions for ens in batches]), Box(1e3 * h))
        cells = spectrum._Cells(h, both.n)
        work = spectrum._sum_work(both.n)
        for ens in batches:
            assert monte_carlo_spectrum(ens, p, kz, cells, work=work) is None
        held = cells.keys[:cells.size].copy()
        np.testing.assert_array_equal(held, np.union1d(self.FIRST, second))
        # the replica's timed Dicke state's norm, once over both batches
        got = spectrum._contract(cells, kz, p, work, {}) / math.sqrt(both.n)
        amps = brute_force_atom_sum(both, kz, p)
        assert np.max(np.abs(got - amps)) <= 1e-12 * np.max(np.abs(amps))


class TestBatchComposition(RecurrenceCase):
    """A replica built batch by batch, at a small _BATCH_ATOMS, against its whole ensemble."""

    B = 400  # stands in for _BATCH_ATOMS

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_BATCH_ATOMS", self.B)

    @pytest.mark.parametrize("grid, n_atoms", [
        # one atom short of a full batch, one atom into a second and into a third
        # batch, and two and a half batches
        ("two-spacing", B - 1), ("two-spacing", B + 1), ("uniform", 2 * B + 1),
        ("irregular", 5 * B // 2),
    ])
    def test_matches_whole_ensemble_sums(self, monkeypatch, grid, n_atoms):
        p = self.params
        kz = self.grid(grid)
        sizes = []
        real_sum = spectrum.monte_carlo_spectrum

        def recording_sum(ens, *args, **kwargs):
            sizes.append(ens.n)
            return real_sum(ens, *args, **kwargs)

        monkeypatch.setattr(spectrum, "monte_carlo_spectrum", recording_sum)
        got, _, _ = replicated_mc_spectrum(p, kz, n_atoms, self.box, 3, 61)
        full, last = divmod(n_atoms, self.B)
        assert sizes == 3 * ([self.B] * full + [last] * (last > 0))
        # each replica's whole ensemble, from the same seed, summed atom by atom
        sums = []
        for r in range(3):
            ens = sample_ensemble(n_atoms, self.box, (61, r))
            sums.append(brute_force_atom_sum(ens, kz, p))
        mean = np.mean(sums, axis=0)
        peak = np.max(np.abs(mean))
        assert np.max(np.abs(got - mean)) <= 1e-12 * peak

    def test_needs_an_atom(self):
        # no batch to draw: without the check the replicas would be silent zeros
        with pytest.raises(PhysicsDomainError, match="at least one atom"):
            replicated_mc_spectrum(self.params, self.grid("uniform"), 0, self.box, 2, 61)

    def test_replica_memory_does_not_grow_with_atoms(self):
        # at 4 and 8 batches a replica holds one batch at a time; a replica that
        # held its whole ensemble would peak some 50 bytes per atom higher at 8
        p = self.params
        kz = self.grid("two-spacing")
        replicated_mc_spectrum(p, kz, self.B, self.box, 2, 7)  # a first call's one-off allocations
        peaks = []
        for n_batches in (4, 8):
            tracemalloc.start()
            try:
                replicated_mc_spectrum(p, kz, n_batches * self.B, self.box, 2, 7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 8 * self.B


class TestReplicaContraction(RecurrenceCase):
    """A replica's batches add into one set of cells on the origin lattice, contracted once
    per replica unless the cells would outgrow the thread's room for them."""

    B = 400  # stands in for _BATCH_ATOMS

    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_BATCH_ATOMS", self.B)

    def assert_matches_whole_ensembles(self, kz, n_atoms, box, contractions):
        p = self.params
        stats = {}
        got, _, _ = replicated_mc_spectrum(p, kz, n_atoms, box, 2, 61, stats=stats)
        assert stats["contractions"] == contractions
        assert stats["cell_kz"] == stats["occupied_cells"] * kz.size
        sums = [brute_force_atom_sum(sample_ensemble(n_atoms, box, (61, r)), kz, p)
                for r in range(2)]
        mean = np.mean(sums, axis=0)
        assert np.max(np.abs(got - mean)) <= 1e-12 * np.max(np.abs(mean))

    @pytest.mark.parametrize("heights", [10.0, 25.0])
    def test_one_contraction_per_replica(self, heights):
        # about 60 and 150 cells across the box: every batch of the first fills every
        # cell, while in the second each batch leaves some empty and a later one fills them
        box = Box(heights * decay_length(self.params))
        self.assert_matches_whole_ensembles(self.grid("uniform"), 5 * self.B // 2, box, 2)

    def test_wide_grid_contracts_every_batch(self):
        # |q| up to 50 decay constants: some 3 000 lattice points across the box, more
        # than a batch has atoms, so the cells are contracted before each further batch
        kz = self.params.k0z + self.dk * np.linspace(-50.0, 50.0, 41)
        self.assert_matches_whole_ensembles(kz, 5 * self.B // 2, self.box, 2 * 3)

    def test_wide_grid_memory_does_not_grow_with_atoms(self):
        # as TestBatchComposition's memory test, with a contraction before every batch
        p = self.params
        kz = self.params.k0z + self.dk * np.linspace(-50.0, 50.0, 41)
        replicated_mc_spectrum(p, kz, self.B, self.box, 2, 7)  # a first call's one-off allocations
        peaks = []
        for n_batches in (4, 8):
            stats = {}
            tracemalloc.start()
            try:
                replicated_mc_spectrum(p, kz, n_batches * self.B, self.box, 2, 7, stats=stats)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert stats["contractions"] == 2 * n_batches
        assert peaks[1] <= peaks[0] + 8 * self.B

    def test_lattice_index_beyond_2_52_is_a_domain_error(self):
        # gamma = 1e-17 makes cells about 1e-15 wide: heights near 10 would take a lattice
        # index above 2^52, where doubles no longer hold every half-integer
        p = make_params(gamma=1e-17)
        box = Box(20.0)
        ens = Ensemble([[0.0, 0.0, 9.9]], box)
        kz = np.array([p.k0z])
        with pytest.raises(PhysicsDomainError, match="cannot resolve"):
            one_batch_sum(ens, kz, p)
        with pytest.raises(PhysicsDomainError, match="cannot resolve"):
            replicated_mc_spectrum(p, kz, 10, box, 2, 3)
        # heights within 2^52 cells of the origin are resolved
        near = Ensemble([[0.0, 0.0, 1.0]], box)
        assert np.isfinite(one_batch_sum(near, kz, p)).all()


class TestReplicaWorkspace(RecurrenceCase):
    """Each thread's batch-sized working arrays, reused by every batch and replica it runs."""

    def test_sum_into_larger_work(self):
        p = self.params
        kz = self.grid("two-spacing")
        ens = sample_ensemble(300, self.box, 43)
        work = spectrum._sum_work(400)  # a short last batch's view of its thread's arrays
        got = one_batch_sum(ens, kz, p, work=work)
        np.testing.assert_array_equal(got, one_batch_sum(ens, kz, p))

    @pytest.mark.parametrize("grid", ["uniform", "two-spacing", "irregular"])
    def test_positions_and_weights_in_the_last_complex_rows(self, grid):
        # as replicated_mc_spectrum draws a short last batch: the draw fills the
        # float view of the last two complex rows, whose heights the sum copies, and
        # weights in the first complex row, before it overwrites them
        p = self.params
        kz = self.grid(grid)
        positions, (real, cplx) = spectrum._batch_work(400)
        assert np.shares_memory(positions, cplx[1:])
        ens = sample_ensemble(300, self.box, 43, out=positions[:300])
        fresh = sample_ensemble(300, self.box, 43)
        np.testing.assert_array_equal(ens.positions, fresh.positions)
        want = one_batch_sum(fresh, kz, p)
        got = one_batch_sum(ens, kz, p, work=(real, cplx))
        np.testing.assert_array_equal(got, want)

    def test_threads_keep_their_own_workspace(self, monkeypatch):
        # more threads than cores, many small batches and a short switch interval:
        # a workspace two threads shared would mix their batches
        monkeypatch.setattr(spectrum, "_BATCH_ATOMS", 250)
        p = self.params
        kz = self.grid("uniform")
        serial = replicated_mc_spectrum(p, kz, 1100, self.box, 8, 47, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = replicated_mc_spectrum(p, kz, 1100, self.box, 8, 47, threads=4)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial):  # mean, stderr and probability
            np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage on Linux")
    def test_replicas_add_no_page_faults(self):
        # at full 25 000-atom batches, arrays made and freed batch by batch took
        # about 3 000 minor faults per replica, as glibc gave them back to the kernel
        p = self.params
        kz = self.grid("two-spacing")
        n_atoms = 2 * spectrum._BATCH_ATOMS + 1000  # two full batches and a short one

        def faults(n_replicas):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            replicated_mc_spectrum(p, kz, n_atoms, self.box, n_replicas, 5)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(2)  # a first call's one-off allocations
        assert (faults(6) - faults(2)) / 4 < 250


class TestStructureFactor:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zero_offset_is_exactly_one(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-5, 5, size=(64, 3))
        assert structure_factor(pos, np.zeros(3)) == 1.0

    def test_matches_brute_force_phasor_mean(self, rng):
        # phases |dk . r| up to 1e3, against an np.exp phasor mean
        pos = rng.uniform(-50.0, 50.0, size=(2000, 3))
        for _ in range(20):
            dk = rng.uniform(-1.0, 1.0, size=3) * rng.choice([1e-3, 1.0, 6.0])
            phase = pos @ dk
            assert np.max(np.abs(phase)) <= 1e3
            brute = abs(np.mean(np.exp(1j * phase))) ** 2
            assert structure_factor(pos, dk) == pytest.approx(brute, rel=0.0, abs=1e-14)

    def test_single_phasor(self, rng):
        pos = rng.uniform(-5, 5, size=(1, 3))
        for _ in range(5):
            assert structure_factor(pos, rng.normal(size=3)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_at_flat_dicke_scale(self, rng):
        # the flat-dicke config: 1e4 atoms in a cube 100 wavelengths wide, off-peak
        # probes with |dk| L in [20 pi, 60 pi]
        side = 100.0 * 2.0 * math.pi
        pos = rng.uniform(-0.5 * side, 0.5 * side, size=(10_000, 3))
        for _ in range(10):
            direction = rng.normal(size=3)
            dk = direction / np.linalg.norm(direction) * (20.0 * math.pi / side) \
                * rng.uniform(1.0, 3.0)
            brute = abs(np.mean(np.exp(1j * (pos @ dk)))) ** 2
            assert structure_factor(pos, dk) == pytest.approx(brute, rel=0.0, abs=1e-14)

    def test_single_atom_within_4_eps_of_one(self, rng):
        # C^2 + S^2 = ((1 - t^2)^2 + 4 t^2) w^2 = 1 up to the rounding of w, C and S
        eps = np.finfo(float).eps
        for _ in range(500):
            pos = rng.uniform(-5.0, 5.0, size=(1, 3)) * 10.0 ** rng.uniform(-3.0, 8.0)
            dk = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert abs(structure_factor(pos, dk) - 1.0) <= 4 * eps

    @given(angles=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=200),
           shift=st.floats(-1e-3, 1e-3))
    def test_cancelling_cosine_sum(self, angles, shift):
        # phases in pairs phi + d, pi - phi + d: sum cos theta = 0 up to d, so
        # 2 sum w - N cancels to nearly nothing and the sine sum carries the result
        phi = np.asarray(angles)
        phase = np.concatenate([phi, math.pi - phi]) + shift
        pos = np.zeros((phase.size, 3))
        pos[:, 0] = phase
        dk = np.array([1.0, 0.0, 0.0])
        brute = abs(np.mean(np.exp(1j * phase))) ** 2
        assert abs(np.mean(np.cos(phase))) <= 1e-3
        assert structure_factor(pos, dk) == pytest.approx(brute, rel=0.0, abs=1e-14)

    def test_expectation_formula_against_replicas(self):
        n, side = 600, 12.0
        box = Box(side)
        probes = [
            np.array([2.0 / side, 0.0, 0.0]),       # u = 1.0
            np.array([5.0 / side, 3.0 / side, 0.0]),
            np.array([9.0, 7.7, 8.1]) / side * 2.0,  # deep in the random-phasor regime
        ]
        n_rep = 200
        vals = np.empty((n_rep, len(probes)))
        for rep in range(n_rep):
            ens = sample_ensemble(n, box, (5150, rep))
            for i, dk in enumerate(probes):
                vals[rep, i] = structure_factor(ens.positions, dk)
        mean = vals.mean(axis=0)
        stderr = vals.std(axis=0, ddof=1) / math.sqrt(n_rep)
        for i, dk in enumerate(probes):
            expected = structure_factor_expectation(n, box.edge, dk)
            assert abs(mean[i] - expected) <= 5.0 * stderr[i]

    def test_expectation_limits(self):
        assert structure_factor_expectation(50, 1.0, (0, 0, 0)) == pytest.approx(1.0)
        # far off peak the coherent term dies and 1/N remains
        far = structure_factor_expectation(50, 100.0, (3.0, 2.0, 1.0))
        assert far == pytest.approx(1.0 / 50.0, rel=1e-2)

    def test_peak_to_background_ratio_across_seeds(self):
        # peak-to-background >= N/2 for |dk| L >= 20 pi, background taken as the
        # mean over random far offsets, in at least 95% of seeds
        n, side = 2000, 40.0 * math.pi
        box = Box(side)
        passing = 0
        n_seeds = 40
        rng = np.random.default_rng(62)
        for seed in range(n_seeds):
            ens = sample_ensemble(n, box, (7000, seed))
            vals = []
            for _ in range(30):
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                dk = direction * (20.0 * math.pi / side) * rng.uniform(1.0, 3.0)
                vals.append(structure_factor(ens.positions, dk))
            background = float(np.mean(vals))
            peak = structure_factor(ens.positions, np.zeros(3))
            if peak / background >= n / 2.0:
                passing += 1
        assert passing >= 0.95 * n_seeds


class TestDeltaLimit:
    def test_width_area_peak_progression(self):
        p = make_params(a=2e-3)
        width = kernel_decay_constant(p)
        q = -np.concatenate([np.linspace(-8 * width, 0, 120, endpoint=False),
                             [0.0], np.linspace(0, width, 10)[1:]])
        entries = [entry for _, entry in flat_delta_limit(q, p, 4)]
        assert [e["a"] for e in entries] == [2e-3, 1e-3, 5e-4, 2.5e-4]
        widths = [e["decay_scale"] for e in entries]
        peaks = [e["peak"] for e in entries]
        areas = [e["area"] for e in entries]
        for i in range(1, len(entries)):
            assert widths[i - 1] / widths[i] == pytest.approx(2.0, rel=1e-9)
            assert peaks[i] / peaks[i - 1] == pytest.approx(2.0, rel=1e-9)
            assert areas[i] == pytest.approx(areas[0], rel=1e-9)
        assert areas[0] == pytest.approx(-1j / p.gamma, rel=1e-9)

    @pytest.mark.parametrize("a", [1e-3, 1e-10])
    def test_area_bit_identical_across_halvings(self, a):
        # on q, halving a halves every node and the kernel's scale exactly, so the rule's
        # sum does not move by a bit
        p = make_params(a=a)
        q = np.linspace(8.0, -1.0, 10) * kernel_decay_constant(p)
        areas = [entry["area"] for _, entry in flat_delta_limit(q, p, 4)]
        assert areas == [areas[0]] * 4

    def test_needs_positive_start(self):
        q = np.array([1.0, 0.0, -1.0])
        with pytest.raises(PhysicsDomainError):
            flat_delta_limit(q, make_params(a=0.0), 4)
        with pytest.raises(PhysicsDomainError):
            flat_delta_limit(q, make_params(), 0)

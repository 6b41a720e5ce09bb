import math

import numpy as np
import pytest
from scipy import integrate

import oracles
from gravdicke.emission import (
    Atom,
    Box,
    Ensemble,
    coupling_v,
    curved_timed_dicke,
    flat_timed_dicke,
    modal_amplitude_lab,
    modal_amplitude_nonlocal_frame,
    sample_ensemble,
    single_atom_survival,
)
from gravdicke.errors import LinearizationError, PhysicsDomainError
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.modes import ModeIndex, PerturbedMode

CST = PhysicalConstants.scaled()
NU, GAMMA = 1.0, 1e-2
DIPOLE = np.array([0.3, -0.1, 0.2])


def make_mode(k, s=2, a=1e-3, z0=0.0):
    return PerturbedMode.build(ModeIndex(np.asarray(k, float), s), WeakFieldMetric(a=a, z0=z0), CST, 1.0)


def small_box(side=10.0):
    return Box(center=(0.0, 0.0, 0.0), size=(side, side, side))


class TestTypes:
    def test_atom_guards(self):
        with pytest.raises(PhysicsDomainError):
            Atom((0, 0, 0), NU, -1.0, DIPOLE)
        with pytest.raises(PhysicsDomainError):
            Atom((0, 0, 0), NU, 0.5 * NU, DIPOLE)  # not weakly coupled

    def test_box(self):
        box = Box(center=(1.0, 2.0, 3.0), size=(2.0, 2.0, 4.0))
        assert box.volume == 16.0
        assert box.z0 == 3.0
        assert box.contains(np.array([[1.0, 2.0, 4.9]]))[0]
        assert not box.contains(np.array([[1.0, 2.0, 5.1]]))[0]

    def test_ensemble_rejects_outside_atoms(self):
        with pytest.raises(PhysicsDomainError):
            Ensemble(np.array([[100.0, 0.0, 0.0]]), NU, GAMMA, DIPOLE, small_box(), (1,))

    def test_sampling_is_deterministic(self):
        a = sample_ensemble(50, small_box(), 99, NU, GAMMA, DIPOLE)
        b = sample_ensemble(50, small_box(), 99, NU, GAMMA, DIPOLE)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = sample_ensemble(50, small_box(), 100, NU, GAMMA, DIPOLE)
        assert not np.array_equal(a.positions, c.positions)

    def test_volume_weights(self):
        metric = WeakFieldMetric(a=1e-2, z0=0.0)
        ens = sample_ensemble(500, small_box(), 7, NU, GAMMA, DIPOLE, metric=metric)
        np.testing.assert_allclose(
            ens.weights, np.sqrt(1.0 - 1e-2 * ens.positions[:, 2]), rtol=1e-14
        )


class TestCoupling:
    def test_orthogonal_dipole(self):
        mode = make_mode([0.0, 0.0, 1.0], s=1)  # f0 = x
        atom = Atom((0.2, 0.1, 0.3), NU, GAMMA, (0.0, 1.0, 0.0))
        assert coupling_v(mode, atom) == 0.0

    def test_flat_phase_free_value(self):
        mode = make_mode([0.0, 0.0, 1.0], s=1, a=0.0)
        atom = Atom((0.0, 0.0, 0.0), NU, GAMMA, DIPOLE)
        expected = -np.dot(DIPOLE, mode.f0) * mode.flat_amplitude / CST.hbar
        assert coupling_v(mode, atom) == pytest.approx(expected)
        assert complex(coupling_v(mode, atom)).imag == 0.0

    def test_vertical_mode_curved_over_flat_ratio(self):
        # kx = ky = 0: amplitude and polarization untouched, only the quadratic
        # phase survives, so (ratio - 1)/a -> i kz dz^2 / 2
        kz, z_at, a = 1.3, 0.4, 1e-4
        atom = Atom((0.0, 0.0, z_at), NU, GAMMA, DIPOLE)
        curved = coupling_v(make_mode([0.0, 0.0, kz], s=1, a=a), atom)
        flat = coupling_v(make_mode([0.0, 0.0, kz], s=1, a=0.0), atom)
        measured = (curved / flat - 1.0) / a
        assert measured == pytest.approx(1j * kz * z_at**2 / 2.0, abs=1e-4)


class TestTimedDicke:
    def test_single_atom(self):
        ens = sample_ensemble(1, small_box(), 3, NU, GAMMA, DIPOLE)
        state = flat_timed_dicke(ens, [0.0, 0.0, 1.0])
        assert abs(state.amplitudes[0]) == pytest.approx(1.0)

    def test_origin_atoms_uniform(self):
        box = small_box()
        ens = Ensemble(np.zeros((4, 3)), NU, GAMMA, DIPOLE, box, (0,))
        state = flat_timed_dicke(ens, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(state.amplitudes, 0.5 * np.ones(4))

    def test_norm_large_ensemble(self):
        ens = sample_ensemble(1000, small_box(), 11, NU, GAMMA, DIPOLE)
        state = flat_timed_dicke(ens, [0.0, 0.0, 1.0])
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_curved_reduces_to_flat(self):
        ens = sample_ensemble(200, small_box(), 13, NU, GAMMA, DIPOLE)
        k0 = np.array([0.0, 0.0, 1.0])
        flat = flat_timed_dicke(ens, k0)
        for a in (0.0, 1e-3):
            curved = curved_timed_dicke(ens, k0, WeakFieldMetric(a=a))
            np.testing.assert_allclose(curved.amplitudes, flat.amplitudes, atol=1e-15)

    def test_curved_normalization_brute_force(self):
        ens = sample_ensemble(300, small_box(), 17, NU, GAMMA, DIPOLE)
        k0 = np.array([0.2, 0.0, 0.98])
        k0 = k0 / np.linalg.norm(k0) * NU / CST.c
        state = curved_timed_dicke(ens, k0, WeakFieldMetric(a=1e-3))
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        # reproduce the normalization constant by direct summation
        raw = np.array([np.exp(1j * np.dot(r, k0)) for r in ens.positions])
        np.testing.assert_allclose(
            state.amplitudes, raw / math.sqrt(sum(abs(c) ** 2 for c in raw)), atol=1e-14
        )

    def test_curved_rejects_outside_linear_domain(self):
        ens = sample_ensemble(100, small_box(), 19, NU, GAMMA, DIPOLE)
        heights = np.abs(ens.positions[:, 2])
        with pytest.raises(LinearizationError):
            curved_timed_dicke(ens, [0.0, 0.0, 1.0], WeakFieldMetric(a=1.01 / heights.max()))
        curved_timed_dicke(ens, [0.0, 0.0, 1.0], WeakFieldMetric(a=0.99 / heights.max()))


class TestSurvival:
    def test_initial_value(self):
        assert single_atom_survival(0.0, GAMMA) == 1.0

    def test_two_lifetimes(self):
        assert single_atom_survival(2.0 / GAMMA, GAMMA) == pytest.approx(math.exp(-1.0))

    def test_negative_time_rejected(self):
        with pytest.raises(PhysicsDomainError):
            single_atom_survival(-0.1, GAMMA)

    def test_memory_kernel_oracle(self):
        # flat-band reservoir; deviation from the collapsed-kernel decay is
        # O(gamma / bandwidth), well under the tolerance at this bandwidth
        gamma = 1.0
        tau, c = oracles.volterra_flat_band(gamma, t_max=5.0, n_steps=12000, bandwidth=500.0)
        assert np.max(np.abs(c - single_atom_survival(tau, gamma))) < 1.5e-3


class TestModalAmplitude:
    def test_flat_resonance_peak(self):
        mode = make_mode([0.0, 0.0, NU / CST.c], s=1, a=0.0)
        atom = Atom((0.0, 0.0, 0.0), NU, GAMMA, DIPOLE)
        amp = modal_amplitude_lab(mode, atom, Z=0.0, z_lab=0.0, metric=WeakFieldMetric(a=0.0))
        v = coupling_v(mode, atom)
        assert amp == pytest.approx(v / (-0.5j * GAMMA))
        assert abs(amp) == pytest.approx(2.0 * abs(v) / GAMMA)

    def test_flat_lorentzian_line(self):
        atom = Atom((0.0, 0.0, 0.0), NU, GAMMA, DIPOLE)
        metric = WeakFieldMetric(a=0.0)
        for detune in (-3.0 * GAMMA, 0.5 * GAMMA, 2.0 * GAMMA):
            omega = NU + detune
            mode = make_mode([0.0, 0.0, omega / CST.c], s=1, a=0.0)
            amp = modal_amplitude_lab(mode, atom, 0.0, 0.0, metric)
            v = coupling_v(mode, atom)
            assert abs(amp) ** 2 == pytest.approx(
                abs(v) ** 2 * oracles.lorentzian_mode_weight(np.array(detune), GAMMA), rel=1e-12
            )

    def test_lorentzian_normalization(self):
        # line-shape normalization at fixed resonant coupling:
        # integral of |v|^2 / ((w - nu)^2 + G^2/4) over w is 2 pi |v|^2 / G
        mode = make_mode([0.0, 0.0, NU / CST.c], s=1, a=0.0)
        atom = Atom((0.0, 0.0, 0.0), NU, GAMMA, DIPOLE)
        v = abs(coupling_v(mode, atom))
        val, err = integrate.quad(
            lambda x: v**2 / (x * x + 0.25 * GAMMA**2), -np.inf, np.inf,
            epsabs=1e-14, epsrel=1e-12,
        )
        expected = 2.0 * math.pi * v**2 / GAMMA
        assert err < 1e-6 * expected
        assert val == pytest.approx(expected, rel=1e-6)

    def test_curved_peak_location_by_scan(self):
        # peak sits where the height-shifted mode frequency meets the line
        a, z_at, Z = 2e-3, -4.0, 0.0
        metric = WeakFieldMetric(a=a, z0=0.0)
        atom = Atom((0.0, 0.0, z_at), NU, GAMMA, DIPOLE)
        omegas = NU * np.linspace(0.99, 1.01, 4001)
        mags = []
        for omega in omegas:
            mode = make_mode([0.0, 0.0, omega / CST.c], s=1, a=a)
            mags.append(abs(modal_amplitude_lab(mode, atom, Z, 0.0, metric)))
        peak = omegas[int(np.argmax(mags))]
        predicted = NU / (1.0 + 0.5 * a * (Z - z_at))
        assert abs(peak - predicted) <= 0.01 * GAMMA
        assert abs(peak - NU) > 0.3 * GAMMA  # the shift itself is resolved

    def test_two_frame_routes_agree_to_second_order(self):
        Z, z_lab, z_at = 0.0, 1.0, -2.0
        atom = Atom((0.3, -0.2, z_at), NU, GAMMA, DIPOLE)
        devs = []
        for a in (1e-3, 5e-4):
            metric = WeakFieldMetric(a=a, z0=0.0)
            mode = make_mode([0.0, 0.3, 1.0], s=2, a=a)
            lab = modal_amplitude_lab(mode, atom, Z, z_lab, metric)
            nonlocal_ = modal_amplitude_nonlocal_frame(mode, atom, Z, z_lab, metric)
            devs.append(abs(lab / nonlocal_ - 1.0))
        assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.25)
        assert devs[0] < 1e-4

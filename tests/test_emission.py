import math

import numpy as np
import pytest

import oracles
from batch_sums import one_batch_sum
from gravdicke.emission import (
    Box,
    Ensemble,
    cis,
    curved_timed_dicke,
    ensemble_stream,
    sample_ensemble,
    single_atom_survival,
)
from gravdicke.errors import PhysicsDomainError
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.spectrum import SpectrumParams

CST = PhysicalConstants.scaled()
NU, GAMMA = 1.0, 1e-2


def small_box(side=10.0):
    return Box(side)


class TestTypes:
    def test_atom_guards(self):
        # the weak-coupling guard on gamma is SpectrumParams', see test_spectrum.py
        with pytest.raises(PhysicsDomainError):
            sample_ensemble(0, small_box(), 1)

    def test_box(self):
        box = Box(4.0)
        assert (box.edge, box.low, box.high) == (4.0, -2.0, 2.0)
        assert type(box.edge) is type(box.low) is type(box.high) is float
        Ensemble(np.array([[0.5, -0.5, 1.9]]), box)
        with pytest.raises(PhysicsDomainError, match="inside the box"):
            Ensemble(np.array([[0.5, -0.5, 2.1]]), box)
        with pytest.raises(PhysicsDomainError, match="inside the box"):
            Ensemble(np.array([[-2.1, -0.5, 1.9]]), box)

    def test_ensemble_containment_faces(self):
        box = Box(4.0)
        middle = np.zeros(3)
        for axis in range(3):
            for face, outward in ((box.low, -np.inf), (box.high, np.inf)):
                on_face = middle.copy()
                on_face[axis] = face
                # the other atoms sit inside, so that each face is tested on its own
                Ensemble(np.array([middle, on_face, middle]), box)
                outside = on_face.copy()
                outside[axis] = np.nextafter(face, outward)  # one ulp out
                with pytest.raises(PhysicsDomainError, match="inside the box"):
                    Ensemble(np.array([middle, outside, middle]), box)
            with_nan = middle.copy()
            with_nan[axis] = np.nan
            with pytest.raises(PhysicsDomainError, match="inside the box"):
                Ensemble(np.array([middle, with_nan]), box)
        # all eight corners at once
        faces = (box.low, box.high)
        corners = np.array([[x, y, z] for x in faces for y in faces for z in faces])
        assert Ensemble(corners, box).n == 8

    @pytest.mark.parametrize("size", [0.0, -1.0, float("inf"), float("nan")],
                             ids=[f"size{i}" for i in range(4)])
    def test_box_rejects_bad_edges(self, size):
        # an infinite edge once reached sampling, where inf - inf filled a column with NaN
        with pytest.raises(PhysicsDomainError, match="positive and finite"):
            Box(size)

    def test_ensemble_rejects_outside_atoms(self):
        with pytest.raises(PhysicsDomainError):
            Ensemble(np.array([[100.0, 0.0, 0.0]]), small_box())

    def test_sampling_is_deterministic(self):
        a = sample_ensemble(50, small_box(), 99)
        b = sample_ensemble(50, small_box(), 99)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = sample_ensemble(50, small_box(), 100)
        assert not np.array_equal(a.positions, c.positions)

    def test_generator_continues_the_seeded_stream(self):
        # batches of 333 atoms and a ragged last one of 1, from one Generator: 999
        # doubles per batch, so batches do not start on Philox's 4-word blocks
        whole = sample_ensemble(1000, small_box(), (41, 3))
        rng = ensemble_stream((41, 3))
        parts = [sample_ensemble(m, small_box(), rng) for m in (333, 333, 333, 1)]
        np.testing.assert_array_equal(np.concatenate([e.positions for e in parts]),
                                      whole.positions)

    @pytest.mark.parametrize("metric", [None, WeakFieldMetric(a=1e-2)])
    def test_sampling_into_buffers(self, metric):
        # the first 300 rows of a larger array, as a short last batch gets them
        pos = np.full((400, 3), np.nan)
        ens = sample_ensemble(300, small_box(), 5, out=pos[:300])
        fresh = sample_ensemble(300, small_box(), 5)
        assert np.shares_memory(ens.positions, pos)
        np.testing.assert_array_equal(ens.positions, fresh.positions)
        assert np.isnan(pos[300:]).all()
        if metric is not None:
            # the curved volume weights are formed in the atom sum, from the buffered heights
            p = SpectrumParams(NU, GAMMA, metric, math.pi / 6, CST)
            kz = p.k0z + np.linspace(-0.05, 0.05, 7)
            np.testing.assert_array_equal(
                one_batch_sum(ens, kz, p),
                one_batch_sum(fresh, kz, p),
            )


class TestCis:
    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e8, 1e16, 1e100, 1e300])
    def test_matches_exp(self, scale):
        theta = np.random.default_rng(23).uniform(-scale, scale, 20000)
        assert np.max(np.abs(cis(theta) - np.exp(1j * theta))) <= 4e-16

    def test_special_angles(self):
        theta = np.array([0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi, 2.0 * math.pi])
        assert np.max(np.abs(cis(theta) - np.exp(1j * theta))) <= 4e-16

    def test_zero_is_exactly_one(self):
        z = cis(0.0)
        assert z.real == 1.0 and z.imag == 0.0 and not math.copysign(1.0, z.imag) < 0.0

    @pytest.mark.parametrize("theta", [0.7, [0.7, -2.0], [[0.7], [3.0], [-1e5]]],
                             ids=["0-d", "1-d", "2-d"])
    def test_keeps_shape(self, theta):
        z = cis(theta)
        assert z.shape == np.shape(theta)
        assert np.max(np.abs(z - np.exp(1j * np.asarray(theta)))) <= 4e-16

    def test_no_warning_for_finite_angles(self):
        # the largest |tan| over doubles is about 2e18 (x / 2 nearest an odd
        # multiple of pi / 2), so 1 + t^2 stays finite; pyproject turns any
        # RuntimeWarning into an error
        info = np.finfo(float)
        theta = np.array([info.max, -info.max, info.tiny, 5e-324, 2.0 * 6381956970095103 * 2.0**797,
                          np.nextafter(math.pi, 0.0), np.nextafter(math.pi, 4.0)])
        z = cis(theta)
        assert np.all(np.isfinite(z))
        assert np.max(np.abs(z - np.exp(1j * theta))) <= 4e-16

    def test_non_finite_gives_nan_like_exp(self):
        theta = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            z, ref = cis(theta), np.exp(1j * theta)
        assert np.all(np.isnan(z.real) & np.isnan(z.imag))
        assert np.all(np.isnan(ref.real) & np.isnan(ref.imag))


    def test_into_buffers(self):
        theta = np.linspace(-40.0, 40.0, 1001)
        out, work = np.empty(1001, dtype=complex), theta.copy()
        assert cis(theta, out=out, work=work) is out
        np.testing.assert_array_equal(out, cis(theta))
        np.testing.assert_array_equal(work, np.tan(0.5 * theta))  # work holds t
        work = theta.copy()
        assert cis(work, out=out, work=work) is out  # theta's own array as the work
        np.testing.assert_array_equal(out, cis(theta))


class TestTimedDicke:
    def test_into_buffers(self):
        ens = sample_ensemble(500, small_box(), 29)
        out, work = np.empty(500, dtype=complex), np.empty(500)
        assert curved_timed_dicke(ens, 0.8, out=out, work=work) is out
        np.testing.assert_array_equal(out, curved_timed_dicke(ens, 0.8))

    def test_single_atom(self):
        ens = sample_ensemble(1, small_box(), 3)
        state = curved_timed_dicke(ens, 1.0)
        assert abs(state[0]) == pytest.approx(1.0)

    def test_origin_atoms_uniform(self):
        box = small_box()
        ens = Ensemble(np.zeros((4, 3)), box)
        state = curved_timed_dicke(ens, 1.0)
        np.testing.assert_allclose(state, 0.5 * np.ones(4))

    def test_norm_large_ensemble(self):
        ens = sample_ensemble(1000, small_box(), 11)
        state = curved_timed_dicke(ens, 1.0)
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_curved_reduces_to_flat(self):
        # the state takes no metric: the atom sum weights the atoms (see test_spectrum.py)
        ens = sample_ensemble(200, small_box(), 13)
        flat = np.exp(1j * ens.positions[:, 2]) / math.sqrt(ens.n)
        np.testing.assert_allclose(curved_timed_dicke(ens, 1.0), flat, atol=1e-15)

    def test_curved_normalization_brute_force(self):
        ens = sample_ensemble(300, small_box(), 17)
        k0z = 0.98 / math.hypot(0.2, 0.98) * NU / CST.c
        state = curved_timed_dicke(ens, k0z)
        assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)
        # reproduce the normalization constant by direct summation
        raw = np.array([np.exp(1j * r[2] * k0z) for r in ens.positions])
        np.testing.assert_allclose(
            state, raw / math.sqrt(sum(abs(c) ** 2 for c in raw)), atol=1e-14
        )


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

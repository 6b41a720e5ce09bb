"""Every record the package defines is an immutable named tuple."""

import numpy as np
import pytest

from gravdicke import cli, emission, maxwell, metric, modes, spectrum
from gravdicke.emission import Box, Ensemble
from gravdicke.maxwell import residual_slope_study, transversality_check
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.modes import ModeIndex, PerturbedMode
from gravdicke.spectrum import SpectrumParams

MODULES = (cli, emission, maxwell, metric, modes, spectrum)


@pytest.fixture(scope="module")
def records() -> dict:
    """One instance of each record, keyed by class name."""
    cfg = cli.load_config(None, {"scenario": "curved-spectrum"})
    constants = PhysicalConstants.scaled()
    curved = WeakFieldMetric(a=1e-3)
    box = Box(size=(1.0, 1.0, 1.0))
    index = ModeIndex((0.3, 0.2, 1.0), 2)
    mode = PerturbedMode.build(index, curved, constants, 1.0)
    study = residual_slope_study(index.k, 2, constants, 0.3, (0.2, -0.15, 0.35), (1e-3, 1e-2),
                                 volume=1.0)
    found = [cfg, cfg.metric, cfg.spectrum, cfg.spectrum.grid, cfg.ensemble, cfg.dicke,
             cfg.delta, cfg.verify, cfg.tolerances,
             constants, curved, box, Ensemble(np.zeros((2, 3)), box),
             SpectrumParams(nu=1.0, gamma=1e-2, metric=curved, Z=0.0, theta0=0.5),
             index, mode, study, study.reports[0], transversality_check(mode, 0.1)]
    return {type(record).__name__: record for record in found}


# each record's fields, in order: a field added to a record shows here, as a config
# leaf shows in test_cli's SETTABLE_KEYS
FIELDS = {
    "Config": ("scenario", "seed", "output_dir", "unit_regime", "threads", "metric",
               "spectrum", "ensemble", "dicke", "delta", "verify", "tolerances"),
    "MetricConfig": ("a", "g"),
    "SpectrumConfig": ("nu", "gamma", "theta0", "Z", "grid"),
    "GridConfig": ("lo", "hi", "points"),
    "EnsembleConfig": ("n_atoms", "replicas", "box_heights"),
    "DickeConfig": ("n_atoms", "box_wavelengths", "n_offpeak", "replicas"),
    "DeltaConfig": ("halvings", "grid_points"),
    "VerifyConfig": ("n_modes", "a_values"),
    "Tolerances": ("slope", "mc_sigma", "mc_fraction"),
    "PhysicalConstants": ("c", "hbar", "eps0"),
    "WeakFieldMetric": ("a",),
    "Box": ("size",),
    "Ensemble": ("positions",),
    "SpectrumParams": ("nu", "gamma", "metric", "Z", "theta0", "constants"),
    "ModeIndex": ("k", "s"),
    "PerturbedMode": ("index", "metric", "constants", "volume", "basis"),
    "ScalingStudy": ("wave_slope", "gauss_slope", "reports"),
    "ResidualReport": ("residual_vector", "gauss_residual", "discretization_estimate",
                       "gauss_discretization", "inconclusive"),
    "TransversalityReport": ("p_dot_f", "k_dot_f", "p_dot_k"),
}
RECORDS = tuple(FIELDS)


def test_every_package_record_is_listed():
    defined = {name for module in MODULES for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and hasattr(obj, "_fields")}
    assert defined == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_pinned(records, name):
    assert records[name]._fields == FIELDS[name]


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(records, name):
    record = records[name]
    assert isinstance(record, tuple)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # nor can a new attribute be added
        record.extra = None

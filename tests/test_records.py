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
    box = Box(center=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0))
    index = ModeIndex((0.3, 0.2, 1.0), 2)
    mode = PerturbedMode.build(index, curved, constants, 1.0)
    study = residual_slope_study(index.k, 2, constants, 0.0, 1.0, (1e-3, 1e-2), 0.3,
                                 (0.2, -0.15, 0.35))
    found = [cfg, cfg.metric, cfg.spectrum, cfg.spectrum.grid, cfg.ensemble, cfg.dicke,
             cfg.delta, cfg.verify, cfg.tolerances,
             constants, curved, box, Ensemble(np.zeros((2, 3)), box),
             SpectrumParams(nu=1.0, gamma=1e-2, metric=curved, Z=0.0, theta0=0.5),
             index, mode, study, study.reports[0], transversality_check(mode, 0.1)]
    return {type(record).__name__: record for record in found}


RECORDS = ("Config", "MetricConfig", "SpectrumConfig", "GridConfig", "EnsembleConfig",
           "DickeConfig", "DeltaConfig", "VerifyConfig", "Tolerances",
           "PhysicalConstants", "WeakFieldMetric", "Box", "Ensemble", "SpectrumParams",
           "ModeIndex", "PerturbedMode", "ScalingStudy", "ResidualReport",
           "TransversalityReport")


def test_every_package_record_is_listed():
    defined = {name for module in MODULES for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__
               and hasattr(obj, "_fields")}
    assert defined == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(records, name):
    record = records[name]
    assert isinstance(record, tuple)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):  # nor can a new attribute be added
        record.extra = None

"""Every record the package defines is an immutable named tuple."""

import numpy as np
import pytest

from gravdicke import cli, emission, maxwell, metric, modes, spectrum
from gravdicke.emission import Box, Ensemble
from gravdicke.errors import PhysicsDomainError
from gravdicke.maxwell import residual_slope_study, transversality_check
from gravdicke.metric import PhysicalConstants, WeakFieldMetric
from gravdicke.modes import ModeIndex, PerturbedMode, flat_polarization_basis
from gravdicke.spectrum import SpectrumParams

MODULES = (cli, emission, maxwell, metric, modes, spectrum)


@pytest.fixture(scope="module")
def records() -> dict:
    """One instance of each record, keyed by class name."""
    cfg = cli.load_config(None, {"scenario": "curved-spectrum"})
    constants = PhysicalConstants.scaled()
    curved = WeakFieldMetric(a=1e-3)
    box = Box(1.0)
    index = ModeIndex((0.3, 0.2, 1.0), 2)
    mode = PerturbedMode(index, curved, constants)
    study = residual_slope_study(index.k, 2, constants, 0.3, (0.2, -0.15, 0.35), (1e-3, 1e-2))
    found = [cfg, cfg.metric, cfg.spectrum, cfg.spectrum.grid, cfg.ensemble, cfg.dicke,
             cfg.delta, cfg.verify, cfg.tolerances,
             constants, curved, box, Ensemble(np.zeros((2, 3)), box),
             SpectrumParams(nu=1.0, gamma=1e-2, metric=curved, theta0=0.5, constants=constants),
             index, mode, study, study.reports[0], transversality_check(mode, 0.1)]
    return {type(record).__name__: record for record in found}


# each record's fields, in order: a field added to a record shows here, as a config
# leaf shows in test_cli's SETTABLE_KEYS
FIELDS = {
    "Config": ("scenario", "seed", "output_dir", "unit_regime", "threads", "metric",
               "spectrum", "ensemble", "dicke", "delta", "verify", "tolerances"),
    "MetricConfig": ("a", "g"),
    "SpectrumConfig": ("nu", "gamma", "theta0", "grid"),
    "GridConfig": ("lo", "hi", "points"),
    "EnsembleConfig": ("n_atoms", "replicas", "box_heights"),
    "DickeConfig": ("n_atoms", "box_wavelengths", "n_offpeak", "replicas"),
    "DeltaConfig": ("halvings", "grid_points"),
    "VerifyConfig": ("n_modes", "a_values"),
    "Tolerances": ("slope", "mc_sigma", "mc_fraction"),
    "PhysicalConstants": ("c",),
    "WeakFieldMetric": ("a",),
    "Box": ("edge",),
    "Ensemble": ("positions",),
    "SpectrumParams": ("nu", "gamma", "metric", "theta0", "constants"),
    "ModeIndex": ("k", "s"),
    "PerturbedMode": ("index", "metric", "constants", "basis"),
    "ScalingStudy": ("wave_slope", "gauss_slope", "reports"),
    "ResidualReport": ("residual_vector", "gauss_residual", "discretization_estimate",
                       "gauss_discretization", "inconclusive"),
    "TransversalityReport": ("p_dot_f", "k_dot_f", "p_dot_k"),
}
RECORDS = tuple(FIELDS)


def record_classes() -> list[type]:
    return [obj for module in MODULES for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and hasattr(obj, "_fields")]


def test_every_package_record_is_listed():
    assert {cls.__name__ for cls in record_classes()} == set(RECORDS)


def test_one_constructor_per_record():
    # a record is built by its __new__, which checks it; a public factory beside it would
    # be a second way in.  The one preset is PhysicalConstants.scaled, which calls __new__
    factories = {f"{cls.__name__}.{name}" for cls in record_classes()
                 for name, attr in vars(cls).items()
                 if isinstance(attr, classmethod) and not name.startswith("_")}
    assert factories == {"PhysicalConstants.scaled"}
    # the polarization basis is derived from k, never passed in
    index = ModeIndex((0.3, 0.2, 1.0), 2)
    with pytest.raises(TypeError):
        PerturbedMode(index, WeakFieldMetric(a=1e-3), PhysicalConstants.scaled(),
                      flat_polarization_basis(index.k))


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


# the records whose fields are exactly their constructor's arguments; PerturbedMode derives
# its basis, and Ensemble checks against a box it does not keep
CHECKED = ("PhysicalConstants", "WeakFieldMetric", "Box", "SpectrumParams", "ModeIndex")


@pytest.mark.parametrize("record, change", [
    (PhysicalConstants.scaled(), {"c": 0.0}),
    (WeakFieldMetric(a=1e-3), {"a": -1.0}),
    (Box(1.0), {"edge": float("nan")}),
    (SpectrumParams(1.0, 1e-2, WeakFieldMetric(a=1e-3), 0.5, PhysicalConstants.scaled()),
     {"gamma": -1.0}),
    (ModeIndex((0.3, 0.2, 1.0), 2), {"s": 3}),
], ids=CHECKED)
def test_replace_runs_the_constructor_checks(record, change):
    with pytest.raises(PhysicsDomainError):
        record._replace(**change)
    with pytest.raises(PhysicsDomainError):
        type(record)._make({**record._asdict(), **change}.values())
    # an unchanged record comes back equal, through the same checks
    same = record._replace()
    assert type(same) is type(record)
    assert all(np.array_equal(x, y) for x, y in zip(same, record))


@pytest.mark.parametrize("record, change, constructor", [
    (PerturbedMode(ModeIndex((0.3, 0.2, 1.0), 2), WeakFieldMetric(a=1e-3),
                   PhysicalConstants.scaled()),
     {"basis": (np.zeros(3), np.zeros(3))}, r"PerturbedMode\(index, metric, constants\)"),
    (Ensemble(np.zeros((2, 3)), Box(1.0)), {"positions": np.full((2, 3), np.nan)},
     r"Ensemble\(positions, box\)"),
], ids=("PerturbedMode", "Ensemble"))
def test_replace_of_a_derived_record_names_its_constructor(record, change, constructor):
    # their fields are not their constructor's arguments: a derived basis, and a box that
    # is checked and not kept.  No record is built from fields, changed or not
    for replace in (lambda: record._replace(**change), lambda: record._replace(),
                    lambda: type(record)._make(record)):
        with pytest.raises(PhysicsDomainError, match=constructor):
            replace()


def test_checked_records_are_listed():
    assert {cls.__name__ for cls in record_classes()
            if issubclass(cls, metric.CheckedRecord)} == set(CHECKED)

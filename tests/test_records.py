"""The package's records: construction, immutability, equality, hash, repr, validation."""
import copy
import math
import pickle
import re

import pytest

import pmcorr as pc
from pmcorr.cli import Scenario

PROBE_FIELDS = {"mass": 1.2e-24, "sigma0": 7.8e-9, "ell0": 5e-8, "gamma": 3.0}
LENS_FIELDS = {"omega0": 2e8, "wavelength": 532e-9, "detuning": 0.0, "v_cm": 100.0, "t_int": 1e-6}

#: one instance of each record, with the repr the records have always printed
RECORDS = [
    (pc.ProbeSpec(**PROBE_FIELDS), "ProbeSpec(mass=1.2e-24, sigma0=7.8e-09, ell0=5e-08, gamma=3.0)"),
    (pc.EnvironmentSpec(lam=1e15), "EnvironmentSpec(lam=1000000000000000.0)"),
    (pc.KernelParams(b_sq=2.5), "KernelParams(b_sq=2.5)"),
    (pc.LensSpec(**LENS_FIELDS),
     "LensSpec(omega0=200000000.0, wavelength=5.32e-07, detuning=0.0, v_cm=100.0, t_int=1e-06)"),
    (pc.CovarianceMatrix(1.0, 0.5, 2.0), "CovarianceMatrix(sxx=1.0, sxp=0.5, spp=2.0, det_hint=None)"),
    (pc.CfiQuadrature(1.0, 2.0), "CfiQuadrature(quadrature=1.0, gaussian_identity=2.0)"),
    (pc.FisherResult(1.0, 2.0, 3.0, 4.0, 0.5, -0.25),
     "FisherResult(qfi_analytic=1.0, qfi_numeric=2.0, cfi_closed=3.0, cfi_quadrature=4.0, "
     "purity=0.5, purity_derivative=-0.25)"),
    (pc.TABLE1_REFERENCE[0],
     "TgiRow(gamma=-50.0, tau_max=1.71e-05, purity_at_tau_max=0.563, relative_purity_rate=58488.0, "
     "lambda_sq_qfi=0.246, tgi_db=11.28)"),
    (Scenario(pc.ProbeSpec(**PROBE_FIELDS), 1e15, (1.0, 2.0, 3.0), None, {"t_s": None}),
     "Scenario(probe=ProbeSpec(mass=1.2e-24, sigma0=7.8e-09, ell0=5e-08, gamma=3.0), "
     "lam=1000000000000000.0, gas=(1.0, 2.0, 3.0), t=None, parameters={'t_s': None})"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]

#: each validated record: its class, valid fields, and one invalid field with its message
VALIDATED = [
    (pc.ProbeSpec, PROBE_FIELDS, "mass", 0.0, "mass must be positive and finite, got 0.0"),
    (pc.ProbeSpec, PROBE_FIELDS, "mass", math.inf, "mass must be positive and finite, got inf"),
    (pc.ProbeSpec, PROBE_FIELDS, "sigma0", -1.0, "sigma0 must be positive and finite, got -1.0"),
    (pc.ProbeSpec, PROBE_FIELDS, "sigma0", math.nan, "sigma0 must be positive and finite, got nan"),
    (pc.ProbeSpec, PROBE_FIELDS, "ell0", 0.0, "ell0 must be positive (math.inf allowed), got 0.0"),
    (pc.ProbeSpec, PROBE_FIELDS, "ell0", math.nan,
     "ell0 must be positive (math.inf allowed), got nan"),
    (pc.ProbeSpec, PROBE_FIELDS, "gamma", math.nan, "gamma must be finite, got nan"),
    (pc.EnvironmentSpec, {"lam": 1e15}, "lam", -1.0, "lam must be finite and >= 0, got -1.0"),
    (pc.EnvironmentSpec, {"lam": 1e15}, "lam", math.inf, "lam must be finite and >= 0, got inf"),
    (pc.KernelParams, {"b_sq": 2.5}, "b_sq", 0.0, "b_sq must be positive, got 0.0"),
    (pc.LensSpec, LENS_FIELDS, "omega0", 0.0, "omega0 must be positive and finite, got 0.0"),
    (pc.LensSpec, LENS_FIELDS, "wavelength", math.inf,
     "wavelength must be positive and finite, got inf"),
    (pc.LensSpec, LENS_FIELDS, "detuning", math.nan, "detuning must be finite, got nan"),
    (pc.LensSpec, LENS_FIELDS, "v_cm", -1.0, "v_cm must be positive and finite, got -1.0"),
    (pc.LensSpec, LENS_FIELDS, "t_int", 0.0, "t_int must be positive and finite, got 0.0"),
]


def field_names(record) -> tuple:
    return getattr(record, "_fields", None) or type(record).__slots__


def raises_exactly(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def test_keyword_and_positional_construction():
    probe = pc.ProbeSpec(mass=1.2e-24, sigma0=7.8e-9)
    assert (probe.ell0, probe.gamma) == (math.inf, 0.0)
    assert pc.ProbeSpec(**PROBE_FIELDS) == pc.ProbeSpec(*PROBE_FIELDS.values())
    lens = pc.LensSpec(**LENS_FIELDS)
    assert [getattr(lens, name) for name in LENS_FIELDS] == list(LENS_FIELDS.values())
    assert pc.EnvironmentSpec(1e15) == pc.EnvironmentSpec(lam=1e15)
    assert pc.KernelParams(2.5) == pc.KernelParams(b_sq=2.5)
    row = pc.TABLE1_REFERENCE[0]
    assert row == pc.TgiRow(gamma=-50.0, tau_max=17.1e-6, purity_at_tau_max=0.563,
                            relative_purity_rate=58488.0, lambda_sq_qfi=0.246, tgi_db=11.28)
    assert (row.gamma, row.tau_max, row.tgi_db) == (-50.0, 17.1e-6, 11.28)
    assert pc.CovarianceMatrix(1.0, 0.5, 2.0).det_hint is None


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_fields_cannot_be_assigned_or_added(record):
    for name in field_names(record):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_equal_values_compare_and_hash_equal(record):
    values = [getattr(record, name) for name in field_names(record)]
    twin = type(record)(*values)
    assert twin == record and twin is not record
    assert not twin != record
    if not isinstance(record, Scenario):  # its parameters are a dict
        assert hash(twin) == hash(record)


def test_different_values_or_records_compare_unequal():
    probe = pc.ProbeSpec(**PROBE_FIELDS)
    assert probe != probe.with_gamma(4.0)
    assert probe.with_gamma(4.0).with_gamma(3.0) == probe
    assert pc.EnvironmentSpec(lam=2.5) != pc.KernelParams(b_sq=2.5)
    assert probe != tuple(PROBE_FIELDS.values())


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("cls,fields,name,bad,message", VALIDATED)
def test_validation_messages_are_unchanged(cls, fields, name, bad, message):
    with raises_exactly(message):
        cls(**{**fields, name: bad})


@pytest.mark.parametrize("cls,fields,name,bad,message", VALIDATED)
def test_no_construction_path_skips_validation(cls, fields, name, bad, message):
    bad_fields = {**fields, name: bad}
    with raises_exactly(message):
        cls(*bad_fields.values())
    record = cls(**fields)
    if hasattr(cls, "_make"):
        with raises_exactly(message):
            cls._make(bad_fields.values())
    if hasattr(record, "_replace"):
        with raises_exactly(message):
            record._replace(**{name: bad})
    if name == "gamma":
        with raises_exactly(message):
            record.with_gamma(bad)
    # copies and pickles are rebuilt through the validating constructor
    for rebuilt in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert rebuilt == record and type(rebuilt) is cls

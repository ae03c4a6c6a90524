import tracemalloc

import numpy as np
import pytest

from aeloc import cli, parse_config, run_experiment
from aeloc.signals import BandpassFilter, FilterSpec
from aeloc.util import fmt


def build_dataset(out_dir, *, specimen=None, prototypes=None, tests=None,
                  test_kind="continuous-noise", seed=1):
    """Synthesize a small dataset; shorter records than the defaults keep tests fast."""
    raw = {
        "specimen": {"record_length": 8192, **(specimen or {})},
        "prototype_positions_mm": (
            prototypes if prototypes is not None else [900.0 + 400.0 * k for k in range(6)]
        ),
        "test_positions_mm": tests if tests is not None else [],
        "test_source_kind": test_kind,
        "seed": seed,
    }
    cfg = parse_config(raw)
    run_experiment(cfg, out_dir)
    return cfg


def summary_report(path, f_low=35_000.0, f_high=45_000.0, *, order=4, max_delay_s=2.5e-3,
                   sample_rate=1e6):
    """Write a calibration report of the summary fields ``learn`` reads: band, order, delay
    window and sample rate; return its path."""
    est = BandpassFilter(FilterSpec(f_low, f_high, order), sample_rate, max_delay_s)
    return write_summary(path, est)


def write_summary(path, est, velocity_km_s=1.7):
    """Write a calibration report of the velocity and the estimator ``est``, whose fields
    are spelled by ``est.fields()``; return its path."""
    fields = {"velocity_km_s": velocity_km_s, **est.fields()}
    path.write_text("".join(f"# {key}={fmt(value)}\n" for key, value in fields.items()))
    return path


@pytest.fixture(scope="session")
def noiseless_dataset(tmp_path_factory):
    """Default dispersive geometry without noise: 12 prototypes plus a few probe tests.

    Test sites: 900 (terminal prototype), 1000 and 2000 (midpoints),
    1700 (interior prototype), 3100 (terminal prototype).
    """
    out = tmp_path_factory.mktemp("noiseless")
    cfg = build_dataset(
        out,
        specimen={"noise_snr_db": None},
        prototypes=[900.0 + 200.0 * k for k in range(12)],
        tests=[900.0, 1000.0, 1700.0, 2000.0, 3100.0],
    )
    return out, cfg


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    """Noiseless dataset run through calibrate (coarse grid) and learn once."""
    root = tmp_path_factory.mktemp("chain")
    data = root / "data"
    build_dataset(
        data,
        specimen={"noise_snr_db": None},
        prototypes=[900.0 + 200.0 * k for k in range(12)],
        tests=[900.0, 1000.0, 1700.0, 2000.0, 3100.0],
        seed=6,
    )
    report = root / "cal.csv"
    assert (
        cli.main(
            [
                "calibrate",
                str(data),
                "--report",
                str(report),
                "--f-start",
                "30000",
                "--f-stop",
                "50000",
                "--step",
                "5000",
            ]
        )
        == 0
    )
    db = root / "proto.db"
    assert cli.main(["learn", str(data), "--db", str(db), "--calibration", str(report)]) == 0
    return root, data, report, db


def scalar_delay_reference(values, max_lag, sample_rate, refine=True):
    """The peak rule for one correlation, written as a scalar: delay in s, or raises.

    The reference :func:`aeloc.signals.pick_delays` must match bit for bit,
    error type and message included.
    """
    from aeloc.signals import DelayWindowError, NoSignalError

    v = np.asarray(values)
    if not np.any(v):
        raise NoSignalError("no signal: correlation function is identically zero")
    i = int(np.argmax(v))
    if i == 0 or i == v.size - 1:
        raise DelayWindowError(
            f"delay window exceeded: correlation peak at boundary lag "
            f"{i - max_lag:+d}; increase max_lag"
        )
    offset = 0.0
    if refine:
        denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
        if denom != 0.0:
            offset = float(np.clip(0.5 * (v[i - 1] - v[i + 1]) / denom, -0.5, 0.5))
    return float((i - max_lag + offset) / sample_rate)


def reference_rows(windows, max_lag, sample_rate, refine=True):
    """:func:`scalar_delay_reference` of every row: (delays with NaN, {row: error})."""
    delays, errors = np.full(len(windows), np.nan), {}
    for i, row in enumerate(windows):
        try:
            delays[i] = scalar_delay_reference(row, max_lag, sample_rate, refine)
        except ValueError as exc:
            errors[i] = exc
    return delays, errors


def traced_peak(fn):
    """``fn()`` and the most bytes traced above what was held when it started."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()

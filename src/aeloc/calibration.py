"""Bandpass calibration sweep: pick the band whose (position, delay) pairs are most linear.

A fixed-width bandpass window slides across frequency; for every band the
prototype pairs are filtered, their delays estimated, and a line fitted.
The band with the smallest residual (expressed in position units) wins, and
the wave velocity follows from the fitted slope.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .signals import (
    BandpassFilter,
    DelayWindowError,
    FilterSpec,
    NoSignalError,
    apply_filter,  # noqa: F401  (kept importable by name for perfbench's alias test)
    design_bandpass,
    filtered_delay,
)
from .util import atomic_write_text, fmt

# mm/s per km/s
_KM_S = 1e6


@dataclass(frozen=True)
class BandGrid:
    """Sweep lattice: bands [f_low, f_low + width] with f_low stepped from f_start.

    Bands are kept inside f_stop, so the default 10 kHz window stepped by
    1 kHz over 5-75 kHz yields 61 bands; widen f_stop to reproduce other
    conventions.
    """

    width: float = 10_000.0
    step: float = 1_000.0
    f_start: float = 5_000.0
    f_stop: float = 75_000.0

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.step <= 0.0:
            raise ValueError("band width and step must be positive")
        if self.f_start <= 0.0:
            raise ValueError("f_start must be positive")
        if self.f_start + self.width > self.f_stop:
            raise ValueError(
                f"grid generates no bands: f_start + width = "
                f"{self.f_start + self.width} Hz exceeds f_stop = {self.f_stop} Hz"
            )

    def band_lows(self) -> np.ndarray:
        count = int(np.floor((self.f_stop - self.width - self.f_start) / self.step + 1e-9)) + 1
        return self.f_start + self.step * np.arange(count)


@dataclass(frozen=True, eq=False)
class CalibrationRecord:
    """One band's outcome; delays hold NaN where estimation failed."""

    band: FilterSpec
    delays: np.ndarray
    rmse_mm: float
    slope_s_per_mm: float
    intercept_s: float
    outlier_indices: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """Every band's record plus the chosen one: least rmse, ties to the lowest f_low."""

    best: CalibrationRecord
    records: list[CalibrationRecord]
    positions_mm: np.ndarray

    @property
    def best_band(self) -> FilterSpec:
        return self.best.band

    @property
    def velocity_km_s(self) -> float:
        return _velocity_km_s(self.best.slope_s_per_mm)

    @property
    def outliers(self) -> tuple[int, ...]:
        return self.best.outlier_indices

    @property
    def best_delays(self) -> np.ndarray:
        return self.best.delays


def fit_line(positions_mm, delays_s) -> tuple[float, float, float]:
    """Ordinary least squares delay = slope * position + intercept.

    Returns (slope in s/mm, intercept in s, rmse in mm); the residual RMS is
    divided by |slope| so the error is comparable to location errors.
    """
    z = np.asarray(positions_mm, dtype=np.float64)
    dt = np.asarray(delays_s, dtype=np.float64)
    if z.size != dt.size or z.size < 2:
        raise ValueError("need at least two (position, delay) points")
    if np.ptp(z) == 0.0:
        raise ValueError("all positions identical; line fit undefined")
    slope, intercept = np.polyfit(z, dt, 1)
    resid = dt - (slope * z + intercept)
    rms_s = float(np.sqrt(np.mean(resid * resid)))
    rmse_mm = float("inf") if slope == 0.0 else rms_s / abs(slope)
    return float(slope), float(intercept), rmse_mm


def _robust_fit(
    z: np.ndarray, dt: np.ndarray, sample_rate: float
) -> tuple[float, float, float, tuple[int, ...]]:
    """One-pass outlier rejection: drop points whose residual exceeds three times
    the median absolute residual, never more than N//4 of them and never points
    within one sample period (the delay-quantization floor)."""
    slope, intercept, rmse = fit_line(z, dt)
    resid = np.abs(dt - (slope * z + intercept))
    floor = 1.0 / sample_rate
    threshold = max(3.0 * float(np.median(resid)), floor)
    suspects = np.nonzero(resid > threshold)[0]
    if suspects.size == 0:
        return slope, intercept, rmse, ()
    cap = len(z) // 4
    suspects = suspects[np.argsort(resid[suspects])[::-1][:cap]]
    if suspects.size == 0 or len(z) - suspects.size < 2:
        return slope, intercept, rmse, ()
    keep = np.setdiff1d(np.arange(len(z)), suspects)
    slope, intercept, rmse = fit_line(z[keep], dt[keep])
    return slope, intercept, rmse, tuple(int(i) for i in np.sort(suspects))


def estimate_velocity(slope_s_per_mm: float, sensor_separation_mm: float) -> float:
    """Wave velocity in km/s from the fitted slope.

    With both sensors outside the source region the delay changes by two time
    units per unit of position, so v = 2 / |slope| (sign dropped).  The
    separation is accepted for geometry validation only.
    """
    if sensor_separation_mm <= 0.0:
        raise ValueError("sensor separation must be positive")
    if slope_s_per_mm == 0.0:
        raise ValueError("degenerate geometry: zero slope cannot yield a velocity")
    return _velocity_km_s(slope_s_per_mm)


def _velocity_km_s(slope_s_per_mm: float) -> float:
    return 2.0 / abs(slope_s_per_mm) / _KM_S


def _worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent jobs: the CPUs this process may run on, at most."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, tasks)


def sweep_bands(
    prototype_signals,
    grid: BandGrid,
    order: int = 4,
    *,
    max_lag: int,
    refine: bool = True,
) -> CalibrationResult:
    """Evaluate every band in the grid on the prototype pairs and pick the flattest fit.

    ``prototype_signals`` is a sequence of (position_mm, (ch1, ch2)) with
    Waveform channels.  Bands invalid for the sample rate are skipped with a
    warning; bands where fewer than three delays survive get infinite rmse.
    Ties on rmse resolve to the lowest f_low.  Bands run concurrently, one
    thread per CPU in the process affinity mask; the result is the same as
    that of a serial sweep.
    """
    pairs = [(float(z), ch1, ch2) for z, (ch1, ch2) in prototype_signals]
    if len(pairs) < 3:
        raise ValueError(f"calibration needs at least 3 prototypes, got {len(pairs)}")
    positions = np.array([z for z, _, _ in pairs])
    if np.unique(positions).size < 2:
        raise ValueError("prototype positions are all identical")
    sample_rate = pairs[0][1].sample_rate

    filters: list[BandpassFilter] = []
    for f_low in grid.band_lows():
        spec = FilterSpec(float(f_low), float(f_low + grid.width), order)
        try:
            filters.append(design_bandpass(spec, sample_rate))
        except ValueError as exc:
            warnings.warn(f"skipping band {spec.f_low}-{spec.f_high} Hz: {exc}", stacklevel=2)
    if not filters:
        raise ValueError("every band in the grid was invalid for this sample rate")

    def band_record(filt: BandpassFilter) -> CalibrationRecord:
        delays = np.full(len(pairs), np.nan)
        for i, (_, ch1, ch2) in enumerate(pairs):
            try:
                delays[i] = filtered_delay(filt, ch1, ch2, max_lag, refine=refine).delay
            except (NoSignalError, DelayWindowError):
                pass
        valid = np.nonzero(np.isfinite(delays))[0]
        if valid.size < 3 or np.unique(positions[valid]).size < 2:
            return CalibrationRecord(filt.spec, delays, float("inf"), 0.0, 0.0)
        slope, intercept, rmse, outliers = _robust_fit(
            positions[valid], delays[valid], sample_rate
        )
        return CalibrationRecord(
            filt.spec, delays, rmse, slope, intercept, tuple(int(valid[i]) for i in outliers)
        )

    # sosfilt and the FFTs release the GIL, so bands overlap on threads;
    # map keeps band order, hence the same argmin and tie-break as a serial loop
    with ThreadPoolExecutor(max_workers=_worker_count(len(filters))) as pool:
        records = list(pool.map(band_record, filters))
    best = records[int(np.argmin([rec.rmse_mm for rec in records]))]
    if not np.isfinite(best.rmse_mm):
        raise ValueError("no band produced enough usable delay estimates")
    return CalibrationResult(best=best, records=records, positions_mm=positions)


def rmse_surface_is_flat(result: CalibrationResult, sample_rate: float) -> bool:
    """True when usable bands are indistinguishable (no meaningful minimum).

    Bands are compared above a floor of one delay-quantization step so that
    nondispersive data, whose residuals are all at the numeric floor, reads
    as flat.
    """
    finite = [r.rmse_mm for r in result.records if np.isfinite(r.rmse_mm)]
    if len(finite) < 2:
        return False
    slope = result.best.slope_s_per_mm
    floor = (1.0 / sample_rate) / abs(slope) if slope else 0.0
    return max(finite) <= max(2.0 * min(finite), floor)


def write_calibration_report(path, result: CalibrationResult, order: int) -> None:
    """Delimited per-band table plus a '#'-prefixed summary block."""
    lines = ["f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm"]
    for rec in result.records:
        lines.append(
            f"{fmt(rec.band.f_low)},{fmt(rec.band.f_high)},"
            f"{fmt(rec.rmse_mm)},{fmt(rec.slope_s_per_mm)}"
        )
    lines.append(f"# best_f_low_hz={fmt(result.best_band.f_low)}")
    lines.append(f"# best_f_high_hz={fmt(result.best_band.f_high)}")
    lines.append(f"# filter_order={order}")
    lines.append(f"# velocity_km_s={fmt(result.velocity_km_s)}")
    lines.append("# outlier_indices=" + ",".join(str(i) for i in result.outliers))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_calibration_summary(path) -> tuple[FilterSpec, float]:
    """Recover the chosen band and velocity from a calibration report."""
    summary: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#") and "=" in line:
                key, _, value = line.lstrip("# ").partition("=")
                summary[key] = value
    try:
        spec = FilterSpec(
            float(summary["best_f_low_hz"]),
            float(summary["best_f_high_hz"]),
            int(summary["filter_order"]),
        )
        velocity = float(summary["velocity_km_s"])
    except KeyError as exc:
        raise ValueError(f"{path}: calibration summary is missing {exc}") from exc
    return spec, velocity

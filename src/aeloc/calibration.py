"""Bandpass calibration sweep: pick the band whose (position, delay) pairs are most linear.

A fixed-width bandpass window slides across frequency; for every band the
prototype pairs' delays are estimated through that band and a line fitted.
The band with the smallest residual (expressed in position units) wins, and
the wave velocity follows from the fitted slope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .signals import (
    BandpassFilter,
    CrossSpectra,
    FilterSpec,
    apply_filter,  # noqa: F401  (kept importable by name for perfbench's alias test)
    design_bandpass,
    pick_delays,
)
from .svgplot import scatter_svg
from .util import KM_S_TO_MM_S, atomic_write_text, fmt, key_value_fields, positive_field


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
        for key, value in asdict(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
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
    """One band's outcome; delays hold NaN where estimation failed, and ``errors`` the
    picker's error of each such row (:func:`~aeloc.signals.pick_delays`)."""

    band: FilterSpec
    delays: np.ndarray
    errors: dict[int, ValueError]
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
    sample_rate: float  # the prototypes', in Hz

    @property
    def best_band(self) -> FilterSpec:
        return self.best.band

    @property
    def velocity_km_s(self) -> float:
        return estimate_velocity(self.best.slope_s_per_mm)


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
    cap = len(z) // 4
    suspects = suspects[np.argsort(resid[suspects])[::-1][:cap]]
    if suspects.size == 0 or len(z) - suspects.size < 2:
        return slope, intercept, rmse, ()
    keep = np.setdiff1d(np.arange(len(z)), suspects)
    slope, intercept, rmse = fit_line(z[keep], dt[keep])
    return slope, intercept, rmse, tuple(int(i) for i in np.sort(suspects))


def estimate_velocity(slope_s_per_mm: float) -> float:
    """Wave velocity in km/s from the fitted slope.

    With both sensors outside the source region the delay changes by two time
    units per unit of position, so v = 2 / |slope| (sign dropped).
    """
    if slope_s_per_mm == 0.0:
        raise ValueError("degenerate geometry: zero slope cannot yield a velocity")
    return 2.0 / abs(slope_s_per_mm) / KM_S_TO_MM_S


def _band_record(
    spec: FilterSpec,
    delays: np.ndarray,
    errors: dict[int, ValueError],
    positions: np.ndarray,
    sample_rate: float,
) -> CalibrationRecord:
    valid = np.nonzero(np.isfinite(delays))[0]
    if valid.size < 3 or np.unique(positions[valid]).size < 2:
        return CalibrationRecord(spec, delays, errors, float("inf"), 0.0, 0.0)
    slope, intercept, rmse, outliers = _robust_fit(positions[valid], delays[valid], sample_rate)
    return CalibrationRecord(
        spec, delays, errors, rmse, slope, intercept, tuple(int(valid[i]) for i in outliers)
    )


class _ChannelsOf:
    """The (ch1, ch2) of (position_mm, (ch1, ch2)) items, with their length, for
    :meth:`~aeloc.signals.CrossSpectra.of_pairs`; iterating appends each position to
    ``positions`` and drops the pair before the next item is read."""

    def __init__(self, items):
        self.items = items
        self.positions: list[float] = []

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        for z, chans in self.items:
            self.positions.append(float(z))
            yield chans
            del chans


def prototype_spectra(prototype_signals, max_lag: int) -> tuple[np.ndarray, CrossSpectra]:
    """Positions and cross-spectra of (position_mm, (ch1, ch2)) items, read in one pass.

    ``prototype_signals`` is any iterable with a length; a lazy one, such as
    :func:`~aeloc.pipeline.load_dataset`'s, holds one pair's waveforms at a time.
    """
    channels = _ChannelsOf(prototype_signals)
    spectra = CrossSpectra.of_pairs(channels, max_lag)
    return np.array(channels.positions), spectra


def sweep_bands(
    prototype_signals,
    grid: BandGrid,
    order: int,
    *,
    max_lag: int,
) -> CalibrationResult:
    """Evaluate every band in the grid on the prototype pairs and pick the flattest fit.

    ``prototype_signals`` is an iterable with a length of (position_mm, (ch1, ch2))
    with Waveform channels, read once (:func:`prototype_spectra`).  Bands invalid
    for the sample rate are skipped with a warning; bands where fewer than three
    delays survive get infinite rmse.  Ties on rmse resolve to the lowest f_low.  A best
    band whose fitted line leaves the ``max_lag`` window at a prototype position is refused.

    Delays come from :func:`~aeloc.signals.filtered_delay`'s estimator: the spectra
    are taken once (:class:`~aeloc.signals.CrossSpectra`), and each band costs one
    batched inverse FFT and one :func:`~aeloc.signals.pick_delays` over all pairs.
    """
    if len(prototype_signals) < 3:
        raise ValueError(f"calibration needs at least 3 prototypes, got {len(prototype_signals)}")
    positions, spectra = prototype_spectra(prototype_signals, max_lag)
    if np.unique(positions).size < 2:
        raise ValueError("prototype positions are all identical")

    records = []
    for f_low in grid.band_lows():
        spec = FilterSpec(float(f_low), float(f_low + grid.width), order)
        try:
            filt = design_bandpass(spec, spectra.sample_rate)
        except ValueError as exc:
            warnings.warn(f"skipping band {spec.f_low}-{spec.f_high} Hz: {exc}", stacklevel=2)
            continue
        # the windows go straight to the picker: no band's outlive its delays
        delays, errors = pick_delays(spectra.correlations(filt), spectra.sample_rate)
        records.append(_band_record(spec, delays, errors, positions, spectra.sample_rate))
    if not records:
        raise ValueError("every band in the grid was invalid for this sample rate")
    best = records[int(np.argmin([rec.rmse_mm for rec in records]))]
    if not np.isfinite(best.rmse_mm):
        raise ValueError("no band produced enough usable delay estimates")
    # a delay the line puts outside the window cannot have been picked inside it
    fitted = best.slope_s_per_mm * positions + best.intercept_s
    outside = np.flatnonzero(np.abs(fitted) * spectra.sample_rate >= max_lag)
    if outside.size:
        at = outside[0]
        raise ValueError(
            f"band {best.band.f_low:.0f}-{best.band.f_high:.0f} Hz: the fitted delay at "
            f"{positions[at]} mm is {fitted[at]:.5g} s, outside the delay window of "
            f"{max_lag} samples"
        )
    return CalibrationResult(best, records, positions, spectra.sample_rate)


def rmse_surface_is_flat(result: CalibrationResult) -> bool:
    """True when usable bands are indistinguishable (no meaningful minimum).

    Bands are compared above a floor of one delay-quantization step so that
    nondispersive data, whose residuals are all at the numeric floor, reads
    as flat.
    """
    finite = [r.rmse_mm for r in result.records if np.isfinite(r.rmse_mm)]
    if len(finite) < 2:
        return False
    slope = result.best.slope_s_per_mm
    floor = (1.0 / result.sample_rate) / abs(slope) if slope else 0.0
    return max(finite) <= max(2.0 * min(finite), floor)


def write_calibration_report(path, result: CalibrationResult, max_delay_s: float) -> None:
    """Delimited per-band table plus a '#'-prefixed summary block: the velocity, the outliers,
    then the fields of the estimator ``learn`` takes, the best band at the result's rate with
    the delay window ``max_delay_s`` the sweep was given."""
    est = BandpassFilter(result.best_band, result.sample_rate, max_delay_s)
    lines = ["f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm"]
    for rec in result.records:
        lines.append(
            f"{fmt(rec.band.f_low)},{fmt(rec.band.f_high)},"
            f"{fmt(rec.rmse_mm)},{fmt(rec.slope_s_per_mm)}"
        )
    lines.append(f"# velocity_km_s={fmt(result.velocity_km_s)}")
    lines.append("# outlier_indices=" + ",".join(str(i) for i in result.best.outlier_indices))
    lines.extend(f"# {key}={fmt(value)}" for key, value in est.fields().items())
    atomic_write_text(path, "\n".join(lines) + "\n")


def calibration_scatter_svg(result: CalibrationResult) -> str:
    """The best band's delay against position: the prototypes whose delay was estimated,
    and the fitted line across every prototype position."""
    best, positions = result.best, result.positions_mm
    estimated = np.isfinite(best.delays)
    ends = [float(positions.min()), float(positions.max())]
    fit = [best.slope_s_per_mm * z + best.intercept_s for z in ends]
    return scatter_svg(
        f"Delay vs position, band {best.band.f_low:.0f}-{best.band.f_high:.0f} Hz",
        "source position [mm]",
        "delay [s]",
        [("linear fit", ends, fit, "line"),
         ("prototype source", positions[estimated], best.delays[estimated], "plus")],
    )


def read_calibration_report(path) -> tuple[BandpassFilter, float]:
    """The estimator a calibration report records (:meth:`BandpassFilter.read`) and its
    velocity in km/s, which must be finite and positive too."""
    with open(path) as fh:
        lines = [(ln, line.strip()) for ln, line in enumerate(fh, start=1)]
    summary = key_value_fields(path, [(ln, t) for ln, t in lines if t.startswith("#") and "=" in t])
    filt = BandpassFilter.read(path, summary, "calibrate again")
    return filt, positive_field(path, summary, "velocity_km_s", "calibrate again")


def read_calibration_summary(path) -> tuple[FilterSpec, float]:
    """The chosen band and velocity of a calibration report (:func:`read_calibration_report`)."""
    est, velocity = read_calibration_report(path)
    return est.spec, velocity

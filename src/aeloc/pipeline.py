"""Location and evaluation stages tying filtering, delay estimation, and regression together."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import grnn
from .signals import (
    BandpassFilter,
    DelayWindowError,
    NoSignalError,
    Waveform,
    filtered_delay,
    lag_window,
    pair_delay,  # noqa: F401  (kept importable by name for perfbench's alias test)
    read_waveform_pair,
)
from .simulator import MANIFEST_NAME, ManifestRow, read_manifest
from .svgplot import scatter_svg
from .util import atomic_write_text, fmt

# errors below this never count as outliers: one delay-quantization step is
# roughly v / (2 fs) ~ 0.85 mm for the default specimen
OUTLIER_FLOOR_MM = 1.0

DEFAULT_MAX_DELAY_S = 2.5e-3


@dataclass(frozen=True)
class LocationEstimate:
    """Estimated source position with the delay and weight diagnostics behind it."""

    position_mm: float
    delay_s: float
    top_weight: float
    extrapolated: bool


def locate_pair(
    pset: grnn.PrototypeSet,
    filt: BandpassFilter,
    ch1: Waveform,
    ch2: Waveform,
    *,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    refine: bool = True,
) -> LocationEstimate:
    """Filter both channels, estimate their arrival-time difference, and regress a position.

    The estimate is marked extrapolated when the delay falls outside the range
    spanned by the prototype delays (or when every kernel underflowed), since
    the returned position is then a boundary-clamped guess.
    """
    if pset.given_dim != 1 or pset.hidden_dim != 1:
        raise ValueError("the location pipeline expects a (delay -> position) database")
    delay = filtered_delay(filt, ch1, ch2, lag_window(max_delay_s, ch1.sample_rate), refine)
    est = grnn.estimate(pset, [delay.delay])
    delays = pset.given[:, 0]
    outside = delay.delay < delays.min() or delay.delay > delays.max()
    return LocationEstimate(
        position_mm=float(est.hidden[0]),
        delay_s=delay.delay,
        top_weight=float(est.weights.max()),
        extrapolated=bool(est.extrapolated or outside),
    )


def load_prototype_pairs(dataset_dir):
    """Read every manifest prototype pair; returns (meta, [(ManifestRow, (ch1, ch2)), ...])."""
    dataset_dir = Path(dataset_dir)
    meta, manifest = read_manifest(dataset_dir / MANIFEST_NAME)
    entries = []
    for row in manifest:
        if row.role != "prototype":
            continue
        entries.append((row, read_waveform_pair(dataset_dir / row.file)))
    return meta, entries


def learn_prototypes(
    dataset_dir,
    filt: BandpassFilter,
    *,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    refine: bool = True,
) -> tuple[grnn.PrototypeSet, list[tuple[str, str]]]:
    """Build the (delay -> position) prototype database from a calibration dataset.

    Prototypes whose delay estimation fails are skipped and reported; smoothing
    widths follow the half-nearest-neighbor rule.
    """
    _, entries = load_prototype_pairs(dataset_dir)
    if not entries:
        raise ValueError(f"{dataset_dir}: manifest lists no prototype sources")
    positions = [row.position_mm for row, _ in entries]
    duplicates = sorted({z for z in positions if positions.count(z) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate prototype positions {duplicates} mm: smoothing widths are undefined"
        )
    delays: list[float] = []
    kept: list[float] = []
    skipped: list[tuple[str, str]] = []
    for row, (ch1, ch2) in entries:
        max_lag = lag_window(max_delay_s, ch1.sample_rate)
        try:
            est = filtered_delay(filt, ch1, ch2, max_lag, refine)
        except (DelayWindowError, NoSignalError) as exc:
            skipped.append((row.file, str(exc)))
            continue
        delays.append(est.delay)
        kept.append(row.position_mm)
    if len(delays) < 2:
        raise ValueError(
            f"only {len(delays)} prototypes survived delay estimation; need at least 2"
        )
    return grnn.PrototypeSet.from_data(given=delays, hidden=kept), skipped


def write_location_report(path, rows) -> None:
    """rows: (file, LocationEstimate | None, status-string)."""
    lines = ["file,position_mm,delay_s,top_weight,extrapolated,status"]
    for name, est, status in rows:
        if est is None:
            lines.append(f"{name},,,,,{status}")
        else:
            lines.append(
                f"{name},{fmt(est.position_mm)},{fmt(est.delay_s)},"
                f"{fmt(est.top_weight)},{est.extrapolated},{status}"
            )
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True, eq=False)
class EvaluationRow:
    file: str
    true_mm: float
    estimated_mm: float
    error_mm: float
    extrapolated: bool
    outlier: bool


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    """Per-test absolute errors plus raw and outlier-trimmed aggregates."""

    rows: list[EvaluationRow]
    failed: list[tuple[str, str]]
    mean_error_mm: float
    trimmed_mean_error_mm: float
    max_error_mm: float
    trimmed_max_error_mm: float
    relative_error: float
    trimmed_relative_error: float
    sensor_separation_mm: float


def _mad_outliers(errors: np.ndarray, floor_mm: float = OUTLIER_FLOOR_MM) -> np.ndarray:
    """Boolean mask of 3xMAD outliers with an absolute floor at quantization scale."""
    med = np.median(errors)
    deviation = np.abs(errors - med)
    mad = np.median(deviation)
    return (deviation > 3.0 * mad) & (deviation > floor_mm)


def evaluate_dataset(
    pset: grnn.PrototypeSet,
    filt: BandpassFilter,
    dataset_dir,
    *,
    max_delay_s: float = DEFAULT_MAX_DELAY_S,
    refine: bool = True,
    sensor_separation_mm: float | None = None,
) -> EvaluationReport:
    """Locate every manifest test source and compare against the recorded truth.

    The sensor separation defaults to the manifest metadata; both raw and
    3xMAD-trimmed averages are reported.
    """
    dataset_dir = Path(dataset_dir)
    meta, manifest = read_manifest(dataset_dir / MANIFEST_NAME)
    tests = [row for row in manifest if row.role == "test"]
    if not tests:
        raise ValueError(f"{dataset_dir}: manifest lists no test sources")
    _check_orphans(dataset_dir, tests)
    if sensor_separation_mm is None:
        try:
            sensor_separation_mm = meta["sensor_2_mm"] - meta["sensor_1_mm"]
        except KeyError as exc:
            raise ValueError(
                "manifest metadata lacks sensor positions; pass sensor_separation_mm"
            ) from exc

    located: list[tuple[ManifestRow, LocationEstimate]] = []
    failed: list[tuple[str, str]] = []
    for row in tests:
        try:
            ch1, ch2 = read_waveform_pair(dataset_dir / row.file)
            est = locate_pair(pset, filt, ch1, ch2, max_delay_s=max_delay_s, refine=refine)
        except (NoSignalError, DelayWindowError, ValueError, OSError) as exc:
            failed.append((row.file, str(exc)))
            continue
        located.append((row, est))
    if not located:
        raise ValueError("no test source could be located; see per-file failures")

    errors = np.array([abs(est.position_mm - row.position_mm) for row, est in located])
    outlier_mask = _mad_outliers(errors)
    rows = [
        EvaluationRow(
            file=row.file,
            true_mm=row.position_mm,
            estimated_mm=est.position_mm,
            error_mm=float(err),
            extrapolated=est.extrapolated,
            outlier=bool(out),
        )
        for (row, est), err, out in zip(located, errors, outlier_mask)
    ]
    kept = errors[~outlier_mask] if (~outlier_mask).any() else errors
    mean_err = float(errors.mean())
    trimmed_mean = float(kept.mean())
    return EvaluationReport(
        rows=rows,
        failed=failed,
        mean_error_mm=mean_err,
        trimmed_mean_error_mm=trimmed_mean,
        max_error_mm=float(errors.max()),
        trimmed_max_error_mm=float(kept.max()),
        relative_error=mean_err / sensor_separation_mm,
        trimmed_relative_error=trimmed_mean / sensor_separation_mm,
        sensor_separation_mm=float(sensor_separation_mm),
    )


def _check_orphans(dataset_dir: Path, tests: list[ManifestRow]) -> None:
    listed = {row.file for row in tests}
    missing = sorted(name for name in listed if not (dataset_dir / name).exists())
    on_disk = {p.name for p in dataset_dir.glob("test_*.txt")}
    unlisted = sorted(on_disk - listed)
    if missing or unlisted:
        parts = []
        if missing:
            parts.append(f"listed but missing on disk: {', '.join(missing)}")
        if unlisted:
            parts.append(f"on disk but not in manifest: {', '.join(unlisted)}")
        raise ValueError(f"manifest/signal mismatch in {dataset_dir}: " + "; ".join(parts))


def write_evaluation_report(path, report: EvaluationReport) -> None:
    lines = ["file,true_mm,estimated_mm,abs_error_mm,extrapolated,outlier"]
    for row in report.rows:
        lines.append(
            f"{row.file},{fmt(row.true_mm)},{fmt(row.estimated_mm)},"
            f"{fmt(row.error_mm)},{row.extrapolated},{row.outlier}"
        )
    lines.append(f"# mean_error_mm={fmt(report.mean_error_mm)}")
    lines.append(f"# trimmed_mean_error_mm={fmt(report.trimmed_mean_error_mm)}")
    lines.append(f"# max_error_mm={fmt(report.max_error_mm)}")
    lines.append(f"# trimmed_max_error_mm={fmt(report.trimmed_max_error_mm)}")
    lines.append(f"# relative_error={fmt(report.relative_error)}")
    lines.append(f"# trimmed_relative_error={fmt(report.trimmed_relative_error)}")
    lines.append(f"# sensor_separation_mm={fmt(report.sensor_separation_mm)}")
    lines.append(
        "# outlier_files=" + ",".join(row.file for row in report.rows if row.outlier)
    )
    lines.append("# failed_files=" + ",".join(name for name, _ in report.failed))
    atomic_write_text(path, "\n".join(lines) + "\n")


def evaluation_scatter_svg(report: EvaluationReport, prototype_positions=None) -> str:
    """Estimated-vs-actual scatter with the identity line (and prototype marks if given)."""
    actual = [row.true_mm for row in report.rows]
    estimated = [row.estimated_mm for row in report.rows]
    lo = min(actual + estimated)
    hi = max(actual + estimated)
    series = [("test source", actual, estimated, "circle")]
    if prototype_positions is not None:
        protos = list(map(float, prototype_positions))
        series.insert(0, ("prototype source", protos, protos, "plus"))
    return scatter_svg(
        "Estimated vs actual source position",
        "actual position [mm]",
        "estimated position [mm]",
        series,
        lines=[("ideal", [lo, hi], [lo, hi])],
    )

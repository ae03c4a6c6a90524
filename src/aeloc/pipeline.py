"""Location and evaluation stages tying filtering, delay estimation, and regression together."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import grnn
from .calibration import prototype_spectra
from .signals import (
    BandpassFilter,
    Waveform,
    filtered_delay,
    pair_delay,  # noqa: F401  (kept importable by name for perfbench's alias test)
    pick_delays,
    read_sample_rate,
    read_waveform_pair,
)
from .simulator import MANIFEST_NAME, ManifestRow, read_manifest
from .svgplot import scatter_svg
from .util import atomic_write_text, fmt

# errors below this never count as outliers: one delay-quantization step is
# roughly v / (2 fs) ~ 0.85 mm for the default specimen
OUTLIER_FLOOR_MM = 1.0


@dataclass(frozen=True)
class LocationEstimate:
    """Estimated source position with the delay and weight diagnostics behind it."""

    position_mm: float
    delay_s: float
    top_weight: float
    extrapolated: bool


def locate_pair(
    pset: grnn.PrototypeSet, filt: BandpassFilter, ch1: Waveform, ch2: Waveform
) -> LocationEstimate:
    """Estimate the channels' arrival-time difference through ``filt`` and regress a position.

    The estimate is marked extrapolated when the delay falls outside the range
    spanned by the prototype delays (or when every kernel underflowed), since
    the returned position is then a boundary-clamped guess.
    """
    if pset.given_dim != 1 or pset.hidden_dim != 1:
        raise ValueError("the location pipeline expects a (delay -> position) database")
    delay = filtered_delay(filt, ch1, ch2)
    est = grnn.estimate(pset, [delay.delay])
    delays = pset.given[:, 0]
    outside = delay.delay < delays.min() or delay.delay > delays.max()
    return LocationEstimate(
        position_mm=float(est.hidden[0]),
        delay_s=delay.delay,
        top_weight=float(est.weights.max()),
        extrapolated=bool(est.extrapolated or outside),
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """One role's records of a dataset directory, from :func:`load_dataset`.

    ``rows`` are the manifest rows of that role, and ``sample_rate`` the header
    rate of the first one's pair file.  Iterating yields ``(position_mm, (ch1,
    ch2))`` per row, the form :func:`~aeloc.calibration.sweep_bands` takes, and
    reads each file only when it gets there; ``len`` counts the rows.  A record
    whose sample count or rate differs from the first one's is refused: the
    spectra share one FFT length and one rate.
    """

    directory: Path
    meta: dict
    rows: list[ManifestRow]
    sample_rate: float

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        first = None
        for row in self.rows:
            path = self.directory / row.file
            pair = read_waveform_pair(path)
            n, rate = len(pair[0]), pair[0].sample_rate
            if first is None:
                first = (path, n, rate)
            elif (n, rate) != first[1:]:
                path_0, n_0, rate_0 = first
                fault = (f"{n} samples, but {path_0} has {n_0}" if n != n_0
                         else f"sample rate {rate} Hz, but {path_0} has {rate_0} Hz")
                raise ValueError(
                    f"{path}: {fault}; a dataset's {row.role} records must share one length "
                    "and rate"
                )
            yield row.position_mm, pair
            del pair  # dropped before the next file is read


def load_dataset(dataset_dir, role: str) -> Dataset:
    """The manifest of ``dataset_dir`` and its ``role`` rows, whose files are read lazily.

    The manifest is read once.  A listed file missing on disk, a
    ``<role>_*.txt`` file the manifest does not list, or a manifest listing no
    ``role`` file is an error.  The sample rate is the header rate of the first
    ``role`` file.
    """
    dataset_dir = Path(dataset_dir)
    meta, manifest = read_manifest(dataset_dir / MANIFEST_NAME)
    rows = [row for row in manifest if row.role == role]
    _check_orphans(dataset_dir, rows, role)
    if not rows:
        raise ValueError(f"{dataset_dir}: manifest lists no {role} sources")
    with open(dataset_dir / rows[0].file, "rb") as fh:
        return Dataset(dataset_dir, meta, rows, read_sample_rate(fh))


def load_prototype_pairs(dataset_dir):
    """Read every manifest prototype pair; returns (meta, [(ManifestRow, (ch1, ch2)), ...]).

    The records of :func:`load_dataset`, all held at once.
    """
    dataset = load_dataset(dataset_dir, "prototype")
    return dataset.meta, [(row, pair) for row, (_, pair) in zip(dataset.rows, dataset)]


def learn_prototypes(
    dataset_dir, filt: BandpassFilter
) -> tuple[grnn.PrototypeSet, list[tuple[str, str]]]:
    """Build the (delay -> position) prototype database from a calibration dataset.

    The prototypes of ``dataset_dir`` (:func:`load_dataset`), which must be at
    ``filt``'s rate, are read one at a time into one batched pass through ``filt``,
    the calibration sweep's estimator (:class:`~aeloc.signals.CrossSpectra`).
    Prototypes whose delay estimation fails are skipped and reported; smoothing
    widths follow the half-nearest-neighbor rule.  The header holds ``fmt`` of
    ``filt.fields()``, which :func:`load_database` reads back.
    """
    dataset = load_dataset(dataset_dir, "prototype")
    filt.check_rate(dataset.sample_rate)
    positions, spectra = prototype_spectra(dataset, filt.max_lag)
    listed = positions.tolist()
    duplicates = sorted({z for z in listed if listed.count(z) > 1})
    if duplicates:
        raise ValueError(
            f"duplicate prototype positions {duplicates} mm: smoothing widths are undefined"
        )
    delays, errors = pick_delays(spectra.correlations(filt), spectra.sample_rate)
    skipped = [(dataset.rows[i].file, str(exc)) for i, exc in errors.items()]
    kept = ~np.isnan(delays)
    if kept.sum() < 2:
        raise ValueError(f"only {kept.sum()} prototypes survived delay estimation; need at least 2")
    header = {key: fmt(value) for key, value in filt.fields().items()}
    return grnn.PrototypeSet.from_data(delays[kept], positions[kept], header), skipped


def load_database(path) -> tuple[grnn.PrototypeSet, BandpassFilter]:
    """The (delay -> position) prototype database at ``path`` and the estimator it records."""
    pset = grnn.load_prototypes(path)
    if pset.given_dim != 1 or pset.hidden_dim != 1:
        raise ValueError(f"{path}:1: the location pipeline expects a (delay -> position) database")
    header = {key: (1, text) for key, text in pset.header.items()}  # all on the file's line 1
    return pset, BandpassFilter.read(path, header, "learn again")


def write_location_report(path, rows) -> None:
    """rows: (file, LocationEstimate | None, status-string); a field with a comma is quoted."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")  # RFC 4180 quoting, only where needed
    writer.writerow(["file", "position_mm", "delay_s", "top_weight", "extrapolated", "status"])
    for name, est, status in rows:
        if est is None:
            writer.writerow([name, "", "", "", "", status])
        else:
            writer.writerow([name, fmt(est.position_mm), fmt(est.delay_s),
                             fmt(est.top_weight), est.extrapolated, status])
    atomic_write_text(path, text.getvalue())


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
    """Boolean mask of errors more than 3xMAD, and more than a floor at quantization scale,
    above the median; an error below the median is never an outlier."""
    excess = errors - np.median(errors)
    mad = np.median(np.abs(excess))
    return (excess > 3.0 * mad) & (excess > floor_mm)


def evaluate_dataset(
    pset: grnn.PrototypeSet, filt: BandpassFilter, dataset_dir
) -> EvaluationReport:
    """Locate every manifest test source and compare against the recorded truth.

    The tests of ``dataset_dir`` (:func:`load_dataset`), which must be at
    ``filt``'s rate, are read and located one at a time.  Relative errors divide
    by the manifest's sensor separation, sensor_2_mm - sensor_1_mm; both raw and
    3xMAD-trimmed averages are reported.
    """
    dataset = load_dataset(dataset_dir, "test")
    manifest_path = dataset.directory / MANIFEST_NAME
    meta = dataset.meta
    for key in ("sensor_1_mm", "sensor_2_mm"):
        if key not in meta:
            raise ValueError(f"{manifest_path}: header lacks {key!r}")
    sensor_separation_mm = meta["sensor_2_mm"] - meta["sensor_1_mm"]
    if not 0.0 < sensor_separation_mm < np.inf:
        raise ValueError(
            f"{manifest_path}: sensor separation sensor_2_mm - sensor_1_mm "
            f"= {sensor_separation_mm} mm must be finite and positive"
        )

    located: list[tuple[ManifestRow, LocationEstimate]] = []
    failed: list[tuple[str, str]] = []
    for row in dataset.rows:
        try:
            ch1, ch2 = read_waveform_pair(dataset.directory / row.file)
            located.append((row, locate_pair(pset, filt, ch1, ch2)))
        except (ValueError, OSError) as exc:
            failed.append((row.file, str(exc)))
    if not located:
        raise ValueError(f"no test source could be located: {len(failed)} of {len(failed)} "
                         f"failed; first: {': '.join(failed[0])}")

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


def _check_orphans(dataset_dir: Path, rows: list[ManifestRow], role: str) -> None:
    """Refuse a listed ``role`` file missing on disk, or a ``<role>_*.txt`` file not listed."""
    listed = {row.file for row in rows}
    missing = sorted(name for name in listed if not (dataset_dir / name).exists())
    on_disk = {p.name for p in dataset_dir.glob(f"{role}_*.txt")}
    unlisted = sorted(on_disk - listed)
    faults = (("listed but missing on disk", missing), ("on disk but not in manifest", unlisted))
    if parts := [f"{fault}: {', '.join(names)}" for fault, names in faults if names]:
        raise ValueError(f"manifest/signal mismatch in {dataset_dir}: " + "; ".join(parts))


def write_evaluation_report(path, report: EvaluationReport) -> None:
    lines = ["file,true_mm,estimated_mm,abs_error_mm,extrapolated,outlier"]
    for row in report.rows:
        lines.append(
            f"{row.file},{fmt(row.true_mm)},{fmt(row.estimated_mm)},"
            f"{fmt(row.error_mm)},{row.extrapolated},{row.outlier}"
        )
    # the summary numbers, each under its attribute's name
    for key in ("mean_error_mm", "trimmed_mean_error_mm", "max_error_mm", "trimmed_max_error_mm",
                "relative_error", "trimmed_relative_error", "sensor_separation_mm"):
        lines.append(f"# {key}={fmt(getattr(report, key))}")
    lines.append("# outlier_files=" + ",".join(row.file for row in report.rows if row.outlier))
    lines.append("# failed_files=" + ",".join(name for name, _ in report.failed))
    atomic_write_text(path, "\n".join(lines) + "\n")


def evaluation_scatter_svg(report: EvaluationReport, prototype_positions) -> str:
    """Estimated-vs-actual scatter with the identity line and the prototype positions marked."""
    actual = [row.true_mm for row in report.rows]
    estimated = [row.estimated_mm for row in report.rows]
    lo, hi = min(actual + estimated), max(actual + estimated)
    protos = ("prototype source", prototype_positions, prototype_positions, "plus")
    return scatter_svg(
        "Estimated vs actual source position",
        "actual position [mm]",
        "estimated position [mm]",
        [protos, ("test source", actual, estimated, "circle")],
        lines=[("ideal", [lo, hi], [lo, hi])],
    )

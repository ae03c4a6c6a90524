"""Command-line pipeline: simulate, calibrate, learn, locate, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import grnn, pipeline
from .calibration import (
    BandGrid,
    read_calibration_summary,
    rmse_surface_is_flat,
    sweep_bands,
    write_calibration_report,
)
from .signals import FilterSpec, design_bandpass, lag_window, read_waveform_pair
from .simulator import (
    MANIFEST_NAME,
    default_config,
    load_config,
    parse_config,
    read_manifest,
    run_experiment,
)
from .svgplot import linear_fit_points, scatter_svg
from .util import atomic_write_text


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--calibration", metavar="REPORT", help="calibration report to take the band from"
    )
    parser.add_argument("--f-low", type=float, help="bandpass lower edge in Hz")
    parser.add_argument("--f-high", type=float, help="bandpass upper edge in Hz")
    parser.add_argument("--order", type=int, default=4, help="poles per band edge (default 4)")


def _add_delay_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-delay-s",
        type=float,
        default=pipeline.DEFAULT_MAX_DELAY_S,
        help="largest |delay| searched in the correlation, in seconds",
    )
    parser.add_argument(
        "--no-refine",
        action="store_true",
        help="disable sub-sample parabolic refinement of the correlation peak",
    )


def _resolve_filter(args) -> FilterSpec:
    if args.calibration is not None:
        if args.f_low is not None or args.f_high is not None:
            raise UsageError("give either --calibration or --f-low/--f-high, not both")
        spec, _ = read_calibration_summary(args.calibration)
        return spec
    if args.f_low is None or args.f_high is None:
        raise UsageError("a filter is required: pass --calibration or --f-low and --f-high")
    return FilterSpec(args.f_low, args.f_high, args.order)


def _cmd_simulate(args) -> int:
    if args.write_default_config:
        atomic_write_text(
            args.write_default_config, json.dumps(default_config(), indent=2) + "\n"
        )
        print(f"wrote default configuration to {args.write_default_config}")
        return 0
    if args.out is None:
        raise UsageError("simulate requires --out")
    config = load_config(args.config) if args.config else parse_config({})
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    rows = run_experiment(config, args.out)
    n_proto = sum(1 for r in rows if r.role == "prototype")
    n_test = len(rows) - n_proto
    print(f"wrote {n_proto} prototype + {n_test} test pairs and a manifest to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    _, entries = pipeline.load_prototype_pairs(args.dataset)
    if len(entries) < 3:
        raise ValueError(f"calibration needs at least 3 prototypes, found {len(entries)}")
    pairs = [(row.position_mm, chans) for row, chans in entries]
    grid = BandGrid(width=args.width, step=args.step, f_start=args.f_start, f_stop=args.f_stop)
    sample_rate = pairs[0][1][0].sample_rate
    max_lag = lag_window(args.max_delay_s, sample_rate)
    result = sweep_bands(
        pairs, grid, args.order, max_lag=max_lag, refine=not args.no_refine
    )
    write_calibration_report(args.report, result, args.order)
    if args.svg:
        xs, ys = linear_fit_points(
            result.positions_mm, result.best.slope_s_per_mm, result.best.intercept_s
        )
        svg = scatter_svg(
            f"Delay vs position, band {result.best_band.f_low:.0f}-{result.best_band.f_high:.0f} Hz",
            "source position [mm]",
            "delay [s]",
            [("prototype source", list(result.positions_mm), list(result.best_delays), "plus")],
            lines=[("linear fit", xs, ys)],
        )
        atomic_write_text(args.svg, svg)
    print(
        f"best band: {result.best_band.f_low:.0f}-{result.best_band.f_high:.0f} Hz "
        f"(rmse {result.best.rmse_mm:.3f} mm)"
    )
    print(f"velocity: {result.velocity_km_s:.4f} km/s")
    if result.outliers:
        print(f"outliers excluded from the fit: {list(result.outliers)}")
    if rmse_surface_is_flat(result, sample_rate):
        print(
            "warning: rmse surface is flat; band choice is weakly determined "
            "(nondispersive data?)",
            file=sys.stderr,
        )
    print(f"report written to {args.report}")
    return 0


def _dataset_sample_rate(dataset, meta, manifest, role: str) -> float:
    """The manifest's sample rate, else that of the first ``role`` signal file."""
    sample_rate = meta.get("sample_rate_hz")
    if sample_rate is None:
        first = next((row for row in manifest if row.role == role), None)
        if first is None:
            raise ValueError(f"{dataset}: manifest lists no {role} sources")
        sample_rate = read_waveform_pair(Path(dataset) / first.file)[0].sample_rate
    return sample_rate


def _cmd_learn(args) -> int:
    filt_spec = _resolve_filter(args)
    meta, manifest = read_manifest(Path(args.dataset) / MANIFEST_NAME)
    filt = design_bandpass(
        filt_spec, _dataset_sample_rate(args.dataset, meta, manifest, "prototype")
    )
    pset, skipped = pipeline.learn_prototypes(
        args.dataset, filt, max_delay_s=args.max_delay_s, refine=not args.no_refine
    )
    for name, reason in skipped:
        print(f"warning: skipped {name}: {reason}", file=sys.stderr)
    grnn.save_prototypes(args.db, pset)
    print(f"stored {len(pset)} prototypes in {args.db}")
    return 0


def _cmd_locate(args) -> int:
    filt_spec = _resolve_filter(args)
    pset = grnn.load_prototypes(args.db)
    rows = []
    failures = 0
    filt = None
    for name in args.files:
        try:
            ch1, ch2 = read_waveform_pair(name)
            if filt is None or filt.sample_rate != ch1.sample_rate:
                filt = design_bandpass(filt_spec, ch1.sample_rate)
            est = pipeline.locate_pair(
                pset,
                filt,
                ch1,
                ch2,
                max_delay_s=args.max_delay_s,
                refine=not args.no_refine,
            )
        except (ValueError, OSError) as exc:
            failures += 1
            rows.append((name, None, f"failed: {exc}"))
            print(f"{name}: error: {exc}", file=sys.stderr)
            continue
        rows.append((name, est, "ok"))
        print(
            f"{name}: position {est.position_mm:.2f} mm  "
            f"top_weight {est.top_weight:.4f}  extrapolated {est.extrapolated}"
        )
    if args.out:
        pipeline.write_location_report(args.out, rows)
    return 2 if failures else 0


def _cmd_evaluate(args) -> int:
    filt_spec = _resolve_filter(args)
    pset = grnn.load_prototypes(args.db)
    meta, manifest = read_manifest(Path(args.dataset) / MANIFEST_NAME)
    filt = design_bandpass(filt_spec, _dataset_sample_rate(args.dataset, meta, manifest, "test"))
    report = pipeline.evaluate_dataset(
        pset,
        filt,
        args.dataset,
        max_delay_s=args.max_delay_s,
        refine=not args.no_refine,
        sensor_separation_mm=args.sensor_separation,
    )
    pipeline.write_evaluation_report(args.report, report)
    if args.svg:
        protos = [row.position_mm for row in manifest if row.role == "prototype"]
        atomic_write_text(
            args.svg, pipeline.evaluation_scatter_svg(report, protos or None)
        )
    for name, reason in report.failed:
        print(f"warning: could not locate {name}: {reason}", file=sys.stderr)
    print(
        f"located {len(report.rows)} test sources; "
        f"mean error {report.mean_error_mm:.2f} mm "
        f"(trimmed {report.trimmed_mean_error_mm:.2f} mm), "
        f"max {report.max_error_mm:.2f} mm"
    )
    print(
        f"relative error {100.0 * report.relative_error:.3f} % of "
        f"{report.sensor_separation_mm:.0f} mm sensor separation"
    )
    print(f"report written to {args.report}")
    return 2 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aeloc",
        description="Acoustic-emission source location on a 1-D waveguide: "
        "simulate data, calibrate the bandpass, learn prototypes, locate and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a prototype/test dataset")
    p.add_argument("--config", help="JSON configuration file (defaults when omitted)")
    p.add_argument("--out", help="output dataset directory")
    p.add_argument("--seed", type=int, help="override the configuration seed")
    p.add_argument(
        "--write-default-config",
        metavar="PATH",
        help="write the default configuration JSON and exit",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="sweep bandpass bands over the prototype pairs")
    p.add_argument("dataset", help="dataset directory containing manifest.txt")
    p.add_argument("--report", required=True, help="calibration report output path")
    p.add_argument("--svg", help="optional delay-vs-position scatter for the best band")
    p.add_argument("--width", type=float, default=10_000.0, help="band width in Hz")
    p.add_argument("--step", type=float, default=1_000.0, help="band step in Hz")
    p.add_argument("--f-start", type=float, default=5_000.0, help="sweep start in Hz")
    p.add_argument("--f-stop", type=float, default=75_000.0, help="sweep stop in Hz")
    p.add_argument("--order", type=int, default=4, help="poles per band edge")
    _add_delay_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("learn", help="build the prototype database from calibration signals")
    p.add_argument("dataset", help="dataset directory containing manifest.txt")
    p.add_argument("--db", required=True, help="prototype database output path")
    _add_filter_flags(p)
    _add_delay_flags(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("locate", help="estimate source positions for signal files")
    p.add_argument("db", help="prototype database from 'learn'")
    p.add_argument("files", nargs="+", help="two-channel waveform files")
    p.add_argument("--out", help="optional location report output path")
    _add_filter_flags(p)
    _add_delay_flags(p)
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("evaluate", help="locate all test sources and score against truth")
    p.add_argument("db", help="prototype database from 'learn'")
    p.add_argument("dataset", help="dataset directory containing manifest.txt")
    p.add_argument("--report", required=True, help="evaluation report output path")
    p.add_argument("--svg", help="optional estimated-vs-actual scatter")
    p.add_argument(
        "--sensor-separation",
        type=float,
        help="sensor separation in mm (defaults to manifest metadata)",
    )
    _add_filter_flags(p)
    _add_delay_flags(p)
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line pipeline: simulate, calibrate, learn, locate, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import asdict, replace

from . import grnn, pipeline
from .calibration import (
    BandGrid,
    calibration_scatter_svg,
    read_calibration_report,
    rmse_surface_is_flat,
    sweep_bands,
    write_calibration_report,
)
from .signals import BandpassFilter, FilterSpec, lag_window, read_waveform_pair
from .simulator import default_config, load_config, parse_config, run_experiment
from .util import atomic_write_text


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _positive_float(text: str) -> float:
    """argparse type of every float flag: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _integer_at_least(low: int, what: str):
    """argparse type of an integer flag: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _integer_at_least(1, "positive")
_non_negative_int = _integer_at_least(0, "non-negative")


def _load_database(args) -> tuple[grnn.PrototypeSet, BandpassFilter]:
    """Database ``args.db`` and its estimator, which ``--calibration``'s must equal."""
    pset, filt = pipeline.load_database(args.db)
    report = read_calibration_report(args.calibration)[0] if args.calibration else filt
    if report != filt:
        ours = filt.fields()
        key, theirs = next((k, v) for k, v in report.fields().items() if v != ours[k])
        raise ValueError(f"{args.calibration}: {key}={theirs}, but {args.db} has {ours[key]}")
    return pset, filt


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
    dataset = pipeline.load_dataset(args.dataset, "prototype")
    grid = BandGrid(width=args.width, step=args.step, f_start=args.f_start, f_stop=args.f_stop)
    max_lag = lag_window(args.max_delay_s, dataset.sample_rate)
    result = sweep_bands(dataset, grid, args.order, max_lag=max_lag)
    for i, exc in result.best.errors.items():  # as learn names the same prototypes
        print(f"warning: skipped {dataset.rows[i].file}: {exc}", file=sys.stderr)
    write_calibration_report(args.report, result, args.max_delay_s)
    if args.svg:
        atomic_write_text(args.svg, calibration_scatter_svg(result))
    print(
        f"best band: {result.best_band.f_low:.0f}-{result.best_band.f_high:.0f} Hz "
        f"(rmse {result.best.rmse_mm:.3f} mm)"
    )
    print(f"velocity: {result.velocity_km_s:.4f} km/s")
    if outliers := result.best.outlier_indices:
        print(f"outliers excluded from the fit: {list(outliers)}")
    if rmse_surface_is_flat(result):
        print(
            "warning: rmse surface is flat; band choice is weakly determined "
            "(nondispersive data?)",
            file=sys.stderr,
        )
    print(f"report written to {args.report}")
    return 0


def _cmd_learn(args) -> int:
    filt, _ = read_calibration_report(args.calibration)
    pset, skipped = pipeline.learn_prototypes(args.dataset, filt)
    for name, reason in skipped:
        print(f"warning: skipped {name}: {reason}", file=sys.stderr)
    grnn.save_prototypes(args.db, pset)
    print(f"stored {len(pset)} prototypes in {args.db}")
    return 0


def _cmd_locate(args) -> int:
    pset, filt = _load_database(args)
    rows = []
    for name in args.files:
        try:
            est = pipeline.locate_pair(pset, filt, *read_waveform_pair(name))
        except (ValueError, OSError) as exc:
            rows.append((name, str(exc)))  # the text only: a traceback holds the waveforms
            print(f"{name}: error: {exc}", file=sys.stderr)
            continue
        rows.append((name, est))
        print(
            f"{name}: position {est.position_mm:.2f} mm  "
            f"top_weight {est.top_weight:.4f}  extrapolated {est.extrapolated}"
        )
    if args.out:
        pipeline.write_location_report(args.out, rows)
    return 2 if any(isinstance(outcome, str) for _, outcome in rows) else 0


def _cmd_evaluate(args) -> int:
    pset, filt = _load_database(args)
    report = pipeline.evaluate_dataset(pset, filt, args.dataset)
    pipeline.write_evaluation_report(args.report, report)
    if args.svg:
        atomic_write_text(args.svg, pipeline.evaluation_scatter_svg(report, pset.hidden[:, 0]))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every :func:`main` call.

    Parsing leaves it unchanged (each call fills a fresh ``Namespace``), so it
    must not be modified by callers either.
    """
    parser = _Parser(
        prog="aeloc",
        description="Acoustic-emission source location on a 1-D waveguide: "
        "simulate data, calibrate the bandpass, learn prototypes, locate and evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a prototype/test dataset")
    p.add_argument("--config", help="JSON configuration file (defaults when omitted)")
    p.add_argument("--out", help="output dataset directory")
    p.add_argument("--seed", type=_non_negative_int, help="override the configuration seed")
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
    p.add_argument("--width", type=_positive_float, help="band width in Hz")
    p.add_argument("--step", type=_positive_float, help="band step in Hz")
    p.add_argument("--f-start", type=_positive_float, help="sweep start in Hz")
    p.add_argument("--f-stop", type=_positive_float, help="sweep stop in Hz")
    p.add_argument("--order", type=_positive_int, help="poles per band edge")
    p.add_argument("--max-delay-s", type=_positive_float, default=BandpassFilter.max_delay_s,
                   help="largest |delay| searched in the correlation, in seconds")
    p.set_defaults(func=_cmd_calibrate, order=FilterSpec.order, **asdict(BandGrid()))

    p = sub.add_parser("learn", help="build the prototype database from calibration signals")
    p.add_argument("dataset", help="dataset directory containing manifest.txt")
    p.add_argument("--db", required=True, help="prototype database output path")
    p.add_argument("--calibration", metavar="REPORT", required=True,
                   help="report to take the band, order, delay window and sample rate from")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("locate", help="estimate source positions for signal files")
    p.add_argument("db", help="prototype database from 'learn'")
    p.add_argument("files", nargs="+", help="two-channel waveform files")
    p.add_argument("--out", help="optional location report output path")
    p.add_argument("--calibration", metavar="REPORT", help="report the database must match")
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("evaluate", help="locate all test sources and score against truth")
    p.add_argument("db", help="prototype database from 'learn'")
    p.add_argument("dataset", help="dataset directory containing manifest.txt")
    p.add_argument("--report", required=True, help="evaluation report output path")
    p.add_argument("--svg", help="optional estimated-vs-actual scatter")
    p.add_argument("--calibration", metavar="REPORT", help="report the database must match")
    p.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # library warnings print like the commands' own, whatever the caller's warning filters
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

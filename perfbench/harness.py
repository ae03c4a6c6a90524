"""Stage-and-layer benchmark of the aeloc pipeline.

Two workloads, each a closed loop with one caller in one process and no
worker threads (see README.md for why each was chosen):

- ``paper-chain``: the five-stage command-line chain of acceptance criterion 7
  on the paper-default dataset, repeated pass after pass in fresh directories.
- ``locate-stream``: 56 continuous-noise events at 40 mm pitch, each located
  by its own ``cli.main(["locate", ...])`` call, round after round.

Every workload sets up ``SETUPS`` times and reports the median set-up time.
A set-up of ``paper-chain`` is one chain pass; its outputs are the bytes every
later pass must reproduce.  A set-up of ``locate-stream`` simulates the
paper-default prototypes together with the events, calibrates and learns the
prototype database the events are located against.

Both workloads report the same end-to-end metrics, each for its own unit of
work.  The latency is relative: in the timed loop a fixed reference
computation (``Reference``) runs after every CLI call, and each call's wall
time is divided by the mean of the reference times just before and just after
it.  On the 2-vCPU virtual machine of the baseline in README.md, the same code
ran up to about 1.6 times slower for seconds to tens of seconds at a time,
sometimes for a whole run; the reference slows with it, so the ratio holds.
``paper-chain`` reports the sum over its five stages of each stage's median
ratio, ``locate-stream`` the median ratio over its calls.

Every input derives from ``--seed``.  Outputs are checked before any figure is
reported; a run that fails a check reports no metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from weakref import WeakSet

import numpy as np
import scipy
from scipy import signal as sps

import aeloc
from aeloc import calibration, cli, simulator
from tracer import Tracer

WORKLOADS = ("paper-chain", "locate-stream")
STAGES = ("simulate", "calibrate", "learn", "locate", "evaluate")

# criterion-4 tolerances on the chosen band and the velocity
PLATEAU_HZ = (35_000.0, 45_000.0)
MIN_PLATEAU_OVERLAP_HZ = 7_000.0
VELOCITY_KM_S = 1.7
VELOCITY_TOL_KM_S = 0.09
# criterion-5 gate on the worst located source
MAX_LOCATION_ERROR_MM = 100.0
# set-ups per run; setup_s is the median of their times
SETUPS = 2
# samples per channel of the reference computation's waveform pair
REFERENCE_SAMPLES = 8192


class CheckFailed(Exception):
    """An operation failed or an output check did not hold."""


def _positions(start: float, stop: float, pitch: float) -> tuple[float, ...]:
    return tuple(float(z) for z in np.arange(start, stop + 0.5 * pitch, pitch))


@dataclass(frozen=True)
class Scale:
    """Dataset sizes.

    At ``PAPER`` scale the chain runs ``simulate`` with no config file, exactly
    as acceptance criterion 7 does, so its chain sizes are the defaults.
    """

    record_length: int
    chain_prototypes_mm: tuple[float, ...]
    chain_tests_mm: tuple[float, ...]
    stream_events_mm: tuple[float, ...]


PAPER = Scale(
    record_length=16384,
    chain_prototypes_mm=_positions(900.0, 3100.0, 200.0),
    chain_tests_mm=_positions(900.0, 3100.0, 100.0),
    stream_events_mm=_positions(900.0, 3100.0, 40.0),
)

# for the self-test: the same code paths in seconds
TINY = Scale(
    record_length=4096,
    chain_prototypes_mm=_positions(900.0, 3100.0, 550.0),
    chain_tests_mm=(1200.0, 2000.0, 2800.0),
    stream_events_mm=_positions(900.0, 3100.0, 550.0),
)


# ------------------------------------------------------------------ metrics

# reported by every workload, each for its own unit of work
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_rel": "ratio",
    "max_error_mm": "mm",
    "peak_rss_mb": "MB",
}

# per-layer metric prefix -> traced function; suffixes .calls and .s are per op
LAYER_SPANS = {
    "signals.write_pair": ("signals.write_waveform_pair", ("calls", "s")),
    "signals.read_pair": ("signals.read_waveform_pair", ("calls", "s")),
    "signals.design": ("signals.design_bandpass", ("calls", "s")),
    "signals.filter": ("signals.apply_filter", ("calls", "s")),
    "signals.correlate": ("signals.cross_correlate", ("calls", "s")),
    "signals.peak": ("signals.estimate_delay", ("calls", "s")),
    "calibration.sweep": ("calibration.sweep_bands", ("s",)),
    "calibration.fit": ("calibration.fit_line", ("calls", "s")),
    "grnn.estimate": ("grnn.estimate", ("calls", "s")),
    "grnn.sigmas": ("grnn.compute_sigmas", ("s",)),
    "grnn.save": ("grnn.save_prototypes", ("s",)),
    "grnn.load": ("grnn.load_prototypes", ("s",)),
    "simulator.synth": ("simulator.synth_source", ("s",)),
    "simulator.propagate": ("simulator.propagate", ("calls", "s")),
    "pipeline.learn": ("pipeline.learn_prototypes", ("s",)),
    "pipeline.locate_pair": ("pipeline.locate_pair", ("calls", "s")),
    "pipeline.evaluate": ("pipeline.evaluate_dataset", ("s",)),
    "svgplot.scatter": ("svgplot.scatter_svg", ("s",)),
}

# per-layer counts and ratios that are not a span's calls or seconds
LAYER_EXTRA_UNITS = {
    "util.fmt.calls": "count/op",
    "signals.write_pair.bytes": "B/op",
    "signals.read_pair.files": "count/op",
    "signals.read_pair.bytes": "B/op",
    "signals.delay_failed": "count/op",
    "signals.filter.calls_per_channel": "ratio",
    "calibration.bands": "count/op",
    "calibration.delay_ok_ratio": "ratio",
    "grnn.extrapolated": "count/op",
    "pipeline.located_ok_ratio": "ratio",
    **{f"cli.{stage}.self_s": "s/op" for stage in STAGES},
    "trace.overhead_frac": "ratio",
    "trace.ops": "count",
}

# Taken from the untraced half of a traced run; no regression bound applies.
# The wall-clock latency is built from the fastest repeats (see
# ``PaperChain.unit_s`` and ``LocateStream.unit_s``).  Stage wall times show
# which stage moved a paper-chain latency.  Mean errors
# vary too much between seeds for a bound: in about one seed in seven a
# near-terminal test source lands ~20 mm off, which moves the mean over 23
# sources by ~40 %.
UNTRACED_UNITS = {
    "wall.latency_ms": "ms",
    **{f"stage.{stage}.s": "s/op" for stage in (*STAGES, "sweep")},
    "mean_error_mm": "mm",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for prefix, (_, kinds) in LAYER_SPANS.items():
        for kind in kinds:
            units[f"{prefix}.{kind}"] = "count/op" if kind == "calls" else "s/op"
    units.update(LAYER_EXTRA_UNITS)
    units.update(UNTRACED_UNITS)
    return units


# ------------------------------------------------------------------ running


class Reference:
    """A fixed computation that measures how fast the host runs at the moment.

    It formats a seeded waveform pair as text, parses it back, band-pass
    filters it and cross-correlates the two channels: the kinds of work the
    pipeline does, written with numpy and scipy alone, so that no change to
    aeloc changes it.
    """

    def __init__(self):
        pair = np.random.default_rng(0).standard_normal((REFERENCE_SAMPLES, 2))
        self.rows = pair.tolist()
        self.sos = sps.butter(4, [35e3, 45e3], btype="bandpass", fs=1e6, output="sos")

    def __call__(self) -> float:
        """Run once; returns its wall time in seconds."""
        start = time.perf_counter()
        text = "\n".join(f"{a!r},{b!r}" for a, b in self.rows)
        pair = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        filtered = sps.sosfiltfilt(self.sos, pair, axis=0)
        spectra = np.fft.rfft(filtered, 2 * REFERENCE_SAMPLES, axis=0)
        np.fft.irfft(spectra[:, 0] * spectra[:, 1].conj())
        return time.perf_counter() - start


class Context:
    """State of one benchmark run: working directory, counters, optional tracer.

    While ``relative`` is a list, every stage is followed by one run of the
    reference, and ``(stage name, stage time over the mean of the reference
    times before and after it)`` is appended to the list.
    """

    def __init__(self, work: Path, seed: int, scale: Scale):
        self.work = work
        self.seed = seed
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.tracer: Tracer | None = None
        self.reference = Reference()
        self.relative: list[tuple[str, float]] | None = None
        self._last_reference_s = 0.0

    def start_relative(self) -> None:
        """Begin relative timing; the first reference run only warms it up."""
        self.reference()
        self._last_reference_s = self.reference()
        self.relative = []

    def stage(self, argv: list[str]) -> tuple[float, str]:
        """Run one CLI stage in-process; returns (seconds, captured stdout)."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.begin(f"cli.{argv[0]}") if self.tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - start
        finally:
            if span is not None:
                self.tracer.end(span)
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"aeloc {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        if self.relative is not None:
            before, self._last_reference_s = self._last_reference_s, self.reference()
            self.relative.append((argv[0], 2.0 * elapsed / (before + self._last_reference_s)))
        return elapsed, out.getvalue()

    def write_config(self, name: str, prototypes_mm, tests_mm) -> Path:
        raw = simulator.default_config()
        raw["specimen"]["record_length"] = self.scale.record_length
        raw["prototype_positions_mm"] = list(prototypes_mm)
        raw["test_positions_mm"] = list(tests_mm)
        path = self.work / name
        path.write_text(json.dumps(raw, indent=2) + "\n")
        return path


def check_band(directory: Path) -> None:
    """The calibration report in ``directory`` meets the criterion-4 tolerances."""
    spec, velocity_km_s = calibration.read_calibration_summary(directory / "calibration.csv")
    overlap = min(spec.f_high, PLATEAU_HZ[1]) - max(spec.f_low, PLATEAU_HZ[0])
    if overlap < MIN_PLATEAU_OVERLAP_HZ or abs(velocity_km_s - VELOCITY_KM_S) > VELOCITY_TOL_KM_S:
        raise CheckFailed(
            f"calibrate: band {spec.f_low:.0f}-{spec.f_high:.0f} Hz (plateau overlap "
            f"{overlap:.0f} Hz) and velocity {velocity_km_s:.4f} km/s miss the criterion-4 tolerances"
        )


def report_summary(path: Path) -> dict[str, str]:
    """The '# key=value' lines of an aeloc report."""
    summary = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") and "=" in line:
            key, _, value = line.lstrip("# ").partition("=")
            summary[key] = value
    return summary


def digest_tree(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def run_stages(ctx: Context, directory: Path, steps: list[list[str]]) -> dict[str, float]:
    """Run CLI ``steps`` in a new ``directory``, with argv relative to it.

    Relative paths keep the written files free of the directory's name, so
    that two directories with the same work can be compared byte for byte.
    """
    directory.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(directory)
    try:
        return {argv[0]: ctx.stage(argv)[0] for argv in steps}
    finally:
        os.chdir(previous)


def simulate_argv(ctx: Context, config: Path | None) -> list[str]:
    argv = ["simulate", "--out", "data", "--seed", str(ctx.seed)]
    return argv + ["--config", str(config)] if config else argv


# ---------------------------------------------------------------- workloads


class ChainPass:
    """One criterion-7 chain in a fresh directory, checked, then deleted.

    With ``time_sweep`` the sweep inside ``calibrate`` is timed by a wrapper on
    the name the CLI calls; the wrapper is removed before the pass returns.
    """

    def __init__(self, ctx: Context, directory: Path, config: Path | None, time_sweep: bool):
        n_tests = len(ctx.scale.chain_tests_mm)
        located = [f"data/test_{i:02d}.txt" for i in sorted({0, n_tests // 2, n_tests - 1})]
        steps = [
            simulate_argv(ctx, config),
            ["calibrate", "data", "--report", "calibration.csv", "--svg", "calibration.svg"],
            ["learn", "data", "--db", "prototypes.db", "--calibration", "calibration.csv"],
            ["locate", "prototypes.db", *located, "--calibration", "calibration.csv",
             "--out", "locations.csv"],
            ["evaluate", "prototypes.db", "data", "--report", "evaluation.csv",
             "--svg", "evaluation.svg", "--calibration", "calibration.csv"],
        ]
        sweeps: list[float] = []
        original_sweep = cli.sweep_bands

        def timed_sweep(*args, **kwargs):
            start = time.perf_counter()
            result = original_sweep(*args, **kwargs)
            sweeps.append(time.perf_counter() - start)
            return result

        if time_sweep:
            cli.sweep_bands = timed_sweep
        try:
            self.times = run_stages(ctx, directory, steps)
        finally:
            cli.sweep_bands = original_sweep
        self.times["sweep"] = sweeps[0] if time_sweep else 0.0
        self.digest = digest_tree(directory)
        check_band(directory)
        summary = report_summary(directory / "evaluation.csv")
        self.mean_error_mm = float(summary["mean_error_mm"])
        self.max_error_mm = float(summary["max_error_mm"])
        if self.max_error_mm > MAX_LOCATION_ERROR_MM:
            raise CheckFailed(f"evaluate: max error {self.max_error_mm:.1f} mm")
        shutil.rmtree(directory)


def timed_setups(build) -> tuple[list, float]:
    """Call ``build(k)`` ``SETUPS`` times; returns the results and the median time.

    Every set-up must write the same bytes as the first.
    """
    built, times = [], []
    for k in range(SETUPS):
        start = time.perf_counter()
        built.append(build(k))
        times.append(time.perf_counter() - start)
        if built[k].digest != built[0].digest:
            raise CheckFailed(f"set-up {k} wrote files that differ from set-up 0")
    return built, statistics.median(times)


def timed_loop(seconds: float, round_ops: int, op) -> list:
    """Call ``op(i)`` until ``seconds`` have passed and at least one whole round ran.

    A round is ``round_ops`` calls; the loop only stops at a round's end.
    """
    samples = []
    start = time.perf_counter()
    while not samples or len(samples) % round_ops or time.perf_counter() - start < seconds:
        samples.append(op(len(samples)))
    return samples


class PaperChain:
    """Timed unit: one chain pass in a fresh directory."""

    round_ops = 1

    def __init__(self, ctx: Context):
        scale = ctx.scale
        self.config = None
        if scale is not PAPER:
            self.config = ctx.write_config("chain.json", scale.chain_prototypes_mm,
                                           scale.chain_tests_mm)
        setups, self.setup_s = timed_setups(
            lambda k: ChainPass(ctx, ctx.work / f"setup_{k}", self.config, time_sweep=False)
        )
        self.digest = setups[0].digest

    def op(self, ctx: Context, i: int) -> ChainPass:
        done = ChainPass(ctx, ctx.work / f"pass_{i:03d}", self.config,
                         time_sweep=ctx.tracer is None)
        if done.digest != self.digest:
            raise CheckFailed(f"chain pass {i} wrote files that differ from set-up 0")
        return done

    @staticmethod
    def fastest_stages(samples) -> dict[str, float]:
        return {k: min(p.times[k] for p in samples) for k in (*STAGES, "sweep")}

    @classmethod
    def unit_s(cls, samples) -> float:
        """A pass with every stage at its fastest."""
        fastest = cls.fastest_stages(samples)
        return sum(fastest[stage] for stage in STAGES)

    @staticmethod
    def relative(ctx: Context) -> float:
        """The sum over stages of each stage's median relative time."""
        return sum(
            statistics.median(r for name, r in ctx.relative if name == stage) for stage in STAGES
        )

    def metrics(self, samples) -> dict[str, float]:
        stages = {f"stage.{k}.s": v for k, v in self.fastest_stages(samples).items()}
        return {
            "wall.latency_ms": 1e3 * self.unit_s(samples),
            "max_error_mm": samples[0].max_error_mm,
            "mean_error_mm": samples[0].mean_error_mm,
            **stages,
        }


_POSITION = re.compile(r": position (-?\d+(?:\.\d+)?) mm ")


class StreamSetup:
    """The events and the prototype database they are located against."""

    def __init__(self, ctx: Context, directory: Path, config: Path):
        run_stages(ctx, directory, [
            simulate_argv(ctx, config),
            ["calibrate", "data", "--report", "calibration.csv"],
            ["learn", "data", "--db", "prototypes.db", "--calibration", "calibration.csv"],
        ])
        check_band(directory)
        self.digest = digest_tree(directory)
        self.db = directory / "prototypes.db"
        self.cal = directory / "calibration.csv"
        _, rows = simulator.read_manifest(directory / "data" / simulator.MANIFEST_NAME)
        self.events = [
            (str(directory / "data" / row.file), row.position_mm)
            for row in rows
            if row.role == "test"
        ]


class LocateStream:
    """Timed unit: one event located by its own ``locate`` call; a round visits every event."""

    def __init__(self, ctx: Context):
        scale = ctx.scale
        config = ctx.write_config("stream.json", scale.chain_prototypes_mm, scale.stream_events_mm)
        setups, self.setup_s = timed_setups(
            lambda k: StreamSetup(ctx, ctx.work / f"setup_{k}", config)
        )
        self.setup = setups[0]
        self.round_ops = len(self.setup.events)
        self.errors: dict[str, float] = {}

    def op(self, ctx: Context, i: int) -> tuple[str, float]:
        path, truth = self.setup.events[i % self.round_ops]
        latency, out = ctx.stage(
            ["locate", str(self.setup.db), path, "--calibration", str(self.setup.cal)]
        )
        found = _POSITION.findall(out)
        if len(found) != 1:
            ctx.failed += 1
            raise CheckFailed(f"event {path} was not located: {out.strip()!r}")
        error_mm = abs(float(found[0]) - truth)
        if self.errors.setdefault(path, error_mm) != error_mm:
            raise CheckFailed(f"event {path} located at two different positions")
        if error_mm > MAX_LOCATION_ERROR_MM:
            raise CheckFailed(f"event {path} located {error_mm:.1f} mm off")
        return path, latency

    @staticmethod
    def unit_s(samples) -> float:
        """The median over events of each event's fastest call."""
        best: dict[str, float] = {}
        for path, latency in samples:
            best[path] = min(best.get(path, np.inf), latency)
        return statistics.median(best.values())

    @staticmethod
    def relative(ctx: Context) -> float:
        """The median relative time of a call."""
        return statistics.median(r for _, r in ctx.relative)

    def metrics(self, samples) -> dict[str, float]:
        errors = list(self.errors.values())
        return {
            "wall.latency_ms": 1e3 * self.unit_s(samples),
            "max_error_mm": max(errors),
            "mean_error_mm": statistics.fmean(errors),
            **{f"stage.{k}.s": 0.0 for k in (*STAGES, "sweep")},
        }


WORKLOAD_CLASSES = {
    "paper-chain": PaperChain,
    "locate-stream": LocateStream,
}


# ------------------------------------------------------------------ tracing


class LayerProbe:
    """Counts the traced functions' results that spans alone do not show."""

    def __init__(self):
        self.counts: dict[str, float] = {
            "signals.write_pair.bytes": 0,
            "signals.read_pair.bytes": 0,
            "calibration.bands": 0,
            "calibration.delays": 0,
            "calibration.delays_ok": 0,
            "grnn.extrapolated": 0,
        }
        self.read_files: set[str] = set()
        self.file_count = 0
        self.channels: WeakSet = WeakSet()
        self.channel_count = 0

    def start_op(self) -> None:
        """Files and channels are counted once per unit of work, not once per traced window."""
        self.read_files = set()
        self.channels = WeakSet()

    def hooks(self) -> dict:
        def wrote(args, kwargs, result):
            self.counts["signals.write_pair.bytes"] += os.path.getsize(result)

        def read(args, kwargs, result):
            path = os.path.abspath(args[0])
            if path not in self.read_files:
                self.read_files.add(path)
                self.file_count += 1
            self.counts["signals.read_pair.bytes"] += os.path.getsize(path)

        def filtered(args, kwargs, result):
            channel = args[1]
            if channel not in self.channels:
                self.channels.add(channel)
                self.channel_count += 1

        def swept(args, kwargs, result):
            self.counts["calibration.bands"] += len(result.records)
            for rec in result.records:
                self.counts["calibration.delays"] += rec.delays.size
                self.counts["calibration.delays_ok"] += int(np.isfinite(rec.delays).sum())

        def estimated(args, kwargs, result):
            self.counts["grnn.extrapolated"] += int(result.extrapolated)

        return {
            "signals.write_waveform_pair": wrote,
            "signals.read_waveform_pair": read,
            "signals.apply_filter": filtered,
            "calibration.sweep_bands": swept,
            "grnn.estimate": estimated,
        }


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the layer did no work in the traced window."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, probe: LayerProbe, ops: int) -> dict[str, float]:
    by_name: dict[str, list] = {}
    for rec in tracer.spans:
        by_name.setdefault(rec[0], []).append(rec)
    out: dict[str, float] = {}
    for prefix, (name, kinds) in LAYER_SPANS.items():
        spans = by_name.get(name, [])
        if "calls" in kinds:
            out[f"{prefix}.calls"] = len(spans) / ops
        if "s" in kinds:
            out[f"{prefix}.s"] = sum(r[3] - r[2] for r in spans) / ops
    c = probe.counts
    out["util.fmt.calls"] = tracer.counts["util.fmt.calls"] / ops
    out["signals.write_pair.bytes"] = c["signals.write_pair.bytes"] / ops
    out["signals.read_pair.files"] = probe.file_count / ops
    out["signals.read_pair.bytes"] = c["signals.read_pair.bytes"] / ops
    out["signals.delay_failed"] = sum(r[4] for r in by_name.get("signals.pair_delay", [])) / ops
    out["signals.filter.calls_per_channel"] = _ratio(
        len(by_name.get("signals.apply_filter", [])), probe.channel_count
    )
    out["calibration.bands"] = c["calibration.bands"] / ops
    out["calibration.delay_ok_ratio"] = _ratio(
        c["calibration.delays_ok"], c["calibration.delays"]
    )
    out["grnn.extrapolated"] = c["grnn.extrapolated"] / ops
    located = by_name.get("pipeline.locate_pair", [])
    out["pipeline.located_ok_ratio"] = _ratio(sum(not r[4] for r in located), len(located))

    # cli.<stage>.self_s: self time of the cli spans under each stage span
    own = tracer.self_times()
    stage_of = [None] * len(tracer.spans)
    for idx, rec in enumerate(tracer.spans):
        parent = rec[1]
        stage_of[idx] = stage_of[parent] if parent >= 0 else rec[0]
    stage_spans = {f"cli.{stage}" for stage in STAGES}
    for stage in stage_spans:
        out[f"{stage}.self_s"] = 0.0
    for idx, rec in enumerate(tracer.spans):
        if rec[0].startswith("cli.") and stage_of[idx] in stage_spans:
            out[f"{stage_of[idx]}.self_s"] += own[idx] / ops
    return out


# -------------------------------------------------------------- environment


def environment(root: Path, seed: int) -> dict:
    sources = sorted((root / "src" / "aeloc").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


# --------------------------------------------------------------------- main


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work: Path, scale: Scale = PAPER
) -> tuple[dict, Tracer | None]:
    """Set up, measure and check one workload; returns (result, tracer of the traced window).

    Raises CheckFailed, with the counters kept in the partial result on the
    exception's ``result`` attribute, if an operation or a check fails.
    """
    ctx = Context(work, seed, scale)
    work.mkdir(parents=True)
    tracer = None
    try:
        workload = WORKLOAD_CLASSES[name](ctx)
        op = lambda i: workload.op(ctx, i)  # noqa: E731
        if not trace:
            ctx.start_relative()
            samples = timed_loop(seconds, workload.round_ops, op)
            metrics = {"setup_s": workload.setup_s, **workload.metrics(samples)}
            metrics["latency_rel"] = workload.relative(ctx)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END_UNITS
        else:
            plain = timed_loop(seconds / 2.0, workload.round_ops, op)
            untraced = workload.metrics(plain)
            probe = LayerProbe()
            tracer = Tracer(hooks=probe.hooks())
            tracer.install(aeloc)
            ctx.tracer = tracer

            def traced_op(i):
                probe.start_op()
                return op(i)

            try:
                traced = timed_loop(seconds / 2.0, 1, traced_op)
            finally:
                ctx.tracer = None
                tracer.restore()
            metrics = layer_metrics(tracer, probe, len(traced))
            metrics.update({k: untraced[k] for k in UNTRACED_UNITS})
            metrics["trace.overhead_frac"] = workload.unit_s(traced) / workload.unit_s(plain) - 1.0
            metrics["trace.ops"] = len(traced)
            units = per_layer_units()
    except CheckFailed as exc:
        exc.result = {"correct": False, "attempted": max(ctx.attempted, 1),
                      "failed": ctx.failed, "metrics": {}}
        raise
    missing = set(units) - set(metrics)
    if missing:
        raise AssertionError(f"metrics not measured: {sorted(missing)}")
    result = {
        "correct": True,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return result, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description="aeloc stage-and-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    env = environment(root, args.seed)
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    code = 0
    try:
        result, tracer = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result, tracer, code = exc.result, None, 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        trace_path = base / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "environment": env})
        env["trace_file"] = str(trace_path.relative_to(root))
    print(json.dumps({"workload": args.workload, "trace": args.trace, "environment": env}))
    print(json.dumps(result))
    return code

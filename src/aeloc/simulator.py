"""Synthetic 1-D dispersive waveguide producing two-channel sensor signal pairs.

A source excitation is propagated to two sensors in the frequency domain:
each spectral component is phase-delayed by distance / velocity(f) and
scaled by the attenuation factor.  Propagation is circular over the record;
burst sources are placed with enough headroom that nothing wraps, while
continuous sources are stationary so the wrap is part of the model.  Both
channels derive from one source realization, so cross-correlation recovers
the geometric arrival-time difference.
"""

from __future__ import annotations

import json
import numbers
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signals import Waveform, write_waveform_pair
from .util import KM_S_TO_MM_S, atomic_write_text, fmt, key_value_fields, parse_number

DISCRETE_BURST = "discrete-burst"
CONTINUOUS_NOISE = "continuous-noise"

BURST_CYCLES = 10  # carrier cycles in one Hann-windowed burst


def _curve(points) -> tuple[tuple[float, float], ...]:
    pts = tuple((float(f), float(v)) for f, v in points)
    if not pts:
        raise ValueError("curve needs at least one (frequency, value) breakpoint")
    freqs = [f for f, _ in pts]
    if sorted(freqs) != freqs:
        raise ValueError("curve breakpoints must be sorted by frequency")
    return pts


def _interp(curve, freq_hz) -> np.ndarray:
    fp, vp = np.array(curve).T
    return np.interp(freq_hz, fp, vp)


@dataclass(frozen=True, eq=False)
class SpecimenModel:
    """1-D band geometry with a velocity curve, flat-or-curved attenuation, and noise level.

    ``velocity_points`` maps Hz -> km/s (linear interpolation, clamped at the
    ends); ``attenuation_db_per_m`` is a scalar or a breakpoint list of the
    same form, a scalar being stored as the one-point curve ``((0.0, att),)``;
    ``noise_snr_db=None`` disables additive noise.
    """

    length_mm: float
    sensor_1_mm: float
    sensor_2_mm: float
    velocity_points: tuple
    attenuation_db_per_m: float | tuple
    noise_snr_db: float | None
    sample_rate_hz: float
    record_length: int
    reflection_coeff: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.sensor_1_mm < self.sensor_2_mm <= self.length_mm):
            raise ValueError(
                f"sensors must satisfy 0 <= sensor_1 < sensor_2 <= length, got "
                f"{self.sensor_1_mm}, {self.sensor_2_mm} on length {self.length_mm}"
            )
        object.__setattr__(self, "velocity_points", _curve(self.velocity_points))
        if any(v <= 0.0 for _, v in self.velocity_points):
            raise ValueError("velocity curve must be positive everywhere")
        att = self.attenuation_db_per_m
        att = _curve(((0.0, att),) if np.isscalar(att) else att)
        object.__setattr__(self, "attenuation_db_per_m", att)
        if any(a < 0.0 for _, a in att):
            raise ValueError("attenuation must be nonnegative")
        if self.sample_rate_hz <= 0.0 or self.record_length < 2:
            raise ValueError("sample rate must be positive and record_length >= 2")
        if not 0.0 <= self.reflection_coeff <= 1.0:
            raise ValueError("reflection coefficient must be within [0, 1]")
        max_prop = self.sensor_separation_mm / (self.min_velocity_km_s * KM_S_TO_MM_S)
        if self.record_length / self.sample_rate_hz <= max_prop:
            raise ValueError(
                f"record of {self.record_length} samples at {self.sample_rate_hz} Hz is too "
                f"short for the maximum propagation delay {max_prop * 1e3:.3f} ms"
            )

    @property
    def sensor_separation_mm(self) -> float:
        return self.sensor_2_mm - self.sensor_1_mm

    @property
    def min_velocity_km_s(self) -> float:
        return min(v for _, v in self.velocity_points)

    def velocity_km_s(self, freq_hz) -> np.ndarray:
        return _interp(self.velocity_points, freq_hz)

    def attenuation_at(self, freq_hz) -> np.ndarray:
        return _interp(self.attenuation_db_per_m, freq_hz)


@dataclass(frozen=True)
class SourceSpec:
    """One synthetic emission event: position, excitation kind, and reproducibility seed."""

    position_mm: float
    kind: str
    amplitude: float
    burst_center_freq_hz: float
    band_hz: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in (DISCRETE_BURST, CONTINUOUS_NOISE):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be positive")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _burst(spec: SourceSpec, model: SpecimenModel) -> np.ndarray:
    """The Hann-windowed carrier burst of ``spec``, scaled to a peak of its amplitude."""
    f0, fs = spec.burst_center_freq_hz, model.sample_rate_hz
    n_burst = max(3, round(BURST_CYCLES / f0 * fs))
    t = np.arange(n_burst) / fs
    burst = np.hanning(n_burst) * np.sin(2.0 * np.pi * f0 * t)
    burst *= spec.amplitude / np.max(np.abs(burst))
    return burst


def _check_source(spec: SourceSpec, model: SpecimenModel) -> None:
    """Refuse a source outside the specimen, an excitation beyond the model's Nyquist, or
    a burst whose arrival at the farther sensor would wrap past the record end."""
    if not 0.0 <= spec.position_mm <= model.length_mm:
        raise ValueError(f"source position {spec.position_mm} mm outside the specimen")
    nyquist = model.sample_rate_hz / 2.0
    if spec.kind == DISCRETE_BURST:
        f0 = spec.burst_center_freq_hz
        if not 0.0 < f0 < nyquist:
            raise ValueError(f"burst center {f0} Hz outside (0, Nyquist={nyquist} Hz)")
        n, burst = model.record_length, _burst(spec, model)
        if n // 8 + burst.size > n:
            raise ValueError("record too short to hold the burst")
        # the last nonzero sample of synth_source's record: the window's end samples are zero
        last = n // 8 + int(np.flatnonzero(burst)[-1])
        worst_mm = max(
            abs(spec.position_mm - model.sensor_1_mm),
            abs(spec.position_mm - model.sensor_2_mm),
        )
        v_min_mm_s = model.min_velocity_km_s * KM_S_TO_MM_S
        if last + worst_mm / v_min_mm_s * model.sample_rate_hz >= n:
            raise ValueError(
                f"record too short: the delayed burst from {spec.position_mm} mm "
                "would wrap past the record end"
            )
    else:
        lo, hi = spec.band_hz
        if not 0.0 <= lo < hi < nyquist:
            raise ValueError(f"source band {spec.band_hz} Hz outside [0, Nyquist={nyquist} Hz)")


def synth_source(spec: SourceSpec, model: SpecimenModel) -> np.ndarray:
    """Source excitation at the emission site, one record long, deterministic per seed."""
    _check_source(spec, model)
    n = model.record_length
    fs = model.sample_rate_hz
    if spec.kind == DISCRETE_BURST:
        burst = _burst(spec, model)
        out = np.zeros(n)
        out[n // 8 : n // 8 + burst.size] = burst
        return out
    lo, hi = spec.band_hz
    rng = _rng(spec.seed, 0)
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    out = np.fft.irfft(spectrum, n=n)
    rms = np.sqrt(np.mean(out * out))
    if rms == 0.0:
        raise ValueError("source band contains no spectral bins at this record length")
    return out * (spec.amplitude / rms)


def _channel_transfer(model: SpecimenModel, freqs: np.ndarray, distance_mm: float) -> np.ndarray:
    v_mm_s = model.velocity_km_s(freqs) * KM_S_TO_MM_S
    delay_s = distance_mm / v_mm_s
    gain = 10.0 ** (-model.attenuation_at(freqs) * (distance_mm / 1000.0) / 20.0)
    return gain * np.exp(-2j * np.pi * freqs * delay_s)


def propagate(
    excitation: np.ndarray, spec: SourceSpec, model: SpecimenModel
) -> tuple[Waveform, Waveform]:
    """Carry the excitation to both sensors; returns the noisy channel pair."""
    x = np.asarray(excitation, dtype=np.float64)
    n = model.record_length
    if x.shape != (n,):
        raise ValueError(f"excitation must have record_length={n} samples")
    _check_source(spec, model)
    if not model.sensor_1_mm <= spec.position_mm <= model.sensor_2_mm:
        warnings.warn(
            f"source at {spec.position_mm} mm lies outside the sensor span "
            f"[{model.sensor_1_mm}, {model.sensor_2_mm}] mm; delays saturate there",
            stacklevel=2,
        )
    fs = model.sample_rate_hz
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    spectrum = np.fft.rfft(x)
    channels = []
    for idx, sensor_mm in enumerate((model.sensor_1_mm, model.sensor_2_mm)):
        h = _channel_transfer(model, freqs, abs(spec.position_mm - sensor_mm))
        if model.reflection_coeff > 0.0:
            for end_mm in (0.0, model.length_mm):
                bounce = abs(spec.position_mm - end_mm) + abs(sensor_mm - end_mm)
                h = h + model.reflection_coeff * _channel_transfer(model, freqs, bounce)
        y = np.fft.irfft(spectrum * h, n=n)
        if model.noise_snr_db is not None:
            signal_power = float(np.mean(y * y))
            noise_std = np.sqrt(signal_power * 10.0 ** (-model.noise_snr_db / 10.0))
            y = y + _rng(spec.seed, idx + 1).standard_normal(n) * noise_std
        channels.append(Waveform(y, fs))
    return channels[0], channels[1]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a dataset generation run needs, including the master seed."""

    model: SpecimenModel
    prototype_positions_mm: tuple[float, ...]
    test_positions_mm: tuple[float, ...]
    test_source_kind: str
    burst_center_freq_hz: float
    continuous_band_hz: tuple[float, float]
    source_amplitude: float
    seed: int


def default_config() -> dict:
    """Paper-scale defaults: 12 burst prototypes at 200 mm, 23 continuous tests at 100 mm.

    The velocity plateau sits at 1.7 km/s over 35-45 kHz and diverges
    linearly outside it, reaching -40 % at 0 Hz and +40 % at 80 kHz with the
    same gradient on both sides.
    """
    return {
        "specimen": {
            "length_mm": 4000.0,
            "sensor_1_mm": 800.0,
            "sensor_2_mm": 3200.0,
            "velocity_points_hz_km_s": [
                [0.0, 1.02],
                [35000.0, 1.7],
                [45000.0, 1.7],
                [80000.0, 2.38],
                [500000.0, 2.38],
            ],
            "attenuation_db_per_m": 5.0,
            "noise_snr_db": 20.0,
            "sample_rate_hz": 1000000.0,
            "record_length": 16384,
            "reflection_coeff": 0.0,
        },
        "prototype_positions_mm": [900.0 + 200.0 * k for k in range(12)],
        "test_positions_mm": [900.0 + 100.0 * k for k in range(23)],
        "test_source_kind": CONTINUOUS_NOISE,
        "burst_center_freq_hz": 40000.0,
        "continuous_band_hz": [30000.0, 50000.0],
        "source_amplitude": 1.0,
        "seed": 0,
    }


def _finite(key: str, value: numbers.Real) -> numbers.Real:
    """``value``; NaN, an infinity or an int beyond the doubles is refused, naming ``key``."""
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key}: number must be finite, got {value!r}")
    return value


def _integer(key: str, value) -> int:
    """``value`` as an int; a boolean or a number with a fraction is refused, not truncated,
    and NaN, an infinity or an int beyond the doubles as :func:`_floats` refuses them."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or _finite(key, value) % 1:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _floats(key: str, value, depth: int = 0):
    """``value`` as a float or, ``depth`` lists deep, as nested tuples of floats; a value of
    another kind (a boolean, a string, null, a list where a number belongs) or a non-finite
    number names ``key``.  Depth 2 is a curve, a non-empty list of [frequency, value] pairs."""
    if depth == 0 and isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(_finite(key, value))
    if depth == 1 and isinstance(value, (list, tuple)):
        return tuple(_floats(key, item) for item in value)
    if depth == 2 and isinstance(value, (list, tuple)):
        if not value:
            raise ValueError(f"{key}: a curve needs at least one [frequency, value] pair")
        return tuple(_pair(key, item, "[frequency, value]") for item in value)
    kind = ("a number", "a list of numbers", "a list of [frequency, value] pairs")[depth]
    raise ValueError(f"{key}: {value!r} is not {kind}")


def _pair(key: str, value, names: str) -> tuple[float, float]:
    """``value`` as a list of two floats, ``names`` saying what the two are."""
    pair = _floats(key, value, 1)
    if len(pair) != 2:
        raise ValueError(f"{key}: {value!r} is not a {names} pair")
    return pair


def parse_config(raw: dict) -> ExperimentConfig:
    """Overlay ``raw`` on :func:`default_config`; keys the defaults lack, and values of
    another kind than the defaults', are refused by key."""
    if not isinstance(raw, dict):
        raise ValueError(f"configuration: {raw!r} is not an object of keys")
    merged = default_config()
    unknown = set(raw) - set(merged)
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    if not isinstance(specimen := raw.get("specimen", {}), dict):
        raise ValueError(f"specimen: {specimen!r} is not an object of keys")
    spec_raw = {**merged["specimen"], **specimen}
    unknown = set(spec_raw) - set(merged["specimen"])
    if unknown:
        raise ValueError(f"unknown specimen keys: {sorted(unknown)}")
    merged.update({k: v for k, v in raw.items() if k != "specimen"})

    def number(key: str, depth: int = 0):
        return _floats(f"specimen.{key}", spec_raw[key], depth)

    attenuation, snr = spec_raw["attenuation_db_per_m"], spec_raw["noise_snr_db"]
    model = SpecimenModel(
        length_mm=number("length_mm"),
        sensor_1_mm=number("sensor_1_mm"),
        sensor_2_mm=number("sensor_2_mm"),
        velocity_points=number("velocity_points_hz_km_s", 2),
        attenuation_db_per_m=number(
            "attenuation_db_per_m", 2 if isinstance(attenuation, (list, tuple)) else 0
        ),
        noise_snr_db=None if snr is None else number("noise_snr_db"),
        # a pair file's header stores the rate as an integer
        sample_rate_hz=float(_integer("specimen.sample_rate_hz", spec_raw["sample_rate_hz"])),
        record_length=_integer("specimen.record_length", spec_raw["record_length"]),
        reflection_coeff=number("reflection_coeff"),
    )
    seed = _integer("seed", merged["seed"])
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {merged['seed']!r}")
    return ExperimentConfig(
        model=model,
        prototype_positions_mm=_floats(
            "prototype_positions_mm", merged["prototype_positions_mm"], 1
        ),
        test_positions_mm=_floats("test_positions_mm", merged["test_positions_mm"], 1),
        test_source_kind=merged["test_source_kind"],
        burst_center_freq_hz=_floats("burst_center_freq_hz", merged["burst_center_freq_hz"]),
        continuous_band_hz=_pair(
            "continuous_band_hz", merged["continuous_band_hz"], "[low, high]"
        ),
        source_amplitude=_floats("source_amplitude", merged["source_amplitude"]),
        seed=seed,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """:func:`parse_config` of the UTF-8 JSON file at ``path``; text that is not UTF-8 or not
    JSON is refused with the file and line, and a key repeated in any object with the file
    and the key."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"configuration file not found: {path}")

    def unique(pairs) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: configuration key {key!r} appears twice")
            obj[key] = value
        return obj

    data = path.read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: {exc.msg} (column {exc.colno})") from None
    return parse_config(raw)


@dataclass(frozen=True)
class ManifestRow:
    file: str
    role: str  # "prototype" | "test"
    position_mm: float
    kind: str


MANIFEST_NAME = "manifest.txt"


def pair_files(directory: Path, role: str) -> set[str]:
    """Names of the ``<role>_*.txt`` pair files in ``directory``, the files a manifest lists."""
    return {p.name for p in directory.glob(f"{role}_*.txt")}


def write_manifest(path: str | Path, model: SpecimenModel, rows: list[ManifestRow]) -> Path:
    # the pair files state the sample rate, in their first line
    lines = [
        f"# sensor_1_mm={fmt(model.sensor_1_mm)} sensor_2_mm={fmt(model.sensor_2_mm)}",
        "file,role,position_mm,kind",
    ]
    lines.extend(f"{r.file},{r.role},{fmt(r.position_mm)},{r.kind}" for r in rows)
    return atomic_write_text(path, "\n".join(lines) + "\n")


def read_manifest(path: str | Path) -> tuple[dict, list[ManifestRow]]:
    """The header fields and rows of the manifest at ``path``; a header without both sensor
    positions, or whose ``sensor_2_mm`` does not lie above ``sensor_1_mm``, is refused."""
    path = Path(path)
    rows: list[ManifestRow] = []
    listed: set[str] = set()
    with open(path) as fh:
        first = fh.readline().strip()
        if not first.startswith("#"):
            raise ValueError(f"{path}: manifest must start with a '# key=value ...' line")
        fields = key_value_fields(path, [(1, first)])
        meta = {key: parse_number(value, f"{path}:1: {key}") for key, (_, value) in fields.items()}
        for key in ("sensor_1_mm", "sensor_2_mm"):
            if key not in meta:
                raise ValueError(f"{path}: header lacks {key!r}")
        separation = meta["sensor_2_mm"] - meta["sensor_1_mm"]
        if not 0.0 < separation < np.inf:
            raise ValueError(f"{path}: sensor separation sensor_2_mm - sensor_1_mm "
                             f"= {separation} mm must be finite and positive")
        header = fh.readline().strip()
        if header != "file,role,position_mm,kind":
            raise ValueError(f"{path}: unexpected manifest column header {header!r}")
        for ln, line in enumerate(fh, start=3):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ValueError(f"{path}:{ln}: expected 4 fields")
            if fields[1] not in ("prototype", "test"):
                raise ValueError(
                    f"{path}:{ln}: role must be 'prototype' or 'test', got {fields[1]!r}"
                )
            position = parse_number(fields[2], f"{path}:{ln}: position_mm")
            if fields[0] in listed:
                raise ValueError(f"{path}:{ln}: file {fields[0]!r} is listed twice")
            listed.add(fields[0])
            rows.append(ManifestRow(fields[0], fields[1], position, fields[3]))
    return meta, rows


def _source_seed(master_seed: int, role_index: int, source_index: int) -> int:
    seq = np.random.SeedSequence([int(master_seed), role_index, source_index])
    return int(seq.generate_state(1)[0])


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> list[ManifestRow]:
    """Synthesize prototype and test signal pairs and write them plus a manifest.

    Prototype sources are always discrete bursts (the calibration excitation);
    test sources use the configured kind.  Output bytes depend only on the
    configuration, so equal seeds give identical datasets.  Every source is
    checked before the first file is written, so a bad setting writes nothing,
    and so does an ``out_dir`` holding a pair file the new manifest would not list.
    """
    out = Path(out_dir)
    model = config.model
    groups = (
        ("prototype", DISCRETE_BURST, config.prototype_positions_mm),
        ("test", config.test_source_kind, config.test_positions_mm),
    )
    sources: list[tuple[ManifestRow, SourceSpec]] = []
    for role_index, (role, kind, positions) in enumerate(groups):
        for i, z in enumerate(positions):
            try:
                spec = SourceSpec(
                    position_mm=float(z),
                    kind=kind,
                    amplitude=config.source_amplitude,
                    burst_center_freq_hz=config.burst_center_freq_hz,
                    band_hz=config.continuous_band_hz,
                    seed=_source_seed(config.seed, role_index, i),
                )
                _check_source(spec, model)
            except ValueError as exc:
                raise ValueError(f"{role} source {i}: {exc}") from None
            sources.append((ManifestRow(f"{role}_{i:02d}.txt", role, float(z), kind), spec))
    listed = {row.file for row, _ in sources}
    if stale := sorted(name for role, _, _ in groups for name in pair_files(out, role) - listed):
        raise ValueError(f"{out}: holds pair files the new manifest would not list: "
                         f"{', '.join(stale)}; simulate into an empty directory")
    out.mkdir(parents=True, exist_ok=True)
    for row, spec in sources:
        ch1, ch2 = propagate(synth_source(spec, model), spec, model)
        try:
            write_waveform_pair(out / row.file, ch1, ch2)
        except OSError as exc:
            raise OSError(f"failed writing {out / row.file}: {exc}") from exc
    rows = [row for row, _ in sources]
    write_manifest(out / MANIFEST_NAME, model, rows)
    return rows

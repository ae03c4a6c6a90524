"""Two-channel signal handling: bandpass filtering, cross-correlation, delay estimation.

The operative quantity downstream is the inter-channel arrival-time
difference; see :func:`pair_delay` for the sign convention used by the
calibration and location stages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sps

from .util import atomic_write_text, fmt


class NoSignalError(ValueError):
    """Correlation function carries no usable peak (identically zero)."""


class DelayWindowError(ValueError):
    """Correlation peak sits on the lag boundary; the true delay may lie outside the window."""


@dataclass(frozen=True, eq=False)
class Waveform:
    """Uniformly sampled single-channel signal (amplitudes dimensionless, rate in Hz)."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("waveform needs a non-empty 1-D sample sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform samples must all be finite")
        rate = float(self.sample_rate)
        if not rate > 0.0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


@dataclass(frozen=True)
class FilterSpec:
    """Bandpass corner frequencies in Hz; ``order`` counts poles per band edge."""

    f_low: float
    f_high: float
    order: int = 4

    def __post_init__(self) -> None:
        if int(self.order) != self.order or self.order < 1:
            raise ValueError(f"filter order must be a positive integer, got {self.order!r}")
        if not (0.0 < self.f_low < self.f_high):
            raise ValueError(
                f"band edges must satisfy 0 < f_low < f_high, got {self.f_low}..{self.f_high} Hz"
            )

    def validate_for(self, sample_rate: float) -> None:
        if self.f_high >= sample_rate / 2.0:
            raise ValueError(
                f"f_high={self.f_high} Hz is not below the Nyquist frequency "
                f"{sample_rate / 2.0} Hz"
            )


@dataclass(frozen=True, eq=False)
class BandpassFilter:
    """Designed causal IIR bandpass as second-order sections, tied to one sample rate."""

    spec: FilterSpec
    sample_rate: float
    sos: np.ndarray


def design_bandpass(spec: FilterSpec, sample_rate: float) -> BandpassFilter:
    """Design a causal Butterworth bandpass (maximally flat in the passband)."""
    spec.validate_for(sample_rate)
    sos = sps.butter(
        spec.order, [spec.f_low, spec.f_high], btype="bandpass", fs=sample_rate, output="sos"
    )
    return BandpassFilter(spec=spec, sample_rate=float(sample_rate), sos=sos)


def apply_filter(filt: BandpassFilter, w: Waveform) -> Waveform:
    """Run a single causal forward pass; output keeps length and sample rate."""
    if filt.sample_rate != w.sample_rate:
        raise ValueError(
            f"filter designed for {filt.sample_rate} Hz cannot be applied at {w.sample_rate} Hz"
        )
    return Waveform(sps.sosfilt(filt.sos, w.samples), w.sample_rate)


@dataclass(frozen=True, eq=False)
class CorrelationFunction:
    """Unnormalized correlation sums over lags -max_lag..+max_lag."""

    values: np.ndarray
    max_lag: int
    sample_rate: float

    def lags(self) -> np.ndarray:
        return np.arange(-self.max_lag, self.max_lag + 1)


def cross_correlate(y1: Waveform, y2: Waveform, max_lag: int) -> CorrelationFunction:
    """Correlation r[lag] = sum_t y1[t] * y2[t + lag], truncated at the record edges.

    If y2 equals y1 delayed by d samples the peak falls at lag = +d.  Only
    lags -max_lag..+max_lag are computed: short records use the direct sum,
    longer ones an FFT sized for the record plus the lag window.
    """
    if y1.sample_rate != y2.sample_rate:
        raise ValueError(
            f"sample rates differ: {y1.sample_rate} Hz vs {y2.sample_rate} Hz"
        )
    n1, n2 = len(y1), len(y2)
    lag = int(max_lag)
    if lag != max_lag or lag < 1:
        raise ValueError(f"max_lag must be a positive integer, got {max_lag!r}")
    if lag >= min(n1, n2):
        raise ValueError(f"max_lag={lag} must be smaller than both records ({n1}, {n2})")
    a, b = y1.samples, y2.samples
    if sps.choose_conv_method(b, a[::-1], mode="full") == "direct":
        full = np.convolve(b, a[::-1])
        centre = n1 - 1  # index of lag 0 in the full correlation
        values = full[centre - lag : centre + lag + 1]
    else:
        # circular correlation, zero-padded so no wrap-around reaches |lag| <= max_lag
        nfft = sp_fft.next_fast_len(max(n1, n2) + lag, real=True)
        circ = sp_fft.irfft(sp_fft.rfft(b, nfft) * np.conj(sp_fft.rfft(a, nfft)), nfft)
        values = np.concatenate((circ[nfft - lag :], circ[: lag + 1]))
    return CorrelationFunction(values=values, max_lag=lag, sample_rate=y1.sample_rate)


@dataclass(frozen=True)
class DelayEstimate:
    """Lag of the correlation peak in seconds, plus quality indicators."""

    delay: float
    peak_value: float
    peak_sharpness: float


def _peak_sharpness(values: np.ndarray, peak_index: int) -> float:
    """Ratio of the global peak to the second-highest local maximum (inf if none)."""
    peaks, _ = sps.find_peaks(values)
    peak_vals = np.sort(values[peaks])[::-1]
    # the global peak itself is among the local maxima (or shares its value on a plateau)
    others = peak_vals[1:] if peak_vals.size and peak_vals[0] == values[peak_index] else peak_vals
    if others.size == 0 or others[0] <= 0.0:
        return float("inf")
    return float(values[peak_index] / others[0])


def estimate_delay(r: CorrelationFunction, refine: bool = True) -> DelayEstimate:
    """Locate the correlation peak and convert its lag to seconds.

    With ``refine`` the integer peak is sharpened by three-point parabolic
    interpolation (at most half a sample of correction).
    """
    v = r.values
    if not np.any(v):
        raise NoSignalError("no signal: correlation function is identically zero")
    i = int(np.argmax(v))
    if i == 0 or i == v.size - 1:
        raise DelayWindowError(
            f"delay window exceeded: correlation peak at boundary lag "
            f"{i - r.max_lag:+d}; increase max_lag"
        )
    offset = 0.0
    if refine:
        denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
        if denom != 0.0:
            offset = float(np.clip(0.5 * (v[i - 1] - v[i + 1]) / denom, -0.5, 0.5))
    delay = (i - r.max_lag + offset) / r.sample_rate
    return DelayEstimate(
        delay=float(delay),
        peak_value=float(v[i]),
        peak_sharpness=_peak_sharpness(v, i),
    )


def pair_delay(ch1: Waveform, ch2: Waveform, max_lag: int, refine: bool = True) -> DelayEstimate:
    """Arrival-time difference t(ch1) - t(ch2) of a common wavefront, in seconds.

    Positive when the wave reaches channel 2 first.  This is the delay the
    calibration sweep and the locator feed to the regression stage.
    """
    return estimate_delay(cross_correlate(ch2, ch1, max_lag), refine=refine)


def filtered_delay(
    filt: BandpassFilter, ch1: Waveform, ch2: Waveform, max_lag: int, refine: bool = True
) -> DelayEstimate:
    """:func:`pair_delay` of the two channels after one causal pass of ``filt`` each."""
    return pair_delay(apply_filter(filt, ch1), apply_filter(filt, ch2), max_lag, refine=refine)


def lag_window(max_delay_s: float, sample_rate: float) -> int:
    """Correlation half-width in samples that covers delays up to ``max_delay_s``."""
    return int(np.ceil(max_delay_s * sample_rate))


_RATE_LINE = re.compile(r"^#\s*sample_rate_hz=(\d+)\s*$")


def write_waveform_pair(path: str | Path, ch1: Waveform, ch2: Waveform) -> Path:
    """Write a two-channel pair as delimited text with a sample-rate header line."""
    if ch1.sample_rate != ch2.sample_rate:
        raise ValueError("channels of a pair must share one sample rate")
    if len(ch1) != len(ch2):
        raise ValueError("channels of a pair must have equal length")
    rate = round(ch1.sample_rate)
    if abs(rate - ch1.sample_rate) > 1e-6:
        raise ValueError(f"file format stores integer sample rates, got {ch1.sample_rate}")
    lines = [f"# sample_rate_hz={rate}"]
    lines.extend(f"{fmt(a)},{fmt(b)}" for a, b in zip(ch1.samples.tolist(), ch2.samples.tolist()))
    return atomic_write_text(path, "\n".join(lines) + "\n")


def read_waveform_pair(path: str | Path) -> tuple[Waveform, Waveform]:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline()
        m = _RATE_LINE.match(header)
        if m is None:
            raise ValueError(f"{path}: first line must be '# sample_rate_hz=<integer>'")
        rate = float(m.group(1))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two comma-separated channels per line")
    return Waveform(data[:, 0], rate), Waveform(data[:, 1], rate)

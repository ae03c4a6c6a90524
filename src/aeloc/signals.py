"""Two-channel signal handling: bandpass filtering, cross-correlation, delay estimation.

The operative quantity downstream is the inter-channel arrival-time
difference through a band, :func:`filtered_delay`: calibration, learning and
location share that one estimator, signed as :func:`pair_delay`.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NoReturn

import numpy as np
import orjson
from scipy import fft as sp_fft

# scipy.signal takes about a second to load: the three functions using it, no stage's, import it

from .util import atomic_write_bytes, positive_field

# rows per inverse FFT in CrossSpectra.correlations: the sweep's working set holds one
# block of filtered spectra and circular correlations, not one per pair
CORRELATION_BLOCK = 2
# bytes of lines per orjson.loads in read_waveform_pair, and rows per orjson.dumps in
# write_waveform_pair: a pair file's reader and writer hold one block's text and floats
READ_BLOCK = 1 << 17
WRITE_BLOCK = 4096


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
        if not 0.0 < rate < math.inf:
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate!r}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return int(self.samples.size)


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


# the estimator's key=value fields and their kinds, as the calibration report and the database
# header both write them (BandpassFilter.fields) and BandpassFilter.read reads them
ESTIMATOR_FIELDS = {"f_low_hz": float, "f_high_hz": float, "order": int, "max_delay_s": float,
                    "sample_rate_hz": float}


@dataclass(frozen=True)
class BandpassFilter:
    """The band-delay estimator: a Butterworth bandpass as scipy.signal.butter designs it at
    one sample rate, read as |H|², and the delay window its correlations span; equal to
    another when band, rate and window are."""

    spec: FilterSpec
    sample_rate: float
    max_delay_s: float = 2.5e-3
    # the correlation half-width in samples, lag_window(max_delay_s, sample_rate)
    max_lag: int = field(init=False, repr=False, compare=False)
    # what check_rate names: the file read() took the filter from; never written
    source: str = field(default="the filter", init=False, repr=False, compare=False)
    # rfft_power's responses by FFT length, computed on first use like sos
    _rfft_powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sample_rate", float(self.sample_rate))
        if (nyquist := self.sample_rate / 2.0) <= self.spec.f_high:
            raise ValueError(f"f_high={self.spec.f_high} Hz is not below the Nyquist frequency "
                             f"{nyquist} Hz")
        if not self.max_delay_s > 0.0:
            raise ValueError(f"max_delay_s must be positive, got {self.max_delay_s!r}")
        object.__setattr__(self, "max_lag", lag_window(self.max_delay_s, self.sample_rate))

    def fields(self) -> dict[str, float | int]:
        """The estimator's ``key=value`` fields (:data:`ESTIMATOR_FIELDS`); ``order`` is an int."""
        spec = self.spec
        values = (spec.f_low, spec.f_high, int(spec.order), self.max_delay_s, self.sample_rate)
        return dict(zip(ESTIMATOR_FIELDS, values))

    @classmethod
    def read(cls, path, fields: dict[str, tuple[int, str]], remedy: str) -> BandpassFilter:
        """The estimator of the :func:`~aeloc.util.key_value_fields` of a calibration report's
        summary or a database header.  A field missing (the message ends in ``remedy``) or not
        positive (:func:`~aeloc.util.positive_field`), or a band inverted or at Nyquist, raises
        ``ValueError`` led by ``<path>:<line>:``."""
        low, high, order, max_delay_s, rate = (
            positive_field(path, fields, key, remedy, kind)
            for key, kind in ESTIMATOR_FIELDS.items()
        )
        first, *_, last = (fields[key][0] for key in ESTIMATOR_FIELDS)
        try:
            spec = FilterSpec(low, high, order)
        except ValueError as exc:  # the edges and the order are positive: the band is inverted
            raise ValueError(f"{path}:{first}: {exc}") from None
        try:
            filt = cls(spec, rate, max_delay_s)
        except ValueError as exc:  # the band reaches Nyquist, or the window gives no lag
            raise ValueError(f"{path}:{last}: {exc}") from None
        object.__setattr__(filt, "source", str(path))
        return filt

    def check_rate(self, rate: float) -> None:
        """Refuse data sampled at ``rate`` unless it is this estimator's, naming its ``source``."""
        if rate != self.sample_rate:
            raise ValueError(
                f"sample rate {rate} Hz differs from {self.source}'s {self.sample_rate} Hz"
            )

    @cached_property
    def sos(self) -> np.ndarray:
        """Second-order sections, designed on first use; only :func:`apply_filter` needs them."""
        from scipy import signal as sps
        spec = self.spec
        return sps.butter(
            spec.order, [spec.f_low, spec.f_high], "bandpass", output="sos", fs=self.sample_rate
        )

    def power_response(self, omega: np.ndarray) -> np.ndarray:
        """|H(e^jω)|² at ``omega`` radians per sample, in closed form.

        The analog 1 / (1 + Ω^2N) taken to a band-pass by Ω → (Ω² − Ω1·Ω2) / ((Ω2 − Ω1)·Ω),
        then to the z-plane by Ω = 2·fs·tan(ω/2), edges prewarped to Ω_i = 2·fs·tan(π·f_i/fs).
        """
        x1, x2 = np.tan(np.pi * np.array([self.spec.f_low, self.spec.f_high]) / self.sample_rate)
        x = np.tan(0.5 * np.asarray(omega, dtype=np.float64))
        # ω = 0 divides to -inf and large orders overflow to inf: both give exactly 0
        with np.errstate(divide="ignore", over="ignore"):
            return 1.0 / (1.0 + ((x * x - x1 * x2) / ((x2 - x1) * x)) ** (2 * self.spec.order))

    def rfft_power(self, nfft: int) -> np.ndarray:
        """:meth:`power_response` at the bins of an ``nfft``-point rfft, once per ``nfft``."""
        power = self._rfft_powers.get(nfft)
        if power is None:
            power = self.power_response(2.0 * np.pi * sp_fft.rfftfreq(nfft))
            power.flags.writeable = False
            self._rfft_powers[nfft] = power
        return power


def design_bandpass(spec: FilterSpec, sample_rate: float) -> BandpassFilter:
    """Butterworth bandpass (maximally flat in the passband) with the default delay window;
    only checks the band against Nyquist."""
    return BandpassFilter(spec, sample_rate)


def apply_filter(filt: BandpassFilter, w: Waveform) -> Waveform:
    """Run a single causal forward pass; output keeps length and sample rate."""
    filt.check_rate(w.sample_rate)
    from scipy import signal as sps
    return Waveform(sps.sosfilt(filt.sos, w.samples), w.sample_rate)


@dataclass(frozen=True, eq=False)
class CorrelationFunction:
    """Unnormalized correlation sums over lags -max_lag..+max_lag (:func:`cross_correlate`)."""

    values: np.ndarray
    sample_rate: float

    @property
    def max_lag(self) -> int:
        return (len(self.values) - 1) // 2


@dataclass(frozen=True, eq=False)
class CrossSpectra:
    """Cross-spectra ``rfft(ch1) * conj(rfft(ch2))`` of two-channel records, one row per pair.

    Rows are zero-padded to ``nfft`` points, the first pair's longest record plus
    the lag window, so no wrap-around reaches |lag| <= ``lag`` and the circular
    correlation equals the linear one there.  Both channels pass the same
    filter, so a band's correlation is the inverse FFT of the raw cross-spectrum
    times the band's closed-form |H|² (Knapp & Carter 1976): zero-phase, free of
    filter start-up edges, no filter design, and one inverse FFT per pair and band,
    taken ``CORRELATION_BLOCK`` rows at a time.
    """

    values: np.ndarray
    lag: int
    nfft: int
    sample_rate: float

    @classmethod
    def of_pairs(cls, pairs, max_lag: int) -> CrossSpectra:
        """Spectra of (ch1, ch2) records for lags -max_lag..+max_lag, taken a pair at a time.

        ``pairs`` is any iterable with a length, read once in order, so a lazy one
        holds a single pair at a time.  The first pair fixes the sample rate and
        ``nfft``; no later record may be longer than the first pair's longest.
        """
        lag = int(max_lag)
        if lag != max_lag or lag < 1:
            raise ValueError(f"max_lag must be a positive integer, got {max_lag!r}")
        cross = rate = longest = nfft = None
        taken = 0  # not enumerate: its reused result tuple would keep the last pair alive
        for ch1, ch2 in pairs:
            if cross is None:
                rate, longest = ch1.sample_rate, max(len(ch1), len(ch2))
                nfft = sp_fft.next_fast_len(longest + lag, real=True)
                cross = np.empty((len(pairs), nfft // 2 + 1), np.complex128)
            if taken == len(cross):
                raise ValueError(f"pairs yielded more records than their length of {len(cross)}")
            for w in (ch1, ch2):
                if w.sample_rate != rate:
                    raise ValueError(f"sample rates differ: {rate} Hz vs {w.sample_rate} Hz")
            if lag >= min(len(ch1), len(ch2)):
                raise ValueError(
                    f"max_lag={lag} must be smaller than every record "
                    f"(pair {taken}: lengths {len(ch1)} and {len(ch2)})"
                )
            if max(len(ch1), len(ch2)) > longest:
                raise ValueError(
                    f"pair {taken}: a record of {max(len(ch1), len(ch2))} samples is longer "
                    f"than pair 0's longest ({longest}), which fixed the FFT length"
                )
            # rfft(ch1) * conj(rfft(ch2)) is the spectrum of cross_correlate(ch2, ch1), as in
            # pair_delay; numpy rounds in-place complex products differently from out-of-place
            row = cross[taken]
            row[:] = sp_fft.rfft(ch1.samples, nfft)
            conj = sp_fft.rfft(ch2.samples, nfft)
            row *= np.conj(conj, out=conj)
            taken += 1
            del ch1, ch2, w, conj  # unbound before the next pair is read
        if taken == 0 or taken != len(cross):
            raise ValueError(f"pairs yielded {taken} records but have a length of {len(pairs)}")
        return cls(cross, lag, nfft, rate)

    def correlations(self, filt: BandpassFilter | None = None) -> np.ndarray:
        """A row per pair: correlation at lags -lag..+lag through ``filt``, signed as pair_delay.

        Rows go through the inverse FFT ``CORRELATION_BLOCK`` at a time, so only one
        block of filtered spectra and circular correlations is held beside the result.
        """
        if filt is not None:
            filt.check_rate(self.sample_rate)
            power = filt.rfft_power(self.nfft)
        lag = self.lag
        windows = np.empty((len(self.values), 2 * lag + 1))
        block = np.empty((CORRELATION_BLOCK, self.values.shape[1]), np.complex128)
        for start in range(0, len(windows), CORRELATION_BLOCK):
            rows = slice(start, start + CORRELATION_BLOCK)
            cross = self.values[rows]
            if filt is not None:
                cross = np.multiply(cross, power, out=block[: len(cross)])
            circ = sp_fft.irfft(cross, self.nfft, axis=-1)
            windows[rows, :lag] = circ[:, -lag:]
            windows[rows, lag:] = circ[:, : lag + 1]
        return windows


def cross_correlate(y1: Waveform, y2: Waveform, max_lag: int) -> CorrelationFunction:
    """Correlation r[lag] = sum_t y1[t] * y2[t + lag], truncated at the record edges.

    If y2 equals y1 delayed by d samples the peak falls at lag = +d.  Only
    lags -max_lag..+max_lag are computed (:class:`CrossSpectra`); short records
    take the direct sum in place of the FFT values, free of FFT rounding.
    """
    from scipy import signal as sps
    spectra = CrossSpectra.of_pairs([(y2, y1)], max_lag)
    (values,) = spectra.correlations()
    a, b = y1.samples, y2.samples
    if sps.choose_conv_method(b, a[::-1], mode="full") == "direct":
        full = np.convolve(b, a[::-1])
        centre = len(a) - 1  # index of lag 0 in the full correlation
        values = full[centre - spectra.lag : centre + spectra.lag + 1]
    return CorrelationFunction(values, spectra.sample_rate)


@dataclass(frozen=True)
class DelayEstimate:
    """Lag of the correlation peak in seconds."""

    delay: float


def pick_delays(
    windows: np.ndarray, sample_rate: float, refine: bool = True
) -> tuple[np.ndarray, dict[int, ValueError]]:
    """Peak lag in seconds of every row of ``windows``, correlations over lags -L..+L (L >= 1).

    The first maximum wins; ``refine`` sharpens it by three-point parabolic interpolation (at
    most half a sample).  A row with no usable peak reads NaN; its error is keyed by row.
    """
    v = np.asarray(windows, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] % 2 == 0 or v.shape[1] < 3:
        raise ValueError(f"correlation rows need an odd width 2L + 1 >= 3, got shape {v.shape}")
    max_lag = (v.shape[1] - 1) // 2  # L
    peak = np.argmax(v, axis=1)
    silent = ~np.any(v, axis=1)
    failed = silent | (peak == 0) | (peak == v.shape[1] - 1)
    offset = 0.0
    if refine:
        # boundary rows fail anyway; clamping keeps their neighbours inside the row
        i, rows = np.clip(peak, 1, v.shape[1] - 2), np.arange(len(v))
        left, mid, right = v[rows, i - 1], v[rows, i], v[rows, i + 1]
        denom = left - 2.0 * mid + right
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = np.where(denom != 0.0, np.clip(0.5 * (left - right) / denom, -0.5, 0.5), 0.0)
    delays = np.where(failed, np.nan, (peak - max_lag + offset) / sample_rate)
    silence = "no signal: correlation function is identically zero"
    edge = "delay window exceeded: correlation peak at boundary lag {:+d}; increase max_lag"
    errors: dict[int, ValueError] = {  # in row order, as callers report them
        i: NoSignalError(silence) if silent[i] else DelayWindowError(edge.format(peak[i] - max_lag))
        for i in np.flatnonzero(failed).tolist()
    }
    return delays, errors


def estimate_delay(r: CorrelationFunction, refine: bool = True) -> DelayEstimate:
    """:func:`pick_delays` of one correlation; raises the error of a row with no usable peak."""
    (delay,), errors = pick_delays(r.values[np.newaxis], r.sample_rate, refine)
    if errors:
        raise errors[0]
    return DelayEstimate(delay=float(delay))


def pair_delay(ch1: Waveform, ch2: Waveform, max_lag: int) -> DelayEstimate:
    """Arrival-time difference t(ch1) - t(ch2) of a common wavefront, in seconds.

    Positive when the wave reaches channel 2 first.  This is the delay the
    calibration sweep and the locator feed to the regression stage.
    """
    return estimate_delay(cross_correlate(ch2, ch1, max_lag))


def filtered_delay(filt: BandpassFilter, ch1: Waveform, ch2: Waveform) -> DelayEstimate:
    """:func:`pair_delay` of both channels through ``filt`` in its window: the one estimator."""
    filt.check_rate(ch1.sample_rate)  # before of_pairs can refuse the pair's length
    (values,) = CrossSpectra.of_pairs([(ch1, ch2)], filt.max_lag).correlations(filt)
    return estimate_delay(CorrelationFunction(values, ch1.sample_rate))


def lag_window(max_delay_s: float, sample_rate: float) -> int:
    """Correlation half-width in samples that covers delays up to ``max_delay_s``."""
    lag = max_delay_s * sample_rate
    if not math.isfinite(lag):
        raise ValueError(f"max_delay_s={max_delay_s} s gives no finite lag at {sample_rate} Hz")
    return math.ceil(lag)


_RATE_LINE = re.compile(rb"^#\s*sample_rate_hz=(\d+)\s*$")
# the bytes a sample line may hold: those of JSON numbers, blanks and the two separators
_SAMPLE_BYTES = b"0123456789+-.eE \t,\n"
# the separators of a block of lines that each hold one comma: ",\n,\n...,".  A line that
# parses holds at least 3 bytes and a newline, so a block cut at the first newline past
# READ_BLOCK bytes holds at most READ_BLOCK // 4 + 1 such lines; more separators than this
# pattern has cannot be those of a block that parses
_SEPARATORS = np.frombuffer(b",\n" * (READ_BLOCK // 4 + 1), np.uint8)


def _pair_lines(ch1: Waveform, ch2: Waveform):
    """The body of a pair file, ``WRITE_BLOCK`` rows of ``ch1,ch2`` lines per chunk."""
    for start in range(0, len(ch1), WRITE_BLOCK):
        rows = slice(start, start + WRITE_BLOCK)
        # orjson writes each double as its shortest round-trip text; in the flat array
        # ch1, ch2, ch1, ... every second comma ends a line, the closing bracket ends the
        # block's last line and the opening one is not written
        text = bytearray(
            orjson.dumps(
                np.column_stack([ch1.samples[rows], ch2.samples[rows]]).ravel(),
                option=orjson.OPT_SERIALIZE_NUMPY,
            )
        )
        view = np.frombuffer(text, np.uint8)
        view[np.flatnonzero(view == ord(","))[1::2]] = ord("\n")
        view[-1] = ord("\n")
        yield memoryview(text)[1:]


def write_waveform_pair(path: str | Path, ch1: Waveform, ch2: Waveform) -> Path:
    """Write a two-channel pair as delimited text with a sample-rate header line.

    The body is formatted and written ``WRITE_BLOCK`` rows at a time, so beside the
    samples only one block's text is held.
    """
    if ch1.sample_rate != ch2.sample_rate:
        raise ValueError("channels of a pair must share one sample rate")
    if len(ch1) != len(ch2):
        raise ValueError("channels of a pair must have equal length")
    rate = round(ch1.sample_rate)
    if rate != ch1.sample_rate:
        raise ValueError(f"file format stores integer sample rates, got {ch1.sample_rate}")
    header = b"# sample_rate_hz=%d\n" % rate
    return atomic_write_bytes(path, itertools.chain([header], _pair_lines(ch1, ch2)))


def read_sample_rate(fh) -> float:
    """Sample rate from the header line of a pair file opened in binary mode; reads that line only."""
    m = _RATE_LINE.match(fh.readline())
    if m is None:
        raise ValueError(f"{fh.name}:1: first line must be '# sample_rate_hz=<integer>'")
    rate = float(m.group(1))
    if rate == 0.0:
        raise ValueError(f"{fh.name}:1: sample_rate_hz must be positive, got 0")
    if rate == math.inf:
        raise ValueError(f"{fh.name}:1: sample_rate_hz must be finite")
    return rate


def read_waveform_pair(path: str | Path) -> tuple[Waveform, Waveform]:
    """Read a pair file as written by :func:`write_waveform_pair`.

    The grammar: line 1 is ``# sample_rate_hz=<integer>``, and every further
    line holds exactly one ``ch1,ch2`` pair of JSON numbers (RFC 8259), with
    optional spaces or tabs around each.  Lines end in LF or CRLF, and empty
    lines at the end of the file are ignored.  A blank or comment line between
    samples is refused, as are ``nan``, ``inf``, ``+1``, ``.5``, ``1.`` and
    values beyond the double range.  Values read back as the correctly rounded
    double, so every float the writer formats reads back bit-identical; the
    integer token ``-0`` reads as +0.0.  Malformed input raises ``ValueError``
    with ``<path>:<line>:`` in front, the header counting as line 1.
    """
    path = Path(path)
    # the body as "[" + lines + "]", read into place, so it is held once
    with open(path, "rb") as fh:
        rate = read_sample_rate(fh)
        text = bytearray(max(os.fstat(fh.fileno()).st_size - fh.tell(), 0) + 2)
        with memoryview(text) as view:
            got = fh.readinto(view[1:-1])
        text[1 + got :] = fh.read() + b"]"  # to end of file, whatever the size said
    text[0] = ord("[")
    if b"\r" in text:
        text = text.replace(b"\r\n", b"\n")
    end = len(text) - 1  # the closing bracket; empty lines at the end are dropped
    while text[end - 1] == ord("\n"):
        end -= 1
    del text[end:-1]
    if len(text) == 2:
        raise ValueError(f"{path}:2: no samples after the header")
    chars = np.frombuffer(text, np.uint8)
    # Once orjson accepts a block and its values pack as doubles, a byte outside
    # _SAMPLE_BYTES can only be a lone CR (JSON whitespace) or in a true/false (packed as
    # 1.0/0.0): null, strings, arrays and objects fail the pack, and orjson refuses every
    # other byte.  Any refusal goes to _diagnose, which names the fault
    if (
        b"\r" not in text
        and b"t" not in text
        and b"f" not in text
        and (data := _parse_blocks(text, chars)) is not None
    ):
        data = data.reshape(-1, 2)
        return Waveform(data[:, 0], rate), Waveform(data[:, 1], rate)
    _diagnose(path, text, chars)


def _parse_blocks(text: bytearray, chars: np.ndarray) -> np.ndarray | None:
    """The values of ``text``, ``"[" + lines + "]"``, in file order; None if refused.

    Lines are taken in blocks, each cut at the first newline ``READ_BLOCK`` bytes or
    more past its start.  A first pass checks that every block holds one comma per
    line and turns its newlines into commas, which counts the values; a second pass
    lets the two newlines around each block stand in for its brackets, so orjson parses
    it as one flat array, and packs its values in place.  A refusal puts every byte back.
    """
    blocks = []  # (start, stop, values) of each block whose newlines are commas now
    start, last = 0, len(text) - 1
    while start < last:
        stop = text.find(b"\n", start + READ_BLOCK)
        stop = last if stop < 0 else stop
        inner = chars[start + 1 : stop]
        mask = inner == ord("\n")
        mask |= inner == ord(",")
        seps = np.flatnonzero(mask)
        del mask
        kinds = inner[seps]
        if not (kinds.size % 2 and np.array_equal(kinds, _SEPARATORS[: kinds.size])):
            break
        inner[seps[1::2]] = ord(",")
        blocks.append((start, stop, kinds.size + 1))  # two values a line
        del seps, kinds  # not held beside the values
        start = stop
    else:
        data = np.empty(sum(count for *_, count in blocks))
        packed = 0
        for start, stop, count in blocks:
            chars[start], chars[stop] = ord("["), ord("]")
            try:
                values = orjson.loads(memoryview(text)[start : stop + 1])
                struct.pack_into(f"{count}d", data, 8 * packed, *values)
            except (orjson.JSONDecodeError, struct.error):
                break
            del values  # not held beside the next block's
            packed += count
        else:
            return data
    for start, stop, _ in blocks:  # only commas separate there, and every second was a newline
        inner = chars[start + 1 : stop]
        inner[np.flatnonzero(inner == ord(","))[1::2]] = ord("\n")
        chars[[start, stop]] = ord("\n")
    chars[0], chars[-1] = ord("["), ord("]")
    return None


def _diagnose(path: Path, text: bytearray, chars: np.ndarray) -> NoReturn:
    """Raise the error of the first fault in a body that :func:`read_waveform_pair` refused.

    ``text`` is the body as ``"[" + lines + "]"`` and ``chars`` a byte view of it.  The
    checks run in order: foreign bytes, one comma per line, then orjson's own message.
    """
    newlines = np.flatnonzero(chars == ord("\n"))

    def line_at(offset: int) -> int:
        return int(np.searchsorted(newlines, offset)) + 2

    # the brackets cut off; in file order, so [0] is the first one
    foreign = text.translate(None, _SAMPLE_BYTES)[1:-1]
    if foreign:
        at = text.index(foreign[:1], 1)
        raise ValueError(f"{path}:{line_at(at)}: unexpected character {chr(foreign[0])!r}")
    commas = np.flatnonzero(chars == ord(","))
    per_line = np.bincount(np.searchsorted(newlines, commas), minlength=newlines.size + 1)
    bad = np.flatnonzero(per_line != 1)
    if bad.size:
        line = int(bad[0])
        raise ValueError(
            f"{path}:{line + 2}: expected one 'ch1,ch2' pair, found {per_line[line]} commas"
        )
    chars[newlines] = ord(",")
    try:
        orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{path}:{line_at(exc.pos)}: {exc.msg}") from None
    raise AssertionError(f"{path}: refused by the reader, yet no fault found")

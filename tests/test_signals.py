import re
import tempfile
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from aeloc.signals import (
    CORRELATION_BLOCK,
    READ_BLOCK,
    BandpassFilter,
    CorrelationFunction,
    CrossSpectra,
    DelayWindowError,
    FilterSpec,
    NoSignalError,
    Waveform,
    apply_filter,
    cross_correlate,
    design_bandpass,
    estimate_delay,
    filtered_delay,
    lag_window,
    pair_delay,
    pick_delays,
    read_waveform_pair,
    write_waveform_pair,
    _fast_length,
)
from aeloc.simulator import CONTINUOUS_NOISE, SourceSpec, parse_config, propagate, synth_source
from aeloc.util import fmt

from conftest import build_dataset, reference_rows, traced_peak

FS = 1_000_000.0
DEFAULT_BAND = FilterSpec(35_000.0, 45_000.0, 4)


def sine(freq, n=20_000, fs=FS):
    t = np.arange(n) / fs
    return Waveform(np.sin(2.0 * np.pi * freq * t), fs)


def steady_gain(filt, freq):
    """Amplitude ratio on the second half of a long sinusoid (transient settled)."""
    w = sine(freq)
    out = apply_filter(filt, w).samples[len(w) // 2 :]
    ref = w.samples[len(w) // 2 :]
    return float(np.sqrt(np.mean(out**2) / np.mean(ref**2)))


def burst(center_freq, width_samples, peak_at, n=4096, fs=FS):
    t = np.arange(n)
    envelope = np.exp(-0.5 * ((t - peak_at) / width_samples) ** 2)
    return envelope * np.sin(2.0 * np.pi * center_freq / fs * t)


# ---------------------------------------------------------------- filtering


def test_band_center_gain_within_one_percent():
    filt = design_bandpass(DEFAULT_BAND, FS)
    assert steady_gain(filt, 40_000.0) == pytest.approx(1.0, abs=0.01)


def test_dc_input_is_rejected():
    filt = design_bandpass(DEFAULT_BAND, FS)
    out = apply_filter(filt, Waveform(np.ones(20_000), FS))
    assert np.max(np.abs(out.samples[-5000:])) < 0.01


def test_stopband_attenuation_at_half_f_low():
    filt = design_bandpass(DEFAULT_BAND, FS)
    assert steady_gain(filt, 17_500.0) <= 0.1


@pytest.mark.parametrize("order", [2, 4])
def test_stopband_twenty_db_down(order):
    spec = FilterSpec(35_000.0, 45_000.0, order)
    filt = design_bandpass(spec, FS)
    upper = min(2.0 * spec.f_high, 0.95 * FS / 2.0)
    assert steady_gain(filt, spec.f_low / 2.0) <= 0.1
    assert steady_gain(filt, upper) <= 0.1


@pytest.mark.parametrize(
    "f_low,f_high,order",
    [(45_000.0, 35_000.0, 4), (35_000.0, 35_000.0, 4), (35_000.0, 45_000.0, 0)],
)
def test_invalid_filter_specs_rejected(f_low, f_high, order):
    with pytest.raises(ValueError):
        FilterSpec(f_low, f_high, order)


def test_band_above_nyquist_rejected():
    with pytest.raises(ValueError, match="Nyquist"):
        design_bandpass(FilterSpec(35_000.0, 600_000.0, 4), FS)


def test_estimator_reads_back_its_own_fields_and_compares_on_them():
    filt = BandpassFilter(FilterSpec(35_000.0, 45_000.0, 6), FS, max_delay_s=1.5e-3)
    assert filt.max_lag == 1500
    fields = filt.fields()
    assert list(fields) == ["f_low_hz", "f_high_hz", "order", "max_delay_s", "sample_rate_hz"]
    back = BandpassFilter.read("est", {k: (1, fmt(v)) for k, v in fields.items()}, "again")
    filt.rfft_power(64)  # the cached response takes no part in equality
    assert back == filt and hash(back) == hash(filt)
    assert back != replace(filt, max_delay_s=1e-3) and back != replace(filt, sample_rate=5e5)
    for window in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValueError, match="max_delay_s must be positive"):
            replace(filt, max_delay_s=window)


def test_apply_filter_sample_rate_mismatch():
    filt = design_bandpass(DEFAULT_BAND, FS)
    with pytest.raises(ValueError, match="differs from the filter's"):
        apply_filter(filt, Waveform(np.zeros(10) + 1.0, FS / 2))


def test_filtered_delay_sample_rate_mismatch():
    filt = design_bandpass(DEFAULT_BAND, FS)
    w = Waveform(np.ones(100), FS / 2)
    with pytest.raises(ValueError, match=r"500000\.0 Hz differs from the filter's 1000000\.0 Hz"):
        filtered_delay(filt, w, w)


def test_zero_waveform_stays_zero():
    filt = design_bandpass(DEFAULT_BAND, FS)
    out = apply_filter(filt, Waveform(np.zeros(1000), FS))
    assert np.all(out.samples == 0.0)
    assert len(out) == 1000 and out.sample_rate == FS


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize(
    "fs,f_low,f_high",
    [
        (FS, 35_000.0, 45_000.0),
        (FS, 5_000.0, 15_000.0),
        (FS, 489_000.0, 499_000.0),  # top edge just under Nyquist
        (90_000.0, 5_000.0, 15_000.0),
        (90_000.0, 34_000.0, 44_000.0),  # the top band of a 1 kHz grid at this rate
    ],
)
def test_power_response_matches_sosfreqz(fs, f_low, f_high, order):
    filt = design_bandpass(FilterSpec(f_low, f_high, order), fs)
    omega = 2.0 * np.pi * np.fft.rfftfreq(19_200)  # rfft bins from 0 to pi
    sos = sps.butter(order, [f_low, f_high], btype="bandpass", fs=fs, output="sos")
    _, h = sps.sosfreqz(sos, worN=omega)
    assert np.allclose(filt.power_response(omega), np.abs(h) ** 2, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("order", range(1, 7))
@pytest.mark.parametrize(
    "fs,f_low,f_high",
    [(FS, 35_000.0, 45_000.0), (FS, 489_000.0, 499_000.0), (90_000.0, 34_000.0, 44_000.0)],
)
def test_power_response_is_half_at_the_edges_and_one_at_the_prewarped_centre(
    fs, f_low, f_high, order
):
    filt = design_bandpass(FilterSpec(f_low, f_high, order), fs)
    edges = filt.power_response(2.0 * np.pi * np.array([f_low, f_high]) / fs)
    assert np.allclose(edges, 0.5, rtol=0.0, atol=1e-12)
    x1, x2 = np.tan(np.pi * f_low / fs), np.tan(np.pi * f_high / fs)
    centre = 2.0 * np.arctan(np.sqrt(x1 * x2))  # tan²(ω/2) = x1·x2
    assert filt.power_response(np.array([centre]))[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [1, 4, 200])
def test_power_response_is_exactly_zero_at_dc_without_warnings(order):
    filt = design_bandpass(FilterSpec(35_000.0, 45_000.0, order), FS)
    omega = 2.0 * np.pi * np.fft.rfftfreq(19_200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power = filt.power_response(omega)
    assert power[0] == 0.0
    assert np.all(np.isfinite(power)) and np.all((power >= 0.0) & (power <= 1.0))


def test_rfft_power_is_computed_once_per_filter_and_fft_length(monkeypatch):
    calls = []
    response = BandpassFilter.power_response

    def counted(self, omega):
        calls.append(omega.size)
        return response(self, omega)

    monkeypatch.setattr(BandpassFilter, "power_response", counted)
    spectra = CrossSpectra.of_pairs(_noise_pairs([(3000, 3000)] * 3), 200)
    filt = design_bandpass(DEFAULT_BAND, FS)
    first, second = spectra.correlations(filt), spectra.correlations(filt)
    assert first.tobytes() == second.tobytes()
    assert calls == [spectra.nfft // 2 + 1]
    power = filt.rfft_power(spectra.nfft)
    fresh = response(filt, 2.0 * np.pi * np.fft.rfftfreq(spectra.nfft))
    assert power.tobytes() == fresh.tobytes() and not power.flags.writeable
    # each filter holds its own: a new one computes its response again
    spectra.correlations(design_bandpass(DEFAULT_BAND, FS))
    assert len(calls) == 2


def test_apply_filter_is_sosfilt_of_the_scipy_design_bit_for_bit():
    filt = design_bandpass(FilterSpec(35_000.0, 45_000.0, 4), FS)
    w = Waveform(np.random.default_rng(5).standard_normal(4000), FS)
    sos = sps.butter(4, [35_000.0, 45_000.0], btype="bandpass", fs=FS, output="sos")
    assert apply_filter(filt, w).samples.tobytes() == sps.sosfilt(sos, w.samples).tobytes()


def test_fast_length_is_scipys_next_fast_len():
    # scipy.fft is the reference here only: the stages take their FFTs from numpy.fft
    from scipy.fft import next_fast_len

    rng = np.random.default_rng(27)
    for n in [*range(1, 20_000), *rng.integers(20_000, 10**9, 300).tolist()]:
        assert _fast_length(n) == next_fast_len(n, real=True), n


def test_band_selectivity_power_ratio():
    # 40 kHz passes, 5 kHz is crushed: compare DFT power in the two regions
    filt = design_bandpass(DEFAULT_BAND, FS)
    t = np.arange(32_768) / FS
    mixed = np.sin(2 * np.pi * 40_000 * t) + np.sin(2 * np.pi * 5_000 * t)
    out = apply_filter(filt, Waveform(mixed, FS)).samples
    spectrum = np.abs(np.fft.rfft(out)) ** 2
    freqs = np.fft.rfftfreq(out.size, d=1.0 / FS)
    band_power = spectrum[(freqs >= 35_000) & (freqs <= 45_000)].sum()
    low_power = spectrum[(freqs >= 0) & (freqs <= 10_000)].sum()
    assert band_power >= 100.0 * low_power


def test_filter_linearity():
    filt = design_bandpass(DEFAULT_BAND, FS)
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=2048), rng.normal(size=2048)
    a, b = 2.5, -1.25
    combined = apply_filter(filt, Waveform(a * x + b * y, FS)).samples
    separate = a * apply_filter(filt, Waveform(x, FS)).samples
    separate += b * apply_filter(filt, Waveform(y, FS)).samples
    assert np.allclose(combined, separate, rtol=1e-9, atol=1e-12)


def test_filter_shift_invariance():
    filt = design_bandpass(DEFAULT_BAND, FS)
    rng = np.random.default_rng(8)
    x = rng.normal(size=2048)
    shift = 37
    shifted = np.concatenate([np.zeros(shift), x[:-shift]])
    out = apply_filter(filt, Waveform(x, FS)).samples
    out_shifted = apply_filter(filt, Waveform(shifted, FS)).samples
    # compare away from both record edges where transients differ
    assert np.allclose(out_shifted[shift:-shift], out[: -2 * shift], rtol=1e-9, atol=1e-12)


def test_identical_filtering_preserves_pair_delay():
    d = 53
    x = burst(40_000.0, 60.0, 1200.0)
    y = np.concatenate([np.zeros(d), x[:-d]])
    filt = design_bandpass(DEFAULT_BAND, FS)
    raw = pair_delay(Waveform(y, FS), Waveform(x, FS), 200)
    filtered = pair_delay(
        apply_filter(filt, Waveform(y, FS)), apply_filter(filt, Waveform(x, FS)), 200
    )
    assert abs(filtered.delay - raw.delay) * FS < 1.0
    assert raw.delay == pytest.approx(d / FS, abs=1.0 / FS)
    zero_phase = filtered_delay(replace(filt, max_delay_s=2e-4), Waveform(y, FS), Waveform(x, FS))
    assert abs(zero_phase.delay - raw.delay) * FS < 1.0


# ---------------------------------------------------------- cross-correlation


def eq_sum_oracle(y1, y2, max_lag):
    """Direct enumeration of the truncated correlation sum."""
    out = []
    for tau in range(-max_lag, max_lag + 1):
        acc = 0.0
        for t in range(len(y1)):
            if 0 <= t + tau < len(y2):
                acc += y1[t] * y2[t + tau]
        out.append(acc)
    return np.array(out)


def test_impulse_autocorrelation():
    w = Waveform([1.0, 0.0, 0.0, 0.0], 10.0)
    r = cross_correlate(w, w, 2)  # lags -2..+2, lag 0 at index 2
    assert len(r.values) == 5
    assert r.values[2] == 1.0
    assert int(np.argmax(r.values)) == 2


def test_unit_shift_hand_example():
    y1 = Waveform([0.0, 1.0, 0.0, 0.0], 10.0)
    y2 = Waveform([0.0, 0.0, 1.0, 0.0], 10.0)
    r = cross_correlate(y1, y2, 2)
    assert np.allclose(r.values, [0.0, 0.0, 0.0, 1.0, 0.0], rtol=0.0, atol=1e-15)
    assert np.argmax(r.values) - 2 == 1  # lag 0 at index 2


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    y1 = rng.normal(size=48)
    y2 = rng.normal(size=37)
    r = cross_correlate(Waveform(y1, 5.0), Waveform(y2, 5.0), 20)
    expected = eq_sum_oracle(y1, y2, 20)
    assert np.allclose(r.values, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "n1, n2, max_lag",
    [
        (48, 48, 20),
        (48, 37, 36),  # max_lag = min(n1, n2) - 1
        (37, 48, 36),
        (2048, 2048, 500),
        (3000, 3000, 500),
        (8192, 6000, 5999),  # max_lag = min(n1, n2) - 1
        (6000, 8192, 2500),
        (16384, 16384, 2500),  # paper-default record and delay window
    ],
)
def test_lag_window_matches_full_correlation(n1, n2, max_lag):
    rng = np.random.default_rng(n1 * 7 + n2)
    y1 = rng.normal(size=n1)
    y2 = rng.normal(size=n2)
    r = cross_correlate(Waveform(y1, FS), Waveform(y2, FS), max_lag)
    expected = sps.correlate(y2, y1, mode="full")[n1 - 1 - max_lag : n1 + max_lag]
    scale = float(np.max(np.abs(expected)))
    assert np.allclose(r.values, expected, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=4, max_size=48),
    st.lists(st.floats(-100, 100), min_size=4, max_size=48),
)
def test_swap_symmetry(a, b):
    wa, wb = Waveform(a, 2.0), Waveform(b, 2.0)
    lag = min(len(a), len(b)) - 1
    r_ab = cross_correlate(wa, wb, lag).values
    r_ba = cross_correlate(wb, wa, lag).values
    scale = max(1.0, float(np.max(np.abs(r_ab))))
    assert np.allclose(r_ab, r_ba[::-1], rtol=0.0, atol=1e-12 * scale)


def test_cross_correlate_validation():
    w = Waveform(np.ones(16), 4.0)
    with pytest.raises(ValueError, match="sample rates"):
        cross_correlate(w, Waveform(np.ones(16), 8.0), 4)
    with pytest.raises(ValueError, match="max_lag"):
        cross_correlate(w, w, 16)
    with pytest.raises(ValueError, match="max_lag"):
        cross_correlate(w, w, 0)


# ------------------------------------------------------------ delay estimation


def test_identical_waveforms_zero_delay():
    w = Waveform(burst(40_000.0, 50.0, 600.0, n=2048), FS)
    est = estimate_delay(cross_correlate(w, w, 100))
    assert est.delay == 0.0


def test_known_shift_on_gaussian_burst():
    d = 37
    x = burst(40_000.0, 80.0, 1024.0)
    y = np.concatenate([np.zeros(d), x[:-d]])
    est = estimate_delay(cross_correlate(Waveform(x, FS), Waveform(y, FS), 120))
    assert est.delay == pytest.approx(37e-6, abs=1e-6)
    unrefined = estimate_delay(cross_correlate(Waveform(x, FS), Waveform(y, FS), 120), refine=False)
    assert unrefined.delay == pytest.approx(37e-6, abs=0.5e-6)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(-30, 30))
def test_integer_shift_recovered(seed, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=256)
    y = np.roll(x, d)
    if d > 0:
        y[:d] = 0.0
    elif d < 0:
        y[d:] = 0.0
    est = estimate_delay(cross_correlate(Waveform(x, 1000.0), Waveform(y, 1000.0), 40))
    assert abs(est.delay * 1000.0 - d) <= 1.0


def test_all_zero_correlation_rejected():
    w = Waveform(np.zeros(32) + 0.0, 4.0)
    with pytest.raises(NoSignalError):
        estimate_delay(cross_correlate(w, w, 4))


def test_boundary_peak_rejected():
    # true peak at lag 110 sits 2 carrier periods past the 60-sample window, so
    # the windowed correlation rises monotonically into the boundary sample
    x = burst(40_000.0, 40.0, 600.0, n=2048)
    y = np.concatenate([np.zeros(110), x[:-110]])
    with pytest.raises(DelayWindowError):
        estimate_delay(cross_correlate(Waveform(x, FS), Waveform(y, FS), 60))


# ------------------------------------------------------------ batched picker

# max_lag 3: seven lags per row
PICKER_ROWS = {
    "all zero": [0.0] * 7,
    "first lag": [5.0, 4.0, 3.0, 2.0, 1.0, 0.0, -1.0],
    "last lag": [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
    "interior": [0.0, 1.0, 3.0, 4.0, 2.0, 0.0, -1.0],
    "plateau": [0.0, 1.0, 2.0, 2.0, 1.0, 0.0, 0.0],
    # v[i-1] - 2 v[i] rounds to -v[i]: the parabola's denominator is exactly zero
    "zero denominator": [0.0, 0.0, np.nextafter(1.0, 0.0), 1.0, 1.0, 0.0, 0.0],
    "tie": [0.0, 2.0, 0.0, 1.0, 0.0, 2.0, 0.0],
}


def _bits(delays):
    return np.asarray(delays, dtype=np.float64).view(np.uint64)


def _same_errors(got, want):
    assert list(got) == list(want)
    for i in want:
        assert type(got[i]) is type(want[i]) and str(got[i]) == str(want[i])


@pytest.mark.parametrize("refine", [True, False])
def test_picker_matches_the_scalar_rule_on_hand_built_rows(refine):
    windows = np.array(list(PICKER_ROWS.values()))
    delays, errors = pick_delays(windows, 1000.0, refine)
    want, want_errors = reference_rows(windows, 3, 1000.0, refine)
    assert np.array_equal(_bits(delays), _bits(want))
    _same_errors(errors, want_errors)
    assert sorted(errors) == [0, 1, 2]
    assert type(errors[0]) is NoSignalError  # no signal wins over the edge peak
    assert str(errors[1]).startswith("delay window exceeded: correlation peak at boundary lag -3;")
    assert str(errors[2]).startswith("delay window exceeded: correlation peak at boundary lag +3;")
    v = windows[5]
    assert v[2] - 2.0 * v[3] + v[4] == 0.0
    assert delays[5] == 0.0 and delays[6] == -2e-3  # no offset; the first maximum wins


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_picker_matches_the_scalar_rule_on_random_rows(seed, refine):
    rng = np.random.default_rng(seed)
    # small integers make ties, boundary peaks and all-zero rows common
    windows = rng.integers(-2, 3, size=(40, 9)) * rng.choice([0.0, 1.0, 1e-7], size=(40, 1))
    windows[::7] += rng.normal(size=(6, 9))
    delays, errors = pick_delays(windows, FS, refine)
    want, want_errors = reference_rows(windows, 4, FS, refine)
    assert np.array_equal(_bits(delays), _bits(want))
    _same_errors(errors, want_errors)


@pytest.mark.parametrize("name", list(PICKER_ROWS))
def test_estimate_delay_is_the_one_row_picker(name):
    r = CorrelationFunction(np.array(PICKER_ROWS[name]), 1000.0)
    assert len(r.values) == 2 * 3 + 1
    (delay,), errors = pick_delays(r.values[np.newaxis], 1000.0)
    if errors:
        with pytest.raises(type(errors[0]), match=re.escape(str(errors[0]))):
            estimate_delay(r)
    else:
        assert _bits(estimate_delay(r).delay) == _bits(delay)


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (2, 4), (5,)])
def test_picker_refuses_rows_without_a_centre_lag(shape):
    # the lag window is read from the row width, 2 * max_lag + 1
    with pytest.raises(ValueError) as info:
        pick_delays(np.ones(shape), FS)
    assert str(info.value) == f"correlation rows need an odd width 2L + 1 >= 3, got shape {shape}"


def test_lag_window_refuses_a_product_beyond_the_float_range():
    assert lag_window(2.5e-3, FS) == 2500
    with pytest.raises(ValueError, match="no finite lag"):
        lag_window(1e303, FS)


def test_pair_delay_sign_convention():
    # channel 1 arrives 25 samples after channel 2 -> positive delay
    d = 25
    x = burst(40_000.0, 60.0, 900.0, n=2048)
    later = np.concatenate([np.zeros(d), x[:-d]])
    est = pair_delay(Waveform(later, FS), Waveform(x, FS), 80)
    assert est.delay == pytest.approx(d / FS, abs=0.1 / FS)


# ------------------------------------------------------------- cross-spectra


def _noise_pairs(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (Waveform(rng.standard_normal(n1), FS), Waveform(rng.standard_normal(n2), FS))
        for n1, n2 in lengths
    ]


def test_a_pair_reads_the_same_alone_and_in_a_batch():
    # every pair holds the longest record, so each one-pair batch has the same nfft
    lengths = [(3000, 1200), (2048, 3000), (3000, 3000), (1777, 3000), (3000, 2501)]
    assert len(lengths) % CORRELATION_BLOCK != 0
    pairs = _noise_pairs(lengths)
    filt = design_bandpass(FilterSpec(30_000.0, 60_000.0), FS)
    batch = CrossSpectra.of_pairs(pairs, 300)
    windows, filtered = batch.correlations(), batch.correlations(filt)
    for i, pair in enumerate(pairs):
        alone = CrossSpectra.of_pairs([pair], 300)
        assert alone.nfft == batch.nfft
        assert alone.values[0].tobytes() == batch.values[i].tobytes(), i
        assert alone.correlations()[0].tobytes() == windows[i].tobytes(), i
        assert alone.correlations(filt)[0].tobytes() == filtered[i].tobytes(), i


class _Lazy:
    """Pairs made on demand, with a length: each one checks that the last is gone."""

    def __init__(self, lengths):
        self.lengths = lengths
        self.dead = []

    def __len__(self):
        return len(self.lengths)

    def __iter__(self):
        last = None
        for n1, n2 in self.lengths:
            self.dead.append(last is None or last() is None)
            (pair,) = _noise_pairs([(n1, n2)], seed=len(self.dead))
            last = weakref.ref(pair[0])
            yield pair
            del pair


def test_cross_spectra_take_a_lazy_pair_at_a_time():
    lengths = [(3000, 1200), (2048, 3000), (3000, 3000)]
    lazy = _Lazy(lengths)
    spectra = CrossSpectra.of_pairs(lazy, 300)
    assert lazy.dead == [True] * len(lengths)
    held = CrossSpectra.of_pairs(
        [_noise_pairs([n], seed=k)[0] for k, n in enumerate(lengths, start=1)], 300
    )
    assert spectra.values.tobytes() == held.values.tobytes()


def test_cross_spectra_refuse_a_later_record_longer_than_the_first_pair():
    # the first pair fixes the FFT length, so a longer record would wrap around
    pairs = _noise_pairs([(2000, 1800), (1500, 1500), (1900, 2400)])
    with pytest.raises(ValueError, match=r"^pair 2: a record of 2400 samples is longer than"):
        CrossSpectra.of_pairs(pairs, 300)


def test_cross_spectra_hold_one_pair_and_one_block_of_temporaries():
    # the default dataset's shape: 12 pairs of 16384 samples, lags -2500..2500
    pairs = _noise_pairs([(16_384, 16_384)] * 12)
    spectra, peak = traced_peak(lambda: CrossSpectra.of_pairs(pairs, 2500))
    assert peak <= 1.5 * spectra.values.nbytes
    filt = design_bandpass(FilterSpec(35_000.0, 45_000.0), FS)
    for band in (None, filt):
        windows, peak = traced_peak(lambda: spectra.correlations(band))
        assert peak <= windows.nbytes + spectra.values.nbytes, band


# ------------------------------------------------------------------- file I/O


def test_waveform_pair_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    a = Waveform(rng.normal(size=64), FS)
    b = Waveform(rng.normal(size=64), FS)
    path = tmp_path / "pair.txt"
    write_waveform_pair(path, a, b)
    assert path.read_text().splitlines()[0] == "# sample_rate_hz=1000000"
    ra, rb = read_waveform_pair(path)
    assert np.array_equal(ra.samples, a.samples)
    assert np.array_equal(rb.samples, b.samples)
    assert ra.sample_rate == FS


_FINITE_DOUBLES = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_FINITE_DOUBLES, _FINITE_DOUBLES), min_size=1, max_size=40))
@example([(5e-324, -5e-324), (0.0, -0.0), (np.finfo(float).max, -np.finfo(float).max)])
@example([(2.2250738585072014e-308, 2.225073858507201e-308), (1e16, 7.585928232854437e-05)])
def test_waveform_pair_roundtrip_is_bit_exact(pairs):
    # bit patterns, not ==, so that -0.0 must come back as -0.0
    data = np.array(pairs, dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.txt"
        write_waveform_pair(path, Waveform(data[:, 0], FS), Waveform(data[:, 1], FS))
        written = path.read_bytes()
        ra, rb = read_waveform_pair(path)
    assert np.array_equal(ra.samples.view(np.int64), data[:, 0].view(np.int64))
    assert np.array_equal(rb.samples.view(np.int64), data[:, 1].view(np.int64))
    # the bytes: the header, then one line per pair of each value's own orjson text
    lines = [b"%s,%s\n" % (orjson.dumps(float(a)), orjson.dumps(float(b))) for a, b in data]
    assert written == b"# sample_rate_hz=1000000\n" + b"".join(lines)


def test_reader_matches_loadtxt_on_a_simulated_dataset(tmp_path):
    build_dataset(tmp_path, prototypes=[900.0, 2000.0, 3100.0], tests=[1500.0], seed=9)
    files = sorted(tmp_path.glob("*_*.txt"))
    assert len(files) == 4
    for path in files:
        expected = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        ch1, ch2 = read_waveform_pair(path)
        got = np.column_stack([ch1.samples, ch2.samples])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), path.name


_HEADER = "# sample_rate_hz=1000000\n"


@pytest.mark.parametrize(
    "body, ch1, ch2",
    [
        ("0.5,-1.5\r\n2e-3,4E+2\r\n", [0.5, 2e-3], [-1.5, 400.0]),
        ("0.5,-1.5\n2e-3,4E+2\n\n\n", [0.5, 2e-3], [-1.5, 400.0]),
        ("0.5,-1.5\n2e-3,4E+2", [0.5, 2e-3], [-1.5, 400.0]),
        (" 0.5 ,\t-1.5\n2e-3,4E+2\n", [0.5, 2e-3], [-1.5, 400.0]),
        # Python's repr text, as datasets written with it hold: must read the same doubles
        (
            "1e+16,-7.585928232854437e-05\n1e-07,-0.0\n",
            [1e16, 1e-07],
            [-7.585928232854437e-05, -0.0],
        ),
    ],
    ids=["crlf", "trailing-newlines", "no-final-newline", "blanks-around-numbers", "repr-text"],
)
def test_reader_accepts_line_endings_and_blanks(tmp_path, body, ch1, ch2):
    path = tmp_path / "pair.txt"
    path.write_bytes((_HEADER + body).encode())
    got1, got2 = read_waveform_pair(path)
    # bit patterns, not ==, so that -0.0 must come back as -0.0
    assert np.array_equal(got1.samples.view(np.int64), np.array(ch1).view(np.int64))
    assert np.array_equal(got2.samples.view(np.int64), np.array(ch2).view(np.int64))


_NUM = rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_ORACLE_LINE = re.compile(rb"[ \t]*(" + _NUM + rb")[ \t]*,[ \t]*(" + _NUM + rb")[ \t]*")
_INTEGER = re.compile(rb"-?(?:0|[1-9][0-9]*)")


def grammar_oracle(body):
    """The pair-file body grammar, line by line: (ch1, ch2) doubles, or None if refused."""
    lines = body.replace(b"\r\n", b"\n").split(b"\n")
    while lines and not lines[-1]:
        lines.pop()
    values = []
    for line in lines:
        m = _ORACLE_LINE.fullmatch(line)
        if m is None:
            return None
        for tok in m.groups():
            try:
                value = float(int(tok)) if _INTEGER.fullmatch(tok) else float(tok)
            except OverflowError:  # an integer beyond the double range
                return None
            if not np.isfinite(value):
                return None
            values.append(value)
    return (np.array(values[0::2]), np.array(values[1::2])) if values else None


def read_or_refuse(body):
    """:func:`read_waveform_pair` of a file holding ``body`` after the header, as the oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.txt"
        path.write_bytes(_HEADER.encode() + body)
        try:
            ch1, ch2 = read_waveform_pair(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), exc
            return None
    return ch1.samples, ch2.samples


def assert_same_doubles(got, expected):
    # bit patterns, not ==, so that -0.0 and +0.0 differ
    if expected is None:
        assert got is None
    else:
        assert got is not None
        for g, e in zip(got, expected):
            assert g.view(np.int64).tolist() == np.asarray(e, np.float64).view(np.int64).tolist()


_ORACLE_TABLE = {
    "lone-cr": (b"1,2\r3,4\n", None),
    "lone-cr-at-end": (b"1,2\r\n3,4\r", None),
    "true": (b"true,1\n", None),
    "false": (b"1,false\n", None),
    "null": (b"1,2\nnull,1\n", None),
    "string": (b'"1",2\n', None),
    "array": (b"[1],2\n", None),
    "object": (b'1,2\n{"a":1},2\n', None),
    "utf8-bom": (b"\xef\xbb\xbf1,2\n", None),
    "minus-zero": (b"-0,-0.0\n", ([0.0], [-0.0])),
    "beyond-2-53": (b"9007199254740993,1\n", ([9007199254740992.0], [1.0])),
    "beyond-2-64": (b"1,18446744073709551617\n", ([1.0], [18446744073709551616.0])),
    "overflow": (b"1,2\n1e400,1\n", None),
    "blanks-tabs-exponent": (b" 1 ,\t4E+2\t\n\t-2e-3 , 5\n", ([1.0, -2e-3], [400.0, 5.0])),
}


@pytest.mark.parametrize("body, expected", _ORACLE_TABLE.values(), ids=_ORACLE_TABLE.keys())
def test_reader_and_grammar_oracle_agree_on_edge_cases(body, expected):
    assert_same_doubles(grammar_oracle(body), expected)
    assert_same_doubles(read_or_refuse(body), expected)


_NUMBER_TEXT = st.one_of(
    _FINITE_DOUBLES.map(orjson.dumps),  # the writer's text
    _FINITE_DOUBLES.map(lambda v: repr(v).encode()),
    st.integers(-(2**80), 2**80).map(lambda i: b"%d" % i),
    st.sampled_from([b"-0", b"4E+2", b"1e400", b"-1E-400", b"-0e0", b"00", b"1.", b".5", b"+1"]),
)
_MUTATION = st.sampled_from(
    [b"\r", b"\r\n", b"\n", b",", b" ", b"\t", b"-", b".", b"e", b"0", b"true", b"false",
     b"null", b'"1"', b"[1]", b'{"a":1}', b"\xef\xbb\xbf", b"#", b"nan", b"\x00", b"\xff"]
)


@st.composite
def pair_bodies(draw):
    """Pair-file bodies of numbers, blanks and separators, then a few byte edits."""
    blank = st.sampled_from([b"", b" ", b"\t", b" \t"])
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    rows = draw(st.lists(st.tuples(_NUMBER_TEXT, _NUMBER_TEXT), min_size=1, max_size=5))
    body = bytearray(
        eol.join(
            draw(blank) + a + draw(blank) + b"," + draw(blank) + b + draw(blank) for a, b in rows
        )
        + draw(st.sampled_from([b"", eol, eol + eol]))
    )
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 2))
        body[at : at + cut] = draw(st.one_of(st.just(b""), _MUTATION, _NUMBER_TEXT))
    return bytes(body)


@settings(max_examples=400, deadline=None)
@given(pair_bodies())
def test_reader_accepts_exactly_what_the_grammar_oracle_accepts(body):
    assert_same_doubles(read_or_refuse(body), grammar_oracle(body))


def _default_record_file(directory):
    """A paper-default 16384-sample test record written as ``test_00.txt``: 653 KB, five
    read blocks."""
    model = parse_config({}).model
    spec = SourceSpec(1500.0, CONTINUOUS_NOISE, 1.0, 40_000.0, (30_000.0, 50_000.0), seed=5)
    ch1, ch2 = propagate(synth_source(spec, model), spec, model)
    return write_waveform_pair(directory / "test_00.txt", ch1, ch2), ch1, ch2


def test_one_read_and_one_write_of_a_default_record_hold_a_block_not_a_file(tmp_path):
    # beside the file's body (read) or the samples (write) only one block's text and floats
    # are held; reading and writing the whole file at once peaked at 2.49 and 1.70 MB
    path, ch1, ch2 = _default_record_file(tmp_path)
    read_waveform_pair(path)  # the first call's one-off allocations are not the read's
    _, write_peak = traced_peak(lambda: write_waveform_pair(path, ch1, ch2))
    (got, _), read_peak = traced_peak(lambda: read_waveform_pair(path))
    assert got.samples.tobytes() == ch1.samples.tobytes()
    assert read_peak <= 1.9e6, read_peak / 1e6
    assert write_peak <= 1.15e6, write_peak / 1e6


@pytest.mark.parametrize(
    "line, message",
    [
        (b"0.5,0.25a", "unexpected character 'a'"),
        (b"0.5,0.25,0.125", "expected one 'ch1,ch2' pair, found 2 commas"),
        (b"0.5,1.e5", "no digit after decimal point"),
    ],
    ids=["bad-byte", "two-commas", "malformed-number"],
)
def test_a_fault_in_the_last_block_names_its_line(tmp_path, line, message):
    # the file holds five blocks, and the faulty line sits in the last one: the four before
    # it have been checked, and maybe parsed, when it is refused, and their bytes must be
    # back in place for the line count
    path, _, _ = _default_record_file(tmp_path)
    assert path.stat().st_size > 4 * READ_BLOCK
    lines = path.read_bytes().split(b"\n")
    at = len(lines) - 3  # 0-based, so file line at + 1, a few lines before the end
    lines[at] = line
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError) as info:
        read_waveform_pair(path)
    assert str(info.value) == f"{path}:{at + 1}: {message}"


def test_of_two_faults_in_different_blocks_the_first_line_is_named(tmp_path):
    # a line of three fields in the first block and a foreign byte in the last: the first
    # block fails its comma count, and the error names its line, not the last block's byte
    path, _, _ = _default_record_file(tmp_path)
    assert path.stat().st_size > 4 * READ_BLOCK
    lines = path.read_bytes().split(b"\n")
    first, last = 10, len(lines) - 3  # 0-based, so file lines first + 1 and last + 1
    assert sum(len(row) + 1 for row in lines[: first + 1]) < READ_BLOCK
    lines[first] = b"0.5,0.25,0.125"
    lines[last] = b"0.5,0.25a"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError) as info:
        read_waveform_pair(path)
    assert str(info.value) == f"{path}:{first + 1}: expected one 'ch1,ch2' pair, found 2 commas"


# (body after the header, the message after "<path>:"), the message naming the 1-based file
# line of the fault with the header as line 1
_ONE_PAIR = "expected one 'ch1,ch2' pair, found {} commas"
_MALFORMED = {
    "three-fields-then-one": ("1,2\n1,2,3\n4\n5,6\n", "3: " + _ONE_PAIR.format(2)),
    "one-field-then-three": ("1,2\n4\n1,2,3\n5,6\n", "3: " + _ONE_PAIR.format(0)),
    "truncated-after-comma": ("1,2\n3,4\n5,", "4: unexpected end of data"),
    "truncated-one-field": ("1,2\n3,4\n5", "4: " + _ONE_PAIR.format(0)),
    "truncated-mid-number": ("1,2\n3,4\n5,6e", "4: no digit after exponent sign"),
    "non-numeric-token": ("1,2\n0.1,abc\n3,4\n", "3: unexpected character 'a'"),
    "json-literal": ("1,2\ntrue,4\n", "3: unexpected character 't'"),
    "nan": ("1,2\n3,4\nnan,5\n", "4: unexpected character 'n'"),
    "NaN": ("NaN,5\n", "2: unexpected character 'N'"),
    "inf": ("1,2\n3,inf\n", "3: unexpected character 'i'"),
    "-Infinity": ("1,2\n3,-Infinity\n", "3: unexpected character 'I'"),
    "overflow": ("1,2\n3,1e400\n", "3: number is infinity when parsed as double"),
    "leading-plus": ("1,2\n+1,2\n", "3: unexpected character"),
    "leading-dot": ("1,2\n3,4\n.5,2\n", "4: unexpected character"),
    "trailing-dot": ("1.,2\n", "2: no digit after decimal point"),
    "blank-line-between-samples": ("1,2\n\n3,4\n", "3: " + _ONE_PAIR.format(0)),
    "comment-after-header": ("# channel 1 = left\n1,2\n", "2: unexpected character '#'"),
    "comment-with-comma": ("1,2\n# a, b\n3,4\n", "3: unexpected character '#'"),
    "space-delimited": ("1,2\n3 4\n", "3: " + _ONE_PAIR.format(0)),
    # two faults: the first line's is named, whichever check finds the other
    "blank-line-then-comment": ("1,2\n\n3,4\n5,6\n#x,1\n7,8\n", "3: " + _ONE_PAIR.format(0)),
    "trailing-dot-then-letter": ("1.,2\n3,4\n5,6a\n", "2: no digit after decimal point"),
    "header-only": ("", "2: no samples after the header"),
    "header-then-empty-lines": ("\n\n", "2: no samples after the header"),
}


@pytest.mark.parametrize("body, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_pair_file_names_path_and_line(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_bytes((_HEADER + body).encode())
    with pytest.raises(ValueError) as info:
        read_waveform_pair(path)
    assert str(info.value) == f"{path}:{message}"


def test_waveform_pair_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="sample_rate_hz") as info:
        read_waveform_pair(path)
    assert str(info.value).startswith(f"{path}:1: ")


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform([], 10.0)
    with pytest.raises(ValueError):
        Waveform([1.0, np.nan], 10.0)
    with pytest.raises(ValueError):
        Waveform([1.0], 0.0)
    # an infinite rate used to be accepted, and only the writer's round() refused it
    for rate in (np.inf, np.nan):
        with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
            Waveform([1.0], rate)

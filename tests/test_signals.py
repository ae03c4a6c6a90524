import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from aeloc.signals import (
    DelayWindowError,
    FilterSpec,
    NoSignalError,
    Waveform,
    apply_filter,
    cross_correlate,
    design_bandpass,
    estimate_delay,
    pair_delay,
    read_waveform_pair,
    write_waveform_pair,
)

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


def test_apply_filter_sample_rate_mismatch():
    filt = design_bandpass(DEFAULT_BAND, FS)
    with pytest.raises(ValueError, match="cannot be applied"):
        apply_filter(filt, Waveform(np.zeros(10) + 1.0, FS / 2))


def test_zero_waveform_stays_zero():
    filt = design_bandpass(DEFAULT_BAND, FS)
    out = apply_filter(filt, Waveform(np.zeros(1000), FS))
    assert np.all(out.samples == 0.0)
    assert len(out) == 1000 and out.sample_rate == FS


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
    r = cross_correlate(w, w, 2)
    assert r.values[r.max_lag] == 1.0
    assert int(np.argmax(r.values)) == r.max_lag


def test_unit_shift_hand_example():
    y1 = Waveform([0.0, 1.0, 0.0, 0.0], 10.0)
    y2 = Waveform([0.0, 0.0, 1.0, 0.0], 10.0)
    r = cross_correlate(y1, y2, 2)
    assert np.array_equal(r.values, [0.0, 0.0, 0.0, 1.0, 0.0])
    assert r.lags()[np.argmax(r.values)] == 1


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    y1 = rng.normal(size=48)
    y2 = rng.normal(size=37)
    r = cross_correlate(Waveform(y1, 5.0), Waveform(y2, 5.0), 20)
    expected = eq_sum_oracle(y1, y2, 20)
    assert np.allclose(r.values, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "n1, n2, max_lag, method",
    [
        (48, 48, 20, "direct"),
        (48, 37, 36, "direct"),  # max_lag = min(n1, n2) - 1
        (37, 48, 36, "direct"),
        (2048, 2048, 500, "direct"),
        (3000, 3000, 500, "fft"),
        (8192, 6000, 5999, "fft"),  # max_lag = min(n1, n2) - 1
        (6000, 8192, 2500, "fft"),
        (16384, 16384, 2500, "fft"),  # paper-default record and delay window
    ],
)
def test_lag_window_matches_full_correlation(n1, n2, max_lag, method):
    rng = np.random.default_rng(n1 * 7 + n2)
    y1 = rng.normal(size=n1)
    y2 = rng.normal(size=n2)
    assert sps.choose_conv_method(y2, y1, mode="full") == method
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
    assert est.peak_sharpness >= 1.0


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


def test_pair_delay_sign_convention():
    # channel 1 arrives 25 samples after channel 2 -> positive delay
    d = 25
    x = burst(40_000.0, 60.0, 900.0, n=2048)
    later = np.concatenate([np.zeros(d), x[:-d]])
    est = pair_delay(Waveform(later, FS), Waveform(x, FS), 80)
    assert est.delay == pytest.approx(d / FS, abs=0.1 / FS)


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


def test_waveform_pair_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="sample_rate_hz"):
        read_waveform_pair(path)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform([], 10.0)
    with pytest.raises(ValueError):
        Waveform([1.0, np.nan], 10.0)
    with pytest.raises(ValueError):
        Waveform([1.0], 0.0)

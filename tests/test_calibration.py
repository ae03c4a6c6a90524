import contextlib
import io
import threading

import numpy as np
import pytest

from aeloc import cli
from aeloc.calibration import (
    BandGrid,
    _robust_fit,
    estimate_velocity,
    fit_line,
    read_calibration_report,
    read_calibration_summary,
    rmse_surface_is_flat,
    sweep_bands,
    write_calibration_report,
)
from aeloc.grnn import PrototypeSet
from aeloc.pipeline import evaluate_dataset, learn_prototypes, load_dataset, load_prototype_pairs
from aeloc.signals import (
    BandpassFilter,
    CrossSpectra,
    DelayWindowError,
    FilterSpec,
    NoSignalError,
    Waveform,
    apply_filter,
    design_bandpass,
    filtered_delay,
    pair_delay,
    read_waveform_pair,
)
from aeloc.simulator import parse_config, run_experiment

from conftest import build_dataset, reference_rows, traced_peak

MAX_LAG = 2500
SWEEP_GRID = BandGrid(f_start=25_000.0, f_stop=55_000.0, step=2_000.0)  # the fixture's grid


# ------------------------------------------------------------------- grid


def test_default_grid_has_61_bands():
    assert BandGrid().band_lows().size == 61


def test_wider_stop_replicates_70_bands():
    assert BandGrid(f_stop=84_000.0).band_lows().size == 70


@pytest.mark.parametrize(
    "kwargs",
    [dict(width=0.0), dict(step=0.0), dict(f_start=0.0), dict(f_start=70_000.0)],
)
def test_invalid_grids_rejected(kwargs):
    with pytest.raises(ValueError):
        BandGrid(**kwargs)


# ---------------------------------------------------------------- line fit


def test_fit_line_hand_example():
    slope, intercept, rmse = fit_line([0.0, 1.0, 2.0], [0.0, 1.0, 2.3])
    assert slope == pytest.approx(1.15, rel=1e-12)
    assert intercept == pytest.approx(-0.05, rel=1e-9)
    residuals = np.array([0.0, 1.0, 2.3]) - (slope * np.array([0.0, 1.0, 2.0]) + intercept)
    assert residuals == pytest.approx([0.05, -0.1, 0.05], rel=1e-9)
    assert rmse == pytest.approx(np.sqrt(0.005) / 1.15, rel=1e-9)


def test_fit_line_collinear_points():
    _, _, rmse = fit_line([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
    assert rmse <= 1e-9


def test_fit_line_identical_positions_rejected():
    with pytest.raises(ValueError, match="identical"):
        fit_line([2.0, 2.0, 2.0], [0.0, 1.0, 2.0])


def test_robust_fit_drops_single_corrupted_point():
    z = np.arange(12, dtype=float)
    dt = 1e-6 * z + 3e-9
    dt[7] += 5e-5  # gross corruption, far above the quantization floor
    slope, _, rmse, outliers = _robust_fit(z, dt, sample_rate=1e6)
    assert outliers == (7,)
    assert slope == pytest.approx(1e-6, rel=1e-6)
    assert rmse < 1e-3


def test_robust_fit_keeps_clean_quantization_scale_residuals():
    rng = np.random.default_rng(4)
    z = np.arange(12, dtype=float) * 100.0
    dt = 1.2e-6 * z + rng.uniform(-0.4e-6, 0.4e-6, size=12)  # sub-sample scatter
    _, _, _, outliers = _robust_fit(z, dt, sample_rate=1e6)
    assert outliers == ()


def test_robust_fit_never_drops_more_than_a_quarter():
    z = np.arange(8, dtype=float)
    dt = 1e-6 * z
    dt[:4] += np.array([3e-5, 4e-5, 5e-5, 6e-5])
    _, _, _, outliers = _robust_fit(z, dt, sample_rate=1e6)
    assert len(outliers) <= 2


# ---------------------------------------------------------------- velocity


def test_velocity_from_slope():
    slope = 2.0 / 1.7e6  # s/mm at 1.7 km/s
    assert estimate_velocity(slope) == pytest.approx(1.7, rel=1e-12)
    assert estimate_velocity(-slope) == pytest.approx(1.7, rel=1e-12)


def test_velocity_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="zero slope"):
        estimate_velocity(0.0)


def _fitted_slope_for_plateau(v_km_s, out_dir):
    build_dataset(
        out_dir,
        specimen={
            "noise_snr_db": None,
            "velocity_points_hz_km_s": [[0.0, v_km_s], [500_000.0, v_km_s]],
        },
        prototypes=[900.0 + 550.0 * k for k in range(5)],
        tests=[],
        seed=21,
    )
    _, entries = load_prototype_pairs(out_dir)
    filt = design_bandpass(FilterSpec(35_000.0, 45_000.0, 4), 1e6)
    positions, delays = [], []
    for row, (ch1, ch2) in entries:
        positions.append(row.position_mm)
        delays.append(pair_delay(apply_filter(filt, ch1), apply_filter(filt, ch2), MAX_LAG).delay)
    slope, _, _ = fit_line(positions, delays)
    return slope


def test_velocity_recovered_from_simulated_plateau(tmp_path):
    slope = _fitted_slope_for_plateau(3.0, tmp_path)
    assert estimate_velocity(slope) == pytest.approx(3.0, abs=0.15)


def test_doubling_velocity_halves_slope(tmp_path):
    slow = _fitted_slope_for_plateau(1.7, tmp_path / "slow")
    fast = _fitted_slope_for_plateau(3.4, tmp_path / "fast")
    assert abs(fast) == pytest.approx(abs(slow) / 2.0, rel=1e-3)


# ------------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def sweep_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    build_dataset(out, specimen={"noise_snr_db": 30.0}, seed=3)
    _, entries = load_prototype_pairs(out)
    pairs = [(row.position_mm, chans) for row, chans in entries]
    grid = BandGrid(f_start=25_000.0, f_stop=55_000.0, step=2_000.0)
    return pairs, sweep_bands(pairs, grid, 4, max_lag=MAX_LAG)


def test_sweep_selects_plateau_band(sweep_result):
    _, result = sweep_result
    overlap = min(result.best_band.f_high, 45_000.0) - max(result.best_band.f_low, 35_000.0)
    assert overlap >= 7_000.0
    best_rmse = min(rec.rmse_mm for rec in result.records)
    assert best_rmse < 2.0  # plateau band: residuals at the noise/quantization floor


def test_sweep_velocity_close_to_truth(sweep_result):
    _, result = sweep_result
    assert result.velocity_km_s == pytest.approx(1.7, abs=0.085)


def test_sweep_best_is_argmin(sweep_result):
    _, result = sweep_result
    best = min(result.records, key=lambda rec: rec.rmse_mm)
    assert result.best_band == best.band
    for rec in result.records:
        assert best.rmse_mm <= rec.rmse_mm


def test_sweep_record_count_matches_grid(sweep_result):
    _, result = sweep_result
    grid = BandGrid(f_start=25_000.0, f_stop=55_000.0, step=2_000.0)
    assert len(result.records) == grid.band_lows().size


def test_adding_bands_never_raises_best_rmse(sweep_result):
    pairs, result = sweep_result
    wider = sweep_bands(
        pairs, BandGrid(f_start=25_000.0, f_stop=59_000.0, step=2_000.0), 4, max_lag=MAX_LAG
    )
    best = min(rec.rmse_mm for rec in result.records)
    best_wider = min(rec.rmse_mm for rec in wider.records)
    assert best_wider <= best


def test_time_shift_of_both_channels_leaves_velocity(sweep_result):
    pairs, result = sweep_result
    shift = 140

    def shifted(w):
        return Waveform(np.concatenate([np.zeros(shift), w.samples[:-shift]]), w.sample_rate)

    moved = [(z, (shifted(a), shifted(b))) for z, (a, b) in pairs]
    again = sweep_bands(
        moved, BandGrid(f_start=25_000.0, f_stop=55_000.0, step=2_000.0), 4, max_lag=MAX_LAG
    )
    assert again.velocity_km_s == pytest.approx(result.velocity_km_s, rel=1e-3)


def _causal_delay(filt, ch1, ch2):
    """The explicit causal reference: one forward pass of the filter per channel."""
    return pair_delay(apply_filter(filt, ch1), apply_filter(filt, ch2), filt.max_lag)


def _delay_loop(pairs, grid, delay=filtered_delay):
    """Reference sweep: ``delay`` of each pair through each band, one pair at a time."""
    positions = np.array([z for z, _ in pairs])
    fs = pairs[0][1][0].sample_rate
    bands, delays, fits = [], [], []
    for f_low in grid.band_lows():
        filt = design_bandpass(FilterSpec(float(f_low), float(f_low + grid.width), 4), fs)
        assert filt.max_lag == MAX_LAG  # the default window, which the sweeps here are given
        row = np.full(len(pairs), np.nan)
        for i, (_, (ch1, ch2)) in enumerate(pairs):
            try:
                row[i] = delay(filt, ch1, ch2).delay
            except (NoSignalError, DelayWindowError):
                pass
        valid = np.nonzero(np.isfinite(row))[0]
        if valid.size >= 3:
            slope, _, rmse, out = _robust_fit(positions[valid], row[valid], fs)
            fits.append((rmse, slope, tuple(int(valid[i]) for i in out)))
        else:
            fits.append((float("inf"), 0.0, ()))
        bands.append(filt.spec)
        delays.append(row)
    best = min(range(len(bands)), key=lambda k: (fits[k][0], bands[k].f_low))
    return bands, delays, fits, best


def _assert_delays_match(result, bands, delays, fs, atol_samples, f_lows=(0.0, np.inf)):
    assert [rec.band for rec in result.records] == bands
    for rec, row in zip(result.records, delays):
        assert np.array_equal(np.isnan(rec.delays), np.isnan(row))
        if f_lows[0] <= rec.band.f_low <= f_lows[1]:
            assert np.allclose(
                rec.delays * fs, row * fs, rtol=0.0, atol=atol_samples, equal_nan=True
            )


def _assert_same_choice(result, fits, best, bands):
    assert result.best_band == bands[best]
    assert result.best.outlier_indices == fits[best][2]
    assert result.velocity_km_s == pytest.approx(estimate_velocity(fits[best][1]), rel=1e-6)


def test_cross_spectrum_sweep_matches_filtered_delay_in_every_band(sweep_result):
    pairs, result = sweep_result
    bands, delays, fits, best = _delay_loop(pairs, SWEEP_GRID)
    # one estimator: the batched sweep and the one-pair filtered_delay agree to rounding
    _assert_delays_match(result, bands, delays, pairs[0][1][0].sample_rate, 1e-9)
    _assert_same_choice(result, fits, best, bands)


def test_zero_phase_sweep_agrees_with_causal_pass_on_plateau(sweep_result):
    pairs, result = sweep_result
    bands, delays, fits, best = _delay_loop(pairs, SWEEP_GRID, _causal_delay)
    # |H|² is zero-phase and a causal pass is not: they agree only where the band is
    # nondispersive, and differ off it
    fs = pairs[0][1][0].sample_rate
    _assert_delays_match(result, bands, delays, fs, 1e-3, f_lows=(27_000.0, 45_000.0))
    _assert_same_choice(result, fits, best, bands)


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    """The paper-default dataset (seed 0) and its prototype pairs."""
    out = tmp_path_factory.mktemp("default")
    run_experiment(parse_config({}), out)
    _, entries = load_prototype_pairs(out)
    return out, [(row.position_mm, chans) for row, chans in entries]


def test_learned_delays_equal_the_sweep_best_band_delays(default_dataset):
    out, pairs = default_dataset
    result = sweep_bands(pairs, BandGrid(), 4, max_lag=MAX_LAG)
    filt = design_bandpass(result.best_band, pairs[0][1][0].sample_rate)
    pset, skipped = learn_prototypes(out, filt)  # default window: MAX_LAG at 1 MHz
    assert skipped == []
    assert np.array_equal(pset.given[:, 0], result.best.delays)


def test_streamed_sweep_and_learn_equal_the_in_memory_ones_bit_for_bit(default_dataset):
    out, pairs = default_dataset
    held = sweep_bands(pairs, BandGrid(), 4, max_lag=MAX_LAG)
    streamed = sweep_bands(load_dataset(out, "prototype"), BandGrid(), 4, max_lag=MAX_LAG)
    assert len(streamed.records) == len(held.records) == 61
    assert streamed.positions_mm.tobytes() == held.positions_mm.tobytes()
    for lazy, eager in zip(streamed.records, held.records):
        assert lazy.band == eager.band
        assert lazy.delays.tobytes() == eager.delays.tobytes(), lazy.band
        fit = [lazy.rmse_mm, lazy.slope_s_per_mm, lazy.intercept_s]
        assert np.array(fit).tobytes() == np.array(
            [eager.rmse_mm, eager.slope_s_per_mm, eager.intercept_s]
        ).tobytes(), lazy.band
        assert lazy.outlier_indices == eager.outlier_indices
    filt = design_bandpass(held.best_band, pairs[0][1][0].sample_rate)
    learned, _ = learn_prototypes(out, filt)
    reference = PrototypeSet.from_data(held.best.delays, held.positions_mm)
    for field in ("given", "hidden", "sigmas"):
        assert getattr(learned, field).tobytes() == getattr(reference, field).tobytes(), field


def test_calibrate_and_learn_hold_the_spectra_and_one_record_being_read(default_dataset, tmp_path):
    # bound: the spectra, the reader's working set for one file, and one pair's waveforms;
    # the records are streamed into the spectra, and all 12 held at once exceed it by 2 MB
    out, pairs = default_dataset
    _, reading = traced_peak(lambda: read_waveform_pair(out / "prototype_00.txt"))
    spectra_bytes = CrossSpectra.of_pairs([pairs[0][1]], MAX_LAG).values.nbytes * len(pairs)
    bound = spectra_bytes + reading + 2 * pairs[0][1][0].samples.nbytes
    report, db = tmp_path / "calibration.csv", tmp_path / "prototypes.db"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["calibrate", str(out), "--report", str(report)],
            ["learn", str(out), "--db", str(db), "--calibration", str(report)],
        ):
            code, peak = traced_peak(lambda: cli.main(argv))
            assert code == 0
            assert peak <= bound, (argv[0], peak / 1e6, bound / 1e6)


@pytest.mark.parametrize("max_lag", [MAX_LAG, 40])  # 40: a window too short for many pairs
def test_sweep_delays_equal_the_scalar_rule_in_every_default_band(default_dataset, max_lag):
    _, pairs = default_dataset
    result = sweep_bands(pairs, BandGrid(), 4, max_lag=max_lag)
    spectra = CrossSpectra.of_pairs([chans for _, chans in pairs], max_lag)
    assert len(result.records) == 61
    failures = 0
    for rec in result.records:
        windows = spectra.correlations(design_bandpass(rec.band, spectra.sample_rate))
        oracle, errors = reference_rows(windows, max_lag, spectra.sample_rate)
        assert np.array_equal(rec.delays, oracle, equal_nan=True), rec.band
        failures += len(errors)
    assert (failures > 0) == (max_lag == 40)


def test_sweep_rejects_mixed_sample_rates(sweep_result):
    pairs, _ = sweep_result
    z, (ch1, ch2) = pairs[2]
    mixed = pairs[:2] + [(z, (ch1, Waveform(ch2.samples, 500_000.0)))] + pairs[3:]
    with pytest.raises(ValueError, match=r"1000000\.0 Hz vs 500000\.0 Hz"):
        sweep_bands(mixed, SWEEP_GRID, 4, max_lag=MAX_LAG)


def test_sweep_rejects_record_not_longer_than_max_lag(sweep_result):
    pairs, _ = sweep_result
    z, (ch1, ch2) = pairs[4]
    short = pairs[:4] + [(z, (ch1, Waveform(ch2.samples[:MAX_LAG], ch2.sample_rate)))]
    with pytest.raises(ValueError, match="max_lag=2500 must be smaller than every record"):
        sweep_bands(short, SWEEP_GRID, 4, max_lag=MAX_LAG)


def test_sweep_pads_records_of_unequal_length(sweep_result):
    pairs, _ = sweep_result

    def cut(w, n):
        return Waveform(w.samples[:n], w.sample_rate)

    # tails trimmed by different amounts, ch1 and ch2 of pair 1 differing as well
    uneven = [
        (z, (cut(ch1, len(ch1) - 300 * k), cut(ch2, len(ch2) - 300 * k - 100 * (k == 1))))
        for k, (z, (ch1, ch2)) in enumerate(pairs)
    ]
    assert len({len(w) for _, chans in uneven for w in chans}) > 2
    result = sweep_bands(uneven, SWEEP_GRID, 4, max_lag=MAX_LAG)
    bands, delays, _, _ = _delay_loop(uneven, SWEEP_GRID)
    # each pair alone pads to its own FFT length, the sweep to the longest record's
    _assert_delays_match(result, bands, delays, pairs[0][1][0].sample_rate, 1e-9)


def test_sweep_silent_channel_gives_nan_in_every_band(sweep_result):
    pairs, _ = sweep_result
    z, (ch1, ch2) = pairs[3]
    silent = pairs[:3] + [(z, (ch1, Waveform(np.zeros(len(ch2)), ch2.sample_rate)))] + pairs[4:]
    result = sweep_bands(silent, SWEEP_GRID, 4, max_lag=MAX_LAG)
    assert all(np.isnan(rec.delays[3]) for rec in result.records)
    assert all(np.isfinite(np.delete(rec.delays, 3)).all() for rec in result.records)


def test_sweep_starts_no_threads(sweep_result, monkeypatch):
    pairs, result = sweep_result

    def refuse(self):
        raise AssertionError(f"sweep_bands started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    again = sweep_bands(pairs, SWEEP_GRID, 4, max_lag=MAX_LAG)
    assert again.best_band == result.best_band


def test_zero_noise_data_has_no_outliers(tmp_path):
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=8)
    _, entries = load_prototype_pairs(tmp_path)
    pairs = [(row.position_mm, chans) for row, chans in entries]
    result = sweep_bands(
        pairs, BandGrid(f_start=33_000.0, f_stop=47_000.0, step=2_000.0), 4, max_lag=MAX_LAG
    )
    assert result.best.outlier_indices == ()


def test_nondispersive_control_is_flat(tmp_path):
    build_dataset(
        tmp_path,
        specimen={
            "noise_snr_db": None,
            "velocity_points_hz_km_s": [[0.0, 1.7], [500_000.0, 1.7]],
        },
        seed=9,
    )
    _, entries = load_prototype_pairs(tmp_path)
    pairs = [(row.position_mm, chans) for row, chans in entries]
    # restrict to bands that carry burst energy so every record is meaningful
    result = sweep_bands(
        pairs, BandGrid(f_start=30_000.0, f_stop=50_000.0, step=2_000.0), 4, max_lag=MAX_LAG
    )
    assert result.sample_rate == pairs[0][1][0].sample_rate
    assert rmse_surface_is_flat(result)


def test_sweep_requires_three_prototypes():
    w = Waveform(np.random.default_rng(0).normal(size=64), 1e6)
    with pytest.raises(ValueError, match="at least 3"):
        sweep_bands([(0.0, (w, w)), (1.0, (w, w))], BandGrid(), 4, max_lag=10)


def test_sweep_skips_invalid_bands_with_warning(sweep_result):
    pairs, _ = sweep_result
    slow = [
        (z, (Waveform(a.samples, 90_000.0), Waveform(b.samples, 90_000.0)))
        for z, (a, b) in pairs
    ]
    # upper bands exceed the 45 kHz Nyquist of the relabelled data and are skipped
    with pytest.warns(UserWarning, match="skipping band"):
        result = sweep_bands(
            slow, BandGrid(f_start=5_000.0, f_stop=75_000.0, step=10_000.0), 4, max_lag=50
        )
    assert len(result.records) < BandGrid(f_start=5_000.0, f_stop=75_000.0, step=10_000.0).band_lows().size


# ------------------------------------------------------------------ report


def test_report_roundtrip(tmp_path, sweep_result):
    _, result = sweep_result
    path = tmp_path / "calibration.csv"
    write_calibration_report(path, result, 1.5e-3)
    lines = path.read_text().splitlines()
    assert lines[0] == "f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm"
    assert len([l for l in lines if not l.startswith("#")]) == 1 + len(result.records)
    assert lines[-2:] == ["# max_delay_s=0.0015", "# sample_rate_hz=1000000.0"]
    spec, velocity = read_calibration_summary(path)
    assert spec == result.best_band
    assert velocity == result.velocity_km_s
    assert read_calibration_report(path) == (
        BandpassFilter(result.best_band, 1e6, 1.5e-3), result.velocity_km_s
    )


def test_summary_parse_rejects_incomplete_report(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm\n# velocity_km_s=1.7\n")
    with pytest.raises(ValueError, match="missing"):
        read_calibration_summary(path)


# --------------------------------------------------------- evaluation trim


def test_trim_flags_only_errors_above_the_median(tmp_path):
    # no velocity plateau: the sweep settles on 40-50 kHz, where the middle tests land
    # within a millimetre and a few terminal ones tens of millimetres off
    raw = {"specimen": {"velocity_points_hz_km_s": [[0, 1.02], [80000, 2.38], [500000, 2.38]]}}
    run_experiment(parse_config(raw), tmp_path)
    filt = design_bandpass(FilterSpec(40_000.0, 50_000.0, 4), 1e6)
    pset, _ = learn_prototypes(tmp_path, filt)
    report = evaluate_dataset(pset, filt, tmp_path)
    assert [row.file for row in report.rows if row.outlier] == ["test_22.txt"]
    assert report.trimmed_mean_error_mm < report.mean_error_mm
    assert report.trimmed_mean_error_mm == pytest.approx(21.43, abs=0.01)

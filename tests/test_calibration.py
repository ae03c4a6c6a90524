import os

import numpy as np
import pytest

from aeloc.calibration import (
    BandGrid,
    _robust_fit,
    estimate_velocity,
    fit_line,
    read_calibration_summary,
    rmse_surface_is_flat,
    sweep_bands,
    write_calibration_report,
)
from aeloc.pipeline import load_prototype_pairs
from aeloc.signals import (
    DelayWindowError,
    FilterSpec,
    NoSignalError,
    Waveform,
    design_bandpass,
    filtered_delay,
)

from conftest import build_dataset

MAX_LAG = 2500


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
    assert estimate_velocity(slope, 2400.0) == pytest.approx(1.7, rel=1e-12)
    assert estimate_velocity(-slope, 2400.0) == pytest.approx(1.7, rel=1e-12)


def test_velocity_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="zero slope"):
        estimate_velocity(0.0, 2400.0)
    with pytest.raises(ValueError, match="separation"):
        estimate_velocity(1e-6, 0.0)


def _fitted_slope_for_plateau(v_km_s, out_dir):
    from aeloc.signals import FilterSpec, apply_filter, design_bandpass, pair_delay

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
    assert estimate_velocity(slope, 2400.0) == pytest.approx(3.0, abs=0.15)


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


def test_threaded_sweep_matches_serial_loop(sweep_result, monkeypatch):
    pairs, fixture_result = sweep_result
    grid = BandGrid(f_start=25_000.0, f_stop=55_000.0, step=2_000.0)
    # four workers whatever this host's CPU count, so bands really interleave
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    threaded = sweep_bands(pairs, grid, 4, max_lag=MAX_LAG)

    positions = np.array([z for z, _ in pairs])
    fs = pairs[0][1][0].sample_rate
    bands, delays, fits = [], [], []
    for f_low in grid.band_lows():
        filt = design_bandpass(FilterSpec(float(f_low), float(f_low + grid.width), 4), fs)
        row = np.full(len(pairs), np.nan)
        for i, (_, (ch1, ch2)) in enumerate(pairs):
            try:
                row[i] = filtered_delay(filt, ch1, ch2, MAX_LAG).delay
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

    for result in (threaded, fixture_result):
        assert [rec.band for rec in result.records] == bands
        for rec, row in zip(result.records, delays):
            assert np.array_equal(np.isnan(rec.delays), np.isnan(row))
            assert np.allclose(rec.delays * fs, row * fs, rtol=0.0, atol=1e-9, equal_nan=True)
        assert result.best_band == bands[best]
        assert result.velocity_km_s == estimate_velocity(fits[best][1], 2400.0)
        assert result.outliers == fits[best][2]


def test_zero_noise_data_has_no_outliers(tmp_path):
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=8)
    _, entries = load_prototype_pairs(tmp_path)
    pairs = [(row.position_mm, chans) for row, chans in entries]
    result = sweep_bands(
        pairs, BandGrid(f_start=33_000.0, f_stop=47_000.0, step=2_000.0), 4, max_lag=MAX_LAG
    )
    assert result.outliers == ()


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
    sample_rate = pairs[0][1][0].sample_rate
    assert rmse_surface_is_flat(result, sample_rate)


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
    write_calibration_report(path, result, 4)
    lines = path.read_text().splitlines()
    assert lines[0] == "f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm"
    assert len([l for l in lines if not l.startswith("#")]) == 1 + len(result.records)
    spec, velocity = read_calibration_summary(path)
    assert spec == result.best_band
    assert velocity == result.velocity_km_s


def test_summary_parse_rejects_incomplete_report(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm\n# velocity_km_s=1.7\n")
    with pytest.raises(ValueError, match="missing"):
        read_calibration_summary(path)

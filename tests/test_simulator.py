import json
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest

from aeloc.signals import pair_delay, read_waveform_pair
from aeloc.simulator import (
    CONTINUOUS_NOISE,
    DISCRETE_BURST,
    MANIFEST_NAME,
    SourceSpec,
    SpecimenModel,
    default_config,
    parse_config,
    propagate,
    read_manifest,
    run_experiment,
    synth_source,
)

MAX_LAG = 2500


def nondispersive(**overrides) -> SpecimenModel:
    base = dict(
        length_mm=4000.0,
        sensor_1_mm=800.0,
        sensor_2_mm=3200.0,
        velocity_points=((0.0, 1.7), (500_000.0, 1.7)),
        attenuation_db_per_m=0.0,
        noise_snr_db=None,
        sample_rate_hz=1e6,
        record_length=8192,
        reflection_coeff=0.0,
    )
    base.update(overrides)
    return SpecimenModel(**base)


def paper_source(**settings) -> SourceSpec:
    """A source with default_config()'s amplitude, burst centre and noise band, seed 0."""
    paper = parse_config({})
    base = dict(
        amplitude=paper.source_amplitude,
        burst_center_freq_hz=paper.burst_center_freq_hz,
        band_hz=paper.continuous_band_hz,
        seed=0,
    )
    base.update(settings)
    return SourceSpec(**base)


# ----------------------------------------------------------------- geometry


def test_default_specimen_geometry():
    model = parse_config({}).model
    assert model.sensor_separation_mm == 2400.0
    assert model.velocity_km_s(40_000.0) == 1.7
    max_delay_s = model.sensor_separation_mm / (1.7 * 1e6)
    assert max_delay_s == pytest.approx(1.412e-3, abs=2e-6)


def test_velocity_curve_interpolation():
    model = parse_config({}).model
    assert model.velocity_km_s(0.0) == pytest.approx(1.02)
    assert model.velocity_km_s(35_000.0) == pytest.approx(1.7)
    assert model.velocity_km_s(45_000.0) == pytest.approx(1.7)
    assert model.velocity_km_s(80_000.0) == pytest.approx(2.38)
    # linear between the plateau edge and the +40 % point
    assert model.velocity_km_s(62_500.0) == pytest.approx((1.7 + 2.38) / 2.0)


def test_record_length_invariant_enforced():
    # 1024 samples at 1 MHz cannot contain the 1.41 ms worst-case propagation delay
    with pytest.raises(ValueError, match="too short"):
        nondispersive(record_length=1024)


def test_sensor_ordering_enforced():
    with pytest.raises(ValueError, match="sensor"):
        nondispersive(sensor_1_mm=3200.0, sensor_2_mm=800.0)


def _burst_at_2000_mm(**settings) -> SourceSpec:
    return paper_source(position_mm=2000.0, kind=DISCRETE_BURST, **settings)


# name: (bad call, its whole message)
REFUSALS = {
    "empty-curve": (
        lambda: nondispersive(velocity_points=()),
        "curve needs at least one (frequency, value) breakpoint",
    ),
    "unsorted-curve": (
        lambda: nondispersive(velocity_points=((500_000.0, 1.7), (0.0, 1.7))),
        "curve breakpoints must be sorted by frequency",
    ),
    "zero-velocity": (
        lambda: nondispersive(velocity_points=((0.0, 0.0), (500_000.0, 1.7))),
        "velocity curve must be positive everywhere",
    ),
    "negative-attenuation": (
        lambda: nondispersive(attenuation_db_per_m=-0.5),
        "attenuation must be nonnegative",
    ),
    "reflection-above-one": (
        lambda: nondispersive(reflection_coeff=1.5),
        "reflection coefficient must be within [0, 1]",
    ),
    "reflection-below-zero": (
        lambda: nondispersive(reflection_coeff=-0.1),
        "reflection coefficient must be within [0, 1]",
    ),
    # ten cycles of 1 kHz span 10000 samples, more than the 8192-sample record
    "burst-longer-than-the-record": (
        lambda: synth_source(_burst_at_2000_mm(burst_center_freq_hz=1000.0), nondispersive()),
        "record too short to hold the burst",
    ),
    # the FFT bins of 8192 samples at 1 MHz lie 122.07 Hz apart: 39917 Hz, then 40039 Hz
    "noise-band-between-two-bins": (
        lambda: synth_source(
            paper_source(position_mm=2000.0, kind=CONTINUOUS_NOISE, band_hz=(40e3, 40.01e3)),
            nondispersive(),
        ),
        "source band contains no spectral bins at this record length",
    ),
    "excitation-of-another-length": (
        lambda: propagate(np.zeros(8191), _burst_at_2000_mm(), nondispersive()),
        "excitation must have record_length=8192 samples",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_bad_specimen_or_source_is_refused(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_specimen_and_source_take_every_setting_from_the_caller():
    # default_config() is the one copy of the paper settings
    for cls in (SpecimenModel, SourceSpec):
        defaulted = [
            f.name for f in fields(cls) if (f.default, f.default_factory) != (MISSING, MISSING)
        ]
        assert defaulted == [], cls.__name__


# ------------------------------------------------------------------ sources


def test_burst_peak_amplitude_is_normalized():
    spec = paper_source(position_mm=1000.0, kind=DISCRETE_BURST, amplitude=1.0, seed=1)
    x = synth_source(spec, nondispersive())
    assert np.max(np.abs(x)) == pytest.approx(1.0, abs=1e-9)


def test_same_seed_gives_identical_source():
    model = nondispersive()
    spec = paper_source(position_mm=1000.0, kind=CONTINUOUS_NOISE, seed=42)
    assert np.array_equal(synth_source(spec, model), synth_source(spec, model))


def test_continuous_source_band_limited():
    model = nondispersive()
    spec = paper_source(position_mm=1000.0, kind=CONTINUOUS_NOISE, band_hz=(30e3, 50e3), seed=2)
    x = synth_source(spec, model)
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / model.sample_rate_hz)
    inside = spectrum[(freqs >= 28e3) & (freqs <= 52e3)].sum()
    assert inside >= 0.95 * spectrum.sum()


def test_burst_center_beyond_nyquist_rejected():
    spec = paper_source(position_mm=1000.0, kind=DISCRETE_BURST, burst_center_freq_hz=600e3)
    with pytest.raises(ValueError, match="Nyquist"):
        synth_source(spec, nondispersive())


def test_continuous_band_beyond_nyquist_rejected():
    spec = paper_source(position_mm=1000.0, kind=CONTINUOUS_NOISE, band_hz=(30e3, 600e3))
    with pytest.raises(ValueError, match="Nyquist"):
        synth_source(spec, nondispersive())


# -------------------------------------------------------------- propagation


def test_midpoint_source_gives_identical_channels():
    model = nondispersive()
    spec = paper_source(position_mm=2000.0, kind=DISCRETE_BURST, seed=3)
    ch1, ch2 = propagate(synth_source(spec, model), spec, model)
    scale = np.max(np.abs(ch1.samples))
    assert np.max(np.abs(ch1.samples - ch2.samples)) <= 1e-9 * scale


def test_geometric_delay_recovered_at_first_hole():
    model = nondispersive()
    spec = paper_source(position_mm=900.0, kind=DISCRETE_BURST, seed=4)
    ch1, ch2 = propagate(synth_source(spec, model), spec, model)
    est = pair_delay(ch1, ch2, MAX_LAG)
    # (d1 - d2) / v = (100 - 2300) mm / 1.7 km/s
    assert est.delay == pytest.approx(-1294.1e-6, abs=1e-6)


def test_source_equidistant_from_sensors_zero_delay():
    model = nondispersive(noise_snr_db=35.0)
    spec = paper_source(position_mm=2000.0, kind=CONTINUOUS_NOISE, seed=5)
    ch1, ch2 = propagate(synth_source(spec, model), spec, model)
    est = pair_delay(ch1, ch2, MAX_LAG)
    assert abs(est.delay) <= 1.0 / model.sample_rate_hz


def test_doubling_attenuation_doubles_channel_level_difference_db():
    spec = paper_source(position_mm=1200.0, kind=DISCRETE_BURST, seed=6)

    def level_diff_db(alpha):
        model = nondispersive(attenuation_db_per_m=alpha)
        ch1, ch2 = propagate(synth_source(spec, model), spec, model)
        r1 = np.sqrt(np.mean(ch1.samples**2))
        r2 = np.sqrt(np.mean(ch2.samples**2))
        return 20.0 * np.log10(r1 / r2)

    assert level_diff_db(10.0) == pytest.approx(2.0 * level_diff_db(5.0), rel=1e-6)
    # analytic value: alpha * (d2 - d1) in dB with d2 - d1 = 1.6 m
    assert level_diff_db(5.0) == pytest.approx(5.0 * 1.6, rel=1e-6)


def test_allpass_propagation_conserves_energy():
    model = nondispersive()
    spec = paper_source(position_mm=1100.0, kind=DISCRETE_BURST, seed=7)
    x = synth_source(spec, model)
    ch1, ch2 = propagate(x, spec, model)
    for ch in (ch1, ch2):
        assert np.sum(ch.samples**2) == pytest.approx(np.sum(x**2), rel=0.01)


def test_configured_snr_is_realized():
    noisy = nondispersive(noise_snr_db=20.0, attenuation_db_per_m=5.0)
    clean = nondispersive(noise_snr_db=None, attenuation_db_per_m=5.0)
    spec = paper_source(position_mm=1500.0, kind=CONTINUOUS_NOISE, seed=8)
    x = synth_source(spec, noisy)
    n1, n2 = propagate(x, spec, noisy)
    c1, c2 = propagate(x, spec, clean)
    for noisy_ch, clean_ch in ((n1, c1), (n2, c2)):
        noise = noisy_ch.samples - clean_ch.samples
        snr = 10.0 * np.log10(np.mean(clean_ch.samples**2) / np.mean(noise**2))
        assert snr == pytest.approx(20.0, abs=1.0)


def test_prefilter_delay_neutrality():
    from aeloc.signals import FilterSpec, apply_filter, design_bandpass

    model = nondispersive(noise_snr_db=30.0)
    spec = paper_source(position_mm=1300.0, kind=CONTINUOUS_NOISE, seed=11)
    ch1, ch2 = propagate(synth_source(spec, model), spec, model)
    raw = pair_delay(ch1, ch2, MAX_LAG)
    filt = design_bandpass(FilterSpec(35e3, 45e3, 4), model.sample_rate_hz)
    filtered = pair_delay(apply_filter(filt, ch1), apply_filter(filt, ch2), MAX_LAG)
    assert abs(filtered.delay - raw.delay) * model.sample_rate_hz < 1.0


def test_out_of_span_source_warns():
    model = nondispersive()
    spec = paper_source(position_mm=700.0, kind=DISCRETE_BURST, seed=9)
    with pytest.warns(UserWarning, match="outside the sensor span"):
        propagate(synth_source(spec, model), spec, model)


def test_run_experiment_passes_the_out_of_span_warning_to_the_caller(tmp_path):
    cfg = parse_config(
        {
            "specimen": {"record_length": 4096},
            "prototype_positions_mm": [900.0, 1500.0],
            "test_positions_mm": [500.0],
        }
    )
    with pytest.warns(UserWarning, match="500.0 mm lies outside the sensor span"):
        run_experiment(cfg, tmp_path)


def test_source_outside_specimen_rejected():
    model = nondispersive()
    spec = paper_source(position_mm=4500.0, kind=DISCRETE_BURST, seed=9)
    with pytest.raises(ValueError, match="outside the specimen"):
        propagate(synth_source(spec, model), spec, model)


_WRAP = "record too short: the delayed burst from 0.0 mm would wrap past the record end"


@pytest.mark.parametrize("record_length, refused", [(3868, True), (3869, False)])
def test_a_wrapping_burst_is_refused_before_any_file_is_written(tmp_path, record_length, refused):
    # a burst at 0 mm reaches the far sensor 3137.25 samples late; its last nonzero sample is
    # n // 8 + 248 (the Hann window's end samples are zero), so 3868 samples is the longest
    # record it wraps in, as it was when propagate checked the synthesized record
    cfg = parse_config(
        {
            "specimen": {"record_length": record_length},
            "test_source_kind": DISCRETE_BURST,
            "test_positions_mm": [900.0, 0.0],
        }
    )
    if refused:
        with pytest.raises(ValueError, match="^" + re.escape(f"test source 1: {_WRAP}") + "$"):
            run_experiment(cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []
    else:
        with pytest.warns(UserWarning, match="0.0 mm lies outside the sensor span"):
            rows = run_experiment(cfg, tmp_path)
        assert len(rows) == 14 and (tmp_path / "test_01.txt").exists()


def test_single_reflection_term_adds_echo():
    plain = nondispersive()
    reflective = nondispersive(reflection_coeff=0.5)
    spec = paper_source(position_mm=1100.0, kind=DISCRETE_BURST, seed=10)
    x = synth_source(spec, plain)
    direct, _ = propagate(x, spec, plain)
    echoed, _ = propagate(x, spec, reflective)
    assert np.sum(echoed.samples**2) > 1.05 * np.sum(direct.samples**2)


# ------------------------------------------------------------------ dataset


def test_run_experiment_writes_paper_counts(tmp_path):
    cfg = parse_config({"specimen": {"record_length": 8192}})
    rows = run_experiment(cfg, tmp_path)
    protos = [r for r in rows if r.role == "prototype"]
    tests = [r for r in rows if r.role == "test"]
    assert (len(protos), len(tests)) == (12, 23)
    assert len(list(tmp_path.glob("*.txt"))) == 36  # 35 pairs + manifest
    meta, manifest = read_manifest(tmp_path / MANIFEST_NAME)
    assert meta["sensor_2_mm"] - meta["sensor_1_mm"] == 2400.0
    assert len(manifest) == 35
    ch1, _ = read_waveform_pair(tmp_path / protos[0].file)
    assert ch1.sample_rate == 1e6


def test_run_experiment_accepts_empty_test_list(tmp_path):
    cfg = parse_config(
        {"specimen": {"record_length": 8192}, "test_positions_mm": []}
    )
    rows = run_experiment(cfg, tmp_path)
    assert all(r.role == "prototype" for r in rows)
    _, manifest = read_manifest(tmp_path / MANIFEST_NAME)
    assert len(manifest) == 12


def test_same_seed_gives_byte_identical_dataset(tmp_path):
    cfg = parse_config(
        {
            "specimen": {"record_length": 4096},
            "prototype_positions_mm": [900.0, 2000.0, 3100.0],
            "test_positions_mm": [1500.0],
        }
    )
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(default_config()))
    from aeloc.simulator import load_config

    cfg = load_config(path)
    assert cfg.model.sensor_separation_mm == 2400.0
    assert len(cfg.prototype_positions_mm) == 12
    assert len(cfg.test_positions_mm) == 23
    assert cfg.test_source_kind == CONTINUOUS_NOISE


def test_config_refuses_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        parse_config({"seed": -1})


@pytest.mark.parametrize(
    "raw,key",
    [
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "3"}, "seed"),
        ({"specimen": {"record_length": 8192.7}}, "specimen.record_length"),
        ({"specimen": {"record_length": False}}, "specimen.record_length"),
    ],
)
def test_config_refuses_non_integers_instead_of_truncating(raw, key):
    with pytest.raises(ValueError, match=rf"^{key} must be an integer, got "):
        parse_config(raw)


def test_config_accepts_integral_numbers():
    cfg = parse_config({"seed": 3.0, "specimen": {"record_length": 16384.0}})
    assert (cfg.seed, cfg.model.record_length) == (3, 16384)
    assert type(cfg.seed) is int and type(cfg.model.record_length) is int


@pytest.mark.parametrize(
    "specimen, attenuation, snr",
    [
        ({"attenuation_db_per_m": 5}, ((0.0, 5.0),), 20.0),
        ({"attenuation_db_per_m": [[0, 5.0], [80000, 10]]}, ((0.0, 5.0), (80000.0, 10.0)), 20.0),
        ({"noise_snr_db": None}, ((0.0, 5.0),), None),
    ],
    ids=["attenuation-number", "attenuation-curve", "no-noise"],
)
def test_config_accepts_each_form_of_a_specimen_value(specimen, attenuation, snr):
    model = parse_config({"specimen": specimen}).model
    assert (model.attenuation_db_per_m, model.noise_snr_db) == (attenuation, snr)


def test_simulate_exits_2_on_a_fractional_seed(tmp_path, capsys):
    from aeloc import cli

    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 1.5}')
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert "seed must be an integer, got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown configuration keys"):
        parse_config({"velocity": 1.7})
    with pytest.raises(ValueError, match="unknown specimen keys"):
        parse_config({"specimen": {"speed": 1.7}})


@pytest.mark.parametrize(
    "text, message",
    [
        ("file,role,position_mm,kind\n", "manifest must start with a '# key=value ...' line"),
        ("# sensor_1_mm=800.0 sensor_2_mm=3200.0\nfile,role,position_mm\n",
         "unexpected manifest column header 'file,role,position_mm'"),
    ],
    ids=["no-key-value-line", "another-column-line"],
)
def test_a_manifest_without_its_two_header_lines_is_refused(tmp_path, text, message):
    path = tmp_path / MANIFEST_NAME
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_manifest(path)
    assert str(info.value) == f"{path}: {message}"

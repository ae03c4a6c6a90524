import argparse
import csv
import json
import shutil
import os
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeloc import cli, pipeline, simulator
from aeloc.calibration import read_calibration_report, read_calibration_summary
from aeloc.grnn import load_prototypes
from aeloc.signals import (
    ESTIMATOR_FIELDS,
    BandpassFilter,
    FilterSpec,
    Waveform,
    design_bandpass,
    filtered_delay,
    read_sample_rate,
    read_waveform_pair,
    write_waveform_pair,
)
from aeloc.simulator import MANIFEST_NAME, default_config

from conftest import build_dataset, summary_report, write_summary

FS = 1_000_000.0


def small_config(**overrides):
    cfg = default_config()
    cfg["specimen"]["record_length"] = 8192
    cfg["prototype_positions_mm"] = [900.0 + 400.0 * k for k in range(6)]
    cfg["test_positions_mm"] = [900.0, 1500.0, 2100.0]
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def paper_seed0(tmp_path_factory):
    """The paper-default dataset at seed 0, simulated once; tests edit copies of it."""
    data = tmp_path_factory.mktemp("seed0") / "data"
    assert cli.main(["simulate", "--out", str(data), "--seed", "0"]) == 0
    return data


# ----------------------------------------------------------------- simulate


def test_simulate_default_counts(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "6 prototype + 3 test pairs" in capsys.readouterr().out
    assert len(list(out.glob("*.txt"))) == 10  # 9 pairs + manifest


def test_simulate_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    code = cli.main(["simulate", "--config", str(missing), "--out", str(tmp_path / "x")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_simulate_requires_out(capsys):
    assert cli.main(["simulate"]) == 1


def test_simulate_writes_default_config(tmp_path):
    path = tmp_path / "default.json"
    assert cli.main(["simulate", "--write-default-config", str(path)]) == 0
    cfg = json.loads(path.read_text())
    assert len(cfg["prototype_positions_mm"]) == 12
    assert len(cfg["test_positions_mm"]) == 23
    # the written file is every default: simulating from it changes no byte
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    assert cli.main(["simulate", "--out", str(plain), "--seed", "3"]) == 0
    argv = ["simulate", "--config", str(path), "--out", str(configured), "--seed", "3"]
    assert cli.main(argv) == 0
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in configured.iterdir()) and len(names) == 36
    for name in names:
        assert (plain / name).read_bytes() == (configured / name).read_bytes(), name


_TOO_FEW_SAMPLES = "sample rate must be positive and record_length >= 2"


@pytest.mark.parametrize(
    "setting,message",
    [
        ({"test_source_kind": "bogus"}, "test source 0: unknown source kind 'bogus'"),
        ({"source_amplitude": -1.0}, "prototype source 0: amplitude must be positive"),
        ({"continuous_band_hz": [50000.0, 30000.0]}, "source band (50000.0, 30000.0) Hz outside"),
        (
            {"test_positions_mm": [900.0, 5000.0]},
            "test source 1: source position 5000.0 mm outside the specimen",
        ),
        (
            {
                "specimen": {"record_length": 3800},
                "test_source_kind": "discrete-burst",
                "test_positions_mm": [900.0, 0.0],
            },
            "test source 1: record too short: the delayed burst from 0.0 mm would wrap past "
            "the record end",
        ),
        # a value of the wrong kind, refused by its key: a string of positions used to be
        # iterated by character, the others to end in a TypeError's traceback
        ({"prototype_positions_mm": "900"}, "prototype_positions_mm: '900' is not a list of"),
        ({"test_positions_mm": None}, "test_positions_mm: None is not a list of numbers"),
        (
            {"specimen": {"velocity_points_hz_km_s": 5}},
            "specimen.velocity_points_hz_km_s: 5 is not a list of [frequency, value] pairs",
        ),
        ({"specimen": {"noise_snr_db": "loud"}}, "specimen.noise_snr_db: 'loud' is not a number"),
        ({"specimen": {"length_mm": "long"}}, "specimen.length_mm: 'long' is not a number"),
        ({"specimen": {"reflection_coeff": "x"}}, "specimen.reflection_coeff: 'x' is not a"),
        ({"specimen": []}, "specimen: [] is not an object of keys"),
        ({"specimen": {"sample_rate_hz": 0}}, _TOO_FEW_SAMPLES),
        ({"specimen": {"record_length": 1}}, _TOO_FEW_SAMPLES),
        # a list of the wrong length, refused by its key: each used to end in a message of
        # unpacking ("not enough values to unpack", "too many values") or an unnamed curve
        ({"continuous_band_hz": [30000]}, "continuous_band_hz: [30000] is not a [low, high] pair"),
        (
            {"continuous_band_hz": [30000, 40000, 50000]},
            "continuous_band_hz: [30000, 40000, 50000] is not a [low, high] pair",
        ),
        (
            {"specimen": {"velocity_points_hz_km_s": [[0, 1.02, 5], [80000, 2.38]]}},
            "specimen.velocity_points_hz_km_s: [0, 1.02, 5] is not a [frequency, value] pair",
        ),
        (
            {"specimen": {"velocity_points_hz_km_s": [[0]]}},
            "specimen.velocity_points_hz_km_s: [0] is not a [frequency, value] pair",
        ),
        (
            {"specimen": {"attenuation_db_per_m": [[0, 5, 1]]}},
            "specimen.attenuation_db_per_m: [0, 5, 1] is not a [frequency, value] pair",
        ),
        (
            {"specimen": {"velocity_points_hz_km_s": []}},
            "specimen.velocity_points_hz_km_s: a curve needs at least one [frequency, value] pair",
        ),
        # JSON's Infinity and NaN, refused by key: the first used to simulate a specimen of
        # infinite length, the others to fail at the first write, naming no key
        ({"specimen": {"length_mm": float("inf")}},
         "specimen.length_mm: number must be finite, got inf"),
        ({"source_amplitude": float("nan")}, "source_amplitude: number must be finite, got nan"),
        ({"specimen": {"noise_snr_db": float("nan")}},
         "specimen.noise_snr_db: number must be finite, got nan"),
        (
            {"specimen": {"velocity_points_hz_km_s": [[0, 1.02], [35000, float("nan")]]}},
            "specimen.velocity_points_hz_km_s: number must be finite, got nan",
        ),
        # an integer no double can hold used to end in a traceback of OverflowError
        ({"source_amplitude": 10**309}, f"source_amplitude: number must be finite, got {10**309}"),
    ],
    ids=["kind", "amplitude", "band", "position", "wrapping-burst", "positions-string",
         "positions-null", "velocity-number", "snr-string", "length-string", "reflection-string",
         "specimen-list", "zero-sample-rate", "one-sample-record", "band-one-value",
         "band-three-values", "velocity-three-values", "velocity-one-value",
         "attenuation-three-values", "velocity-empty", "length-infinite", "amplitude-nan",
         "snr-nan", "velocity-nan", "amplitude-beyond-doubles"],
)
def test_simulate_refuses_a_bad_source_before_writing_any_pair(tmp_path, capsys, setting, message):
    cfg = {**default_config(), "specimen": {"record_length": 4096}, **setting}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, key",
    [('{"seed": 1, "seed": 2}', "seed"),
     ('{"specimen": {"length_mm": 4000.0}, "specimen": {"noise_snr_db": null}}', "specimen"),
     ('{"specimen": {"noise_snr_db": 20.0, "noise_snr_db": null}}', "noise_snr_db")],
    ids=["top-level", "specimen", "inside-specimen"],
)
def test_simulate_refuses_a_repeated_configuration_key(tmp_path, capsys, text, key):
    # the last of the repeats used to win without a word
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg_path}: configuration key {key!r} appears twice\n"
    )
    assert not out.exists()


def test_simulate_writes_integer_sensor_positions_as_floats(tmp_path):
    # the specimen gets the checked floats, not the JSON's integers
    cfg = small_config(prototype_positions_mm=[900.0, 1300.0], test_positions_mm=[1500.0])
    written = {}
    for name, sensors in (("floats", (800.0, 3200.0)), ("integers", (800, 3200))):
        cfg["specimen"]["sensor_1_mm"], cfg["specimen"]["sensor_2_mm"] = sensors
        (cfg_path := tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        written[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = written["integers"][MANIFEST_NAME].decode()
    assert manifest.startswith("# sensor_1_mm=800.0 sensor_2_mm=3200.0\n")
    assert written["integers"] == written["floats"]


def test_simulate_refuses_a_config_that_is_not_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[]")
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: configuration: [] is not an object of keys\n"
    assert not out.exists()


def test_simulate_names_the_pair_it_could_not_write(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config()))
    out = tmp_path / "data"
    blocked = out / "prototype_05.txt"
    blocked.mkdir(parents=True)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"error: failed writing {blocked}: " in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [f"prototype_{i:02d}.txt" for i in range(6)]


def test_simulate_refuses_an_out_that_would_keep_stale_pair_files(paper_seed0, tmp_path, capsys):
    # two test sources into a default dataset used to exit 0 and leave test_02 to test_22
    # behind, which evaluate then refused as on disk but not in the manifest
    out = tmp_path / "data"
    shutil.copytree(paper_seed0, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"test_positions_mm": [1000.0, 2000.0]}))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    stale = ", ".join(f"test_{i:02d}.txt" for i in range(2, 23))
    assert capsys.readouterr().err == (
        f"error: {out}: holds pair files the new manifest would not list: {stale}; "
        "simulate into an empty directory\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("rate", [1000000.0000001, 1000000.5])
def test_simulate_refuses_a_sample_rate_the_pair_format_cannot_store(tmp_path, capsys, rate):
    # a pair file's header holds an integer rate: the first used to pass the writer
    # rounded, the second to fail at the first write, leaving --out behind
    cfg = small_config()
    cfg["specimen"]["sample_rate_hz"] = rate
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "data"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: specimen.sample_rate_hz must be an integer, got {rate!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("caller_filter", ["error", "ignore"])
def test_simulate_prints_the_out_of_span_warning_as_a_line(tmp_path, capsys, caller_filter):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(test_positions_mm=[500.0])))
    with warnings.catch_warnings():
        warnings.simplefilter(caller_filter)
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    assert capsys.readouterr().err == (
        "warning: source at 500.0 mm lies outside the sensor span [800.0, 3200.0] mm; "
        "delays saturate there\n"
    )


def test_usage_error_exit_code():
    assert cli.main(["frobnicate"]) == 1


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_written_files_follow_the_umask(tmp_path, umask):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(test_positions_mm=[1500.0])))
    out = tmp_path / "data"
    previous = os.umask(umask)
    try:
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    for name in (MANIFEST_NAME, "test_00.txt"):
        assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


def test_writes_leave_the_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: setting it to read it races with files other threads create
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(test_positions_mm=[1500.0])))
    out = tmp_path / "data"
    previous = os.umask(0o027)
    try:
        with monkeypatch.context() as m:
            m.setattr(os, "umask", lambda mask: pytest.fail("os.umask called"))
            assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [MANIFEST_NAME, "test_00.txt"] + [f"prototype_{i:02d}.txt" for i in range(6)]
    )
    for path in out.iterdir():
        assert path.stat().st_mode & 0o777 == 0o640, path.name


# ----------------------------------------------------------------- parser


def test_main_builds_one_parser_tree_for_many_calls(monkeypatch):
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert cli.main(["frobnicate"]) == 1
    assert len(constructed) == 6  # the root parser and one per subcommand
    assert cli.main(["locate"]) == 1
    assert len(constructed) == 6


def test_shared_parser_keeps_no_state_between_calls(learned, tmp_path, capsys):
    _, data, report, db = learned
    argv = ["locate", str(db), str(data / "test_02.txt"), "--calibration", str(report)]
    out = tmp_path / "locations.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    with_out = capsys.readouterr()
    out.unlink()
    assert cli.main(argv + ["--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert cli.main(argv) == 0
    after = capsys.readouterr()
    cli.build_parser.cache_clear()
    assert cli.main(argv) == 0
    fresh = capsys.readouterr()
    assert (after.out, after.err) == (fresh.out, fresh.err) == (with_out.out, with_out.err)
    assert not out.exists()  # the first call's --out did not carry over


_FLAG_ARGV = {
    "calibrate": ["calibrate", "data", "--report", "r.csv"],
    "learn": ["learn", "data", "--db", "p.db", "--calibration", "c.csv"],
    "locate": ["locate", "p.db", "t.txt"],
    "evaluate": ["evaluate", "p.db", "data", "--report", "e.csv", "--calibration", "c.csv"],
    "simulate": ["simulate", "--out", "data"],
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-2400", "ten"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("calibrate", "--max-delay-s"),
        ("calibrate", "--width"),
        ("calibrate", "--step"),
        ("calibrate", "--f-start"),
        ("calibrate", "--f-stop"),
    ],
)
def test_float_flags_refuse_non_finite_and_non_positive(tmp_path, monkeypatch, capsys,
                                                        command, flag, value):
    monkeypatch.chdir(tmp_path)  # nothing is read: the flag fails while parsing
    assert cli.main([*_FLAG_ARGV[command], f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err and repr(value) in err


@pytest.mark.parametrize(
    "command, flag",
    [(command, "--no-refine") for command in ("calibrate", "learn", "locate", "evaluate")]
    + [("evaluate", "--sensor-separation=2400")]
    + [
        (command, flag)
        for command in ("learn", "locate", "evaluate")
        for flag in ("--f-low=35000", "--f-high=45000", "--order=4", "--max-delay-s=1e-4")
    ],
)
def test_retired_flags_are_usage_errors(tmp_path, monkeypatch, capsys, command, flag):
    # every stage refines its delays, evaluate takes the separation from the manifest, learn
    # takes the band, order and delay window from the calibration report, and locate and
    # evaluate take them from the database
    monkeypatch.chdir(tmp_path)  # nothing is read: the flag fails while parsing
    assert cli.main([*_FLAG_ARGV[command], flag]) == 1
    assert "unrecognized arguments: " + flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        *[("calibrate", "--order", value) for value in ("0", "-3", "2.5", "ten")],
        *[("simulate", "--seed", value) for value in ("-1", "1.5", "ten")],
    ],
)
def test_integer_flags_refuse_non_integers_and_out_of_range(tmp_path, monkeypatch, capsys,
                                                            command, flag, value):
    monkeypatch.chdir(tmp_path)  # nothing is read or written: the flag fails while parsing
    assert cli.main([*_FLAG_ARGV[command], f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err and repr(value) in err
    assert not (tmp_path / "data").exists()


# ---------------------------------------------------------------- calibrate


def test_calibrate_writes_report_and_svg(learned):
    root, data, report, _ = learned
    svg = root / "cal.svg"
    assert (
        cli.main(
            [
                "calibrate",
                str(data),
                "--report",
                str(root / "cal2.csv"),
                "--svg",
                str(svg),
                "--f-start",
                "30000",
                "--f-stop",
                "50000",
                "--step",
                "5000",
            ]
        )
        == 0
    )
    assert svg.read_text().startswith("<svg")
    lines = (root / "cal2.csv").read_text().splitlines()
    assert lines[0] == "f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm"
    # grid: f_low 30,35,40 kHz
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 3


@pytest.mark.parametrize("caller_filter", ["error", "ignore"])
def test_calibrate_prints_each_band_it_skips_as_a_warning_line(learned, tmp_path, capsys,
                                                              caller_filter):
    _, data, _, _ = learned
    # two bands: 30-40 kHz, and 500-510 kHz, which reaches the 500 kHz Nyquist frequency
    grid = ["--f-start", "30000", "--step", "470000", "--f-stop", "510000"]
    with warnings.catch_warnings():
        warnings.simplefilter(caller_filter)
        assert cli.main(["calibrate", str(data), "--report", str(tmp_path / "r.csv"), *grid]) == 0
    assert capsys.readouterr().err == (
        "warning: skipping band 500000.0-510000.0 Hz: f_high=510000.0 Hz is not below the "
        "Nyquist frequency 500000.0 Hz\n"
    )


def test_calibrate_band_count_for_seventy_band_grid(tmp_path, learned):
    _, data, _, _ = learned
    report = tmp_path / "wide.csv"
    code = cli.main(
        ["calibrate", str(data), "--report", str(report), "--f-stop", "84000"]
    )
    assert code == 0
    rows = [
        l for l in report.read_text().splitlines()[1:] if l and not l.startswith("#")
    ]
    assert len(rows) == 70


def test_calibrate_needs_three_prototypes(tmp_path, capsys):
    build_dataset(tmp_path, prototypes=[900.0, 1700.0], tests=[], seed=4)
    code = cli.main(["calibrate", str(tmp_path), "--report", str(tmp_path / "r.csv")])
    assert code == 2
    assert "at least 3" in capsys.readouterr().err


def test_calibrate_without_prototypes_is_a_named_data_error(tmp_path, capsys):
    build_dataset(tmp_path, prototypes=[], tests=[1700.0], seed=4)
    code = cli.main(["calibrate", str(tmp_path), "--report", str(tmp_path / "r.csv")])
    assert code == 2
    assert f"error: {tmp_path}: manifest lists no prototype sources" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_calibrate_names_file_and_line_of_a_corrupt_prototype(tmp_path, capsys):
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=4)
    corrupt = tmp_path / "prototype_03.txt"
    lines = corrupt.read_text().splitlines(keepends=True)
    lines[500] = "0.1,abc\n"  # file line 501, the header being line 1
    corrupt.write_text("".join(lines))
    report = tmp_path / "r.csv"
    assert cli.main(["calibrate", str(tmp_path), "--report", str(report)]) == 2
    assert f"error: {corrupt}:501: " in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("command", ["calibrate", "learn"])
def test_a_manifest_rate_is_ignored_and_the_pair_files_state_the_rate(tmp_path, capsys, command):
    # manifests used to repeat the rate in their header; a stale copy changes nothing
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=4)
    manifest = tmp_path / MANIFEST_NAME
    first, rest = manifest.read_text().split("\n", 1)
    if command == "calibrate":
        grid = ["--f-start", "30000", "--f-stop", "50000", "--step", "5000"]
        fresh = tmp_path / "fresh.csv"
        assert cli.main(["calibrate", str(tmp_path), "--report", str(fresh), *grid]) == 0
    manifest.write_text(f"{first} sample_rate_hz=500000.0\n{rest}")
    out, band = tmp_path / "out", summary_report(tmp_path / "band.csv", 3e4, 4e4, sample_rate=5e5)
    if command == "calibrate":
        assert cli.main(["calibrate", str(tmp_path), "--report", str(out), *grid]) == 0
        assert out.read_bytes() == fresh.read_bytes()
    else:  # the report agrees with the stale copy, not with the files
        assert cli.main(["learn", str(tmp_path), "--db", str(out), "--calibration", str(band)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: sample rate 1000000.0 Hz differs from {band}'s 500000.0 Hz\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "learn"])
def test_manifest_row_with_an_unknown_role_is_a_data_error(tmp_path, capsys, command):
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=4)
    manifest = tmp_path / MANIFEST_NAME
    lines = manifest.read_text().splitlines()
    ln = next(i for i, line in enumerate(lines, start=1) if line.startswith("prototype_03.txt,"))
    lines[ln - 1] = lines[ln - 1].replace(",prototype,", ",prototyp,")
    manifest.write_text("\n".join(lines) + "\n")
    out, band = tmp_path / "out", summary_report(tmp_path / "band.csv", 3e4, 4e4)
    argv = {
        "calibrate": ["calibrate", str(tmp_path), "--report", str(out)],
        "learn": ["learn", str(tmp_path), "--db", str(out), "--calibration", str(band)],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {manifest}:{ln}: role must be 'prototype' or 'test', got 'prototyp'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [("calibrate", "prototype_05.txt"),
                                           ("evaluate", "test_01.txt")])
def test_a_file_listed_twice_in_the_manifest_is_a_data_error(learned, tmp_path, capsys, command,
                                                             name):
    # the repeated row used to be read, and counted, twice
    _, data, report, db = learned
    twice = tmp_path / "twice"
    shutil.copytree(data, twice)
    manifest = twice / MANIFEST_NAME
    lines = manifest.read_text().splitlines(keepends=True)
    row = next(line for line in lines if line.startswith(name + ","))
    manifest.write_text("".join(lines) + row)
    out = tmp_path / "out.csv"
    argv = {
        "calibrate": ["calibrate", str(twice), "--report", str(out)],
        "evaluate": ["evaluate", str(db), str(twice), "--report", str(out),
                     "--calibration", str(report)],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {manifest}:{len(lines) + 1}: file {name!r} is listed twice\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "learn"])
def test_prototype_file_missing_from_the_manifest_is_a_data_error(tmp_path, capsys, command):
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=4)
    manifest = tmp_path / MANIFEST_NAME
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith("prototype_03.txt,")))
    out, band = tmp_path / "out", summary_report(tmp_path / "band.csv", 3e4, 4e4)
    argv = {
        "calibrate": ["calibrate", str(tmp_path), "--report", str(out)],
        "learn": ["learn", str(tmp_path), "--db", str(out), "--calibration", str(band)],
    }[command]
    assert cli.main(argv) == 2
    assert "on disk but not in manifest: prototype_03.txt" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "learn"])
def test_truncated_prototype_file_is_a_data_error(tmp_path, capsys, command):
    # a short record would be zero-padded to the others' FFT length without a word
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=4)
    cut = tmp_path / "prototype_03.txt"
    lines = cut.read_text().splitlines(keepends=True)
    cut.write_text("".join(lines[:6001]))  # the header and 6000 of 8192 sample lines
    out, band = tmp_path / "out", summary_report(tmp_path / "band.csv", 3e4, 4e4)
    argv = {
        "calibrate": ["calibrate", str(tmp_path), "--report", str(out)],
        "learn": ["learn", str(tmp_path), "--db", str(out), "--calibration", str(band)],
    }[command]
    assert cli.main(argv) == 2
    first = tmp_path / "prototype_00.txt"
    assert f"error: {cut}: 6000 samples, but {first} has 8192" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "learn"])
def test_prototype_file_at_another_rate_is_a_data_error(tmp_path, capsys, command):
    # each record's rate must be the first one's, as its length must
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=4)
    slow = tmp_path / "prototype_03.txt"
    write_waveform_pair(slow, *(Waveform(w.samples, FS / 2) for w in read_waveform_pair(slow)))
    out, band = tmp_path / "out", summary_report(tmp_path / "band.csv", 3e4, 4e4)
    argv = {
        "calibrate": ["calibrate", str(tmp_path), "--report", str(out)],
        "learn": ["learn", str(tmp_path), "--db", str(out), "--calibration", str(band)],
    }[command]
    assert cli.main(argv) == 2
    first = tmp_path / "prototype_00.txt"
    assert (f"error: {slow}: sample rate 500000.0 Hz, but {first} has 1000000.0 Hz"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "learn"])
def test_prototype_records_are_dropped_before_the_next_is_read(tmp_path, monkeypatch, command):
    build_dataset(tmp_path, specimen={"noise_snr_db": None}, seed=4)
    read, alive, refs = pipeline.read_waveform_pair, [], []

    def reading(path):
        alive.append(sum(ref() is not None for ref in refs))
        pair = read(path)
        refs.extend(weakref.ref(w) for w in pair)
        return pair

    monkeypatch.setattr(pipeline, "read_waveform_pair", reading)
    argv = {
        "calibrate": ["calibrate", str(tmp_path), "--report", str(tmp_path / "r.csv")],
        "learn": ["learn", str(tmp_path), "--db", str(tmp_path / "p.db"), "--calibration",
                  str(summary_report(tmp_path / "band.csv", 3e4, 4e4))],
    }[command]
    assert cli.main(argv) == 0
    assert alive == [0] * 6


def test_calibrate_warns_on_flat_rmse_surface(tmp_path, capsys):
    build_dataset(
        tmp_path,
        specimen={
            "noise_snr_db": None,
            "velocity_points_hz_km_s": [[0.0, 1.7], [500_000.0, 1.7]],
        },
        seed=10,
    )
    code = cli.main(
        [
            "calibrate",
            str(tmp_path),
            "--report",
            str(tmp_path / "r.csv"),
            "--f-start",
            "30000",
            "--f-stop",
            "50000",
            "--step",
            "5000",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "rmse surface is flat" in captured.err
    assert (tmp_path / "r.csv").exists()


def test_calibrate_prints_the_outliers_it_excludes(paper_seed0, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(paper_seed0, data)
    ch1, ch2 = read_waveform_pair(data / "prototype_00.txt")
    write_waveform_pair(data / "prototype_00.txt", ch2, ch1)  # its delay changes sign
    report = tmp_path / "cal.csv"
    assert cli.main(["calibrate", str(data), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("best band: 35000-45000 Hz ")
    assert "\noutliers excluded from the fit: [0]\n" in out
    assert "# outlier_indices=0" in report.read_text().splitlines()


_WINDOW_LEFT = ("error: band 45000-55000 Hz: the fitted delay at 900.0 mm is -0.0012046 s, "
                "outside the delay window of 1000 samples\n")


@pytest.mark.parametrize("window, err", [("0.001", _WINDOW_LEFT), ("0.0013", "")],
                         ids=["1ms", "1.3ms"])
def test_calibrate_refuses_a_window_its_fitted_line_leaves(paper_seed0, tmp_path, capsys,
                                                           window, err):
    # at 1 ms the best band's line puts the ends at 1.2046 ms, outside the window: calibrate
    # used to exit 0 there and learn and evaluate went on to a mean error of 272 mm
    report = tmp_path / "cal.csv"
    argv = ["calibrate", str(paper_seed0), "--report", str(report), "--max-delay-s", window]
    assert cli.main(argv) == (2 if err else 0)
    captured = capsys.readouterr()
    if err:
        assert captured.err == err
        assert not report.exists()
    else:
        assert "error" not in captured.err
        assert report.exists()


# -------------------------------------------------------------------- learn


def _shifted_pair(shift, n=4096, fs=FS):
    t = np.arange(n)
    base = np.exp(-0.5 * ((t - 1200) / 60.0) ** 2) * np.sin(2 * np.pi * 0.04 * t)

    def move(x, k):
        if k <= 0:
            return x
        return np.concatenate([np.zeros(k), x[:-k]])

    return (
        Waveform(move(base, max(shift, 0)), fs),
        Waveform(move(base, max(-shift, 0)), fs),
    )


def write_synthetic_prototypes(out_dir, shifts, positions):
    """Pairs with exact sample shifts, bypassing the simulator for full control."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [
        "# sensor_1_mm=0.0 sensor_2_mm=2400.0",
        "file,role,position_mm,kind",
    ]
    for i, (shift, z) in enumerate(zip(shifts, positions)):
        name = f"prototype_{i:02d}.txt"
        ch1, ch2 = _shifted_pair(shift)
        write_waveform_pair(out_dir / name, ch1, ch2)
        lines.append(f"{name},prototype,{z},discrete-burst")
    (out_dir / MANIFEST_NAME).write_text("\n".join(lines) + "\n")


def test_learn_builds_database_with_expected_sigmas(learned):
    _, _, report, db = learned
    pset = load_prototypes(db)
    assert len(pset) == 12
    assert pset.given_dim == 1 and pset.hidden_dim == 1
    # 200 mm pitch at 1.7 km/s: sigma = half of the 235.3 us delay pitch
    assert np.allclose(pset.sigmas, 117.647e-6, rtol=1e-3)
    # the header records the estimator that locate and evaluate reuse
    spec, _ = read_calibration_summary(report)
    assert db.read_text().splitlines()[0] == (
        f"# given_dim=1 hidden_dim=1 f_low_hz={spec.f_low!r} f_high_hz={spec.f_high!r} "
        "order=4 max_delay_s=0.0025 sample_rate_hz=1000000.0"
    )


def _log_pair_reads(monkeypatch) -> Counter:
    """Count, by file name, the read_waveform_pair calls the CLI makes."""
    reads = Counter()

    def logging_read(path):
        reads[Path(path).name] += 1
        return read_waveform_pair(path)

    for module in (cli, pipeline):
        monkeypatch.setattr(module, "read_waveform_pair", logging_read)
    return reads


def _band_report(tmp_path, **fields):
    """The 35-45 kHz report the synthetic prototypes are learned with; a 100-sample window."""
    return summary_report(tmp_path / "band.csv", **{"max_delay_s": 1e-4, **fields})


def _learn(tmp_path, report):
    return cli.main(["learn", str(tmp_path), "--db", str(tmp_path / "p.db"),
                     "--calibration", str(report)])


def test_learn_reads_each_prototype_once(tmp_path, monkeypatch):
    # calibrate too; only the first file's header line is read for the rate
    write_synthetic_prototypes(tmp_path, shifts=[-20, 0, 20], positions=[100.0, 200.0, 300.0])
    cal_args = ["--f-start", "35000", "--f-stop", "45000", "--max-delay-s", "1e-4"]
    band = _band_report(tmp_path)
    commands = (
        ["learn", str(tmp_path), "--db", str(tmp_path / "p.db"), "--calibration", str(band)],
        ["calibrate", str(tmp_path), "--report", str(tmp_path / "cal.csv"), *cal_args],
    )
    for argv in commands:
        reads = _log_pair_reads(monkeypatch)
        assert cli.main(argv) == 0
        assert reads == {f"prototype_{i:02d}.txt": 1 for i in range(3)}, (argv[0], reads)
    assert len(load_prototypes(tmp_path / "p.db")) == 3


def test_only_calibrate_and_learn_read_a_dataset_rate(learned, tmp_path, monkeypatch):
    # evaluate checks each test file's own rate as it locates it, so no header is read ahead
    _, data, report, db = learned
    calls = []

    def counting_read(fh):
        calls.append(Path(fh.name).name)
        return read_sample_rate(fh)

    monkeypatch.setattr(pipeline, "read_sample_rate", counting_read)
    commands = {
        "calibrate": ["calibrate", str(data), "--report", str(tmp_path / "cal.csv"),
                      "--f-start", "35000", "--f-stop", "45000"],
        "learn": ["learn", str(data), "--db", str(tmp_path / "p.db"),
                  "--calibration", str(report)],
        "evaluate": ["evaluate", str(db), str(data), "--report", str(tmp_path / "e.csv")],
    }
    for command, argv in commands.items():
        calls.clear()
        assert cli.main(argv) == 0
        expected = [] if command == "evaluate" else ["prototype_00.txt"]
        assert calls == expected, command


def test_learn_skips_out_of_window_prototypes(tmp_path, capsys):
    # shifts of +-300 samples sit outside a 100-sample window (and align with the
    # 25-sample carrier period so the windowed peak lands exactly on the boundary)
    write_synthetic_prototypes(
        tmp_path, shifts=[-300, -20, 20, 300], positions=[100.0, 200.0, 300.0, 400.0]
    )
    code = _learn(tmp_path, _band_report(tmp_path))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.count("skipped") == 2
    assert len(load_prototypes(tmp_path / "p.db")) == 2


def test_learn_lists_silent_and_out_of_window_prototypes_in_manifest_order(tmp_path):
    # prototype_01 peaks past a 100-sample window; prototype_03, after it, is silent
    write_synthetic_prototypes(
        tmp_path, shifts=[-20, 300, 20, 0, 40], positions=[100.0, 200.0, 300.0, 400.0, 500.0]
    )
    silent = Waveform(np.zeros(4096), FS)
    write_waveform_pair(tmp_path / "prototype_03.txt", silent, silent)
    filt = BandpassFilter(FilterSpec(35_000.0, 45_000.0), FS, max_delay_s=1e-4)
    pset, skipped = pipeline.learn_prototypes(tmp_path, filt)
    assert skipped == [
        (
            "prototype_01.txt",
            "delay window exceeded: correlation peak at boundary lag +100; increase max_lag",
        ),
        ("prototype_03.txt", "no signal: correlation function is identically zero"),
    ]
    assert pset.hidden[:, 0].tolist() == [100.0, 300.0, 500.0]


def test_filtered_delay_is_the_located_delay_bit_for_bit(tmp_path):
    # both take the delay window from the filter, 100 samples here
    write_synthetic_prototypes(tmp_path, shifts=[-40, 0, 40], positions=[100.0, 200.0, 300.0])
    filt = BandpassFilter(FilterSpec(35_000.0, 45_000.0), FS, max_delay_s=1e-4)
    pset, _ = pipeline.learn_prototypes(tmp_path, filt)
    ch1, ch2 = _shifted_pair(37)
    delay = filtered_delay(filt, ch1, ch2).delay
    assert delay.hex() == pipeline.locate_pair(pset, filt, ch1, ch2).delay_s.hex()
    assert abs(abs(delay) * FS - 37.0) < 0.5
    with pytest.raises(ValueError, match="boundary lag [+-]100;"):
        filtered_delay(filt, *_shifted_pair(300))


def test_learn_fails_when_too_few_survive(tmp_path, capsys):
    write_synthetic_prototypes(
        tmp_path, shifts=[-300, 300, 325], positions=[100.0, 200.0, 300.0]
    )
    assert _learn(tmp_path, _band_report(tmp_path)) == 2
    assert "survived" in capsys.readouterr().err


def test_learn_rejects_duplicate_positions(tmp_path, capsys):
    write_synthetic_prototypes(
        tmp_path, shifts=[-40, -40, 40], positions=[100.0, 100.0, 300.0]
    )
    assert _learn(tmp_path, summary_report(tmp_path / "band.csv")) == 2
    assert capsys.readouterr().err.endswith(
        "duplicate prototype positions [100.0] mm: delays at one position differ only by "
        "noise, which collapses their half-nearest-neighbor smoothing widths\n"
    )


def test_learn_requires_filter_flags(learned, capsys):
    _, data, _, _ = learned
    assert cli.main(["learn", str(data), "--db", "/tmp/unused.db"]) == 1
    assert "the following arguments are required: --calibration" in capsys.readouterr().err


def test_learn_takes_the_delay_window_from_calibrate(learned, tmp_path):
    _, data, _, _ = learned
    report, db = tmp_path / "cal.csv", tmp_path / "p.db"
    grid = ["--f-start", "30000", "--f-stop", "50000", "--step", "5000"]
    assert cli.main(["calibrate", str(data), "--report", str(report), *grid,
                     "--max-delay-s", "0.0015"]) == 0
    assert "# max_delay_s=0.0015" in report.read_text().splitlines()
    assert cli.main(["learn", str(data), "--db", str(db), "--calibration", str(report)]) == 0
    assert pipeline.load_database(db)[1].max_delay_s == 0.0015


@pytest.mark.parametrize("field", ["max_delay_s", "sample_rate_hz"])
@pytest.mark.parametrize("command", ["learn", "locate", "evaluate"])
def test_a_report_without_the_delay_window_or_rate_is_refused(learned, tmp_path, capsys,
                                                             command, field):
    # every report written before calibrate recorded them
    _, data, report, db = learned
    old = tmp_path / "old.csv"
    old.write_text("".join(line for line in report.read_text().splitlines(keepends=True)
                           if not line.startswith(f"# {field}=")))
    out = tmp_path / "out"
    argv = {
        "learn": ["learn", str(data), "--db", str(out)],
        "locate": ["locate", str(db), str(data / "test_02.txt"), "--out", str(out)],
        "evaluate": ["evaluate", str(db), str(data), "--report", str(out)],
    }[command]
    assert cli.main([*argv, "--calibration", str(old)]) == 2
    err = capsys.readouterr().err
    assert f"error: {old}: {field!r} is missing; calibrate again" in err
    assert not out.exists()


def test_learn_refuses_a_dataset_at_another_rate_than_the_report(tmp_path, capsys):
    write_synthetic_prototypes(tmp_path, shifts=[-20, 0, 20], positions=[100.0, 200.0, 300.0])
    band = _band_report(tmp_path, sample_rate=5e5)
    assert _learn(tmp_path, band) == 2
    assert f"sample rate 1000000.0 Hz differs from {band}'s 500000.0 Hz" in capsys.readouterr().err
    assert not (tmp_path / "p.db").exists()


def test_database_file_round_trips_via_cli_reload(learned, tmp_path):
    _, _, _, db = learned
    pset = load_prototypes(db)
    from aeloc.grnn import save_prototypes

    copy = tmp_path / "copy.db"
    save_prototypes(copy, pset)
    assert copy.read_bytes() == db.read_bytes()


# ------------------------------------------------------------------- locate


def test_locate_interior_prototype_position(learned, capsys):
    _, data, report, db = learned
    code = cli.main(
        ["locate", str(db), str(data / "test_02.txt"), "--calibration", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    position = float(out.split("position")[1].split("mm")[0])
    assert abs(position - 1700.0) <= 5.0  # truth: interior prototype site


def test_locate_midpoint_lands_between_prototypes(learned, capsys):
    _, data, report, db = learned
    code = cli.main(
        ["locate", str(db), str(data / "test_01.txt"), "--calibration", str(report)]
    )
    assert code == 0
    position = float(capsys.readouterr().out.split("position")[1].split("mm")[0])
    assert 900.0 <= position <= 1100.0  # truth: 1000 mm midpoint


def test_locate_out_of_span_source_is_flagged(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # simulator warns about the out-of-span source
        build_dataset(
            tmp_path,
            specimen={"noise_snr_db": None},
            prototypes=[900.0 + 200.0 * k for k in range(12)],
            tests=[700.0],
            test_kind="discrete-burst",
            seed=12,
        )
    db = tmp_path / "p.db"
    assert _learn(tmp_path, summary_report(tmp_path / "band.csv")) == 0
    assert cli.main(["locate", str(db), str(tmp_path / "test_00.txt")]) == 0
    assert "extrapolated True" in capsys.readouterr().out


def test_locate_continues_past_unreadable_file(learned, tmp_path, capsys):
    _, data, report, db = learned
    out_file = tmp_path / "locations.csv"
    code = cli.main(
        [
            "locate",
            str(db),
            str(tmp_path / "missing.txt"),
            str(data / "test_02.txt"),
            "--calibration",
            str(report),
            "--out",
            str(out_file),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "missing.txt" in captured.err
    assert "test_02.txt: position" in captured.out
    rows = out_file.read_text().splitlines()
    assert rows[0].startswith("file,")
    assert "failed" in rows[1] and rows[2].endswith("ok")


def test_locate_boundary_delay_flagged_without_estimate(tmp_path, capsys):
    # the database is learned with a 100-sample window, which locate then searches
    write_synthetic_prototypes(tmp_path, shifts=[-20, 0, 20], positions=[100.0, 200.0, 300.0])
    db = tmp_path / "p.db"
    assert _learn(tmp_path, _band_report(tmp_path)) == 0
    ch1, ch2 = _shifted_pair(300)  # well past the window
    pair = tmp_path / "far_source.txt"
    write_waveform_pair(pair, ch1, ch2)
    out_file = tmp_path / "locations.csv"
    code = cli.main(["locate", str(db), str(pair), "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert "delay window exceeded" in captured.err
    assert "failed" in out_file.read_text().splitlines()[1]


def test_locate_computes_the_band_response_once_for_many_files(learned, monkeypatch):
    _, data, report, db = learned
    calls = []
    response = BandpassFilter.power_response

    def counted(self, omega):
        calls.append(len(omega))
        return response(self, omega)

    monkeypatch.setattr(BandpassFilter, "power_response", counted)
    files = [str(data / f"test_{i:02d}.txt") for i in range(3)]
    assert cli.main(["locate", str(db), *files, "--calibration", str(report)]) == 0
    assert len(calls) == 1  # one filter per call, whose |H|² is kept per FFT length


def test_location_report_quotes_a_failure_message_with_commas(learned, tmp_path):
    _, data, _, db = learned
    lines = (data / "test_01.txt").read_text().splitlines()
    lines[10] = "0.1,0.2,0.5"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "loc.csv"
    argv = ["locate", str(db), str(data / "test_02.txt"), str(bad), "--out", str(out)]
    assert cli.main(argv) == 2
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert rows[2][5].startswith(f"failed: {bad}:11: expected one 'ch1,ch2' pair")
    # rows without a comma in a field are written unquoted
    assert out.read_text().splitlines()[:2] == [",".join(row) for row in rows[:2]]


@pytest.mark.parametrize(
    "command, case",
    [
        *[(command, case)
          for case in ("report-band", "report-order", "report-window", "report-rate",
                       "unlearned-database")
          for command in ("locate", "evaluate")],
        ("locate", "pair-rate"),
        ("evaluate", "dataset-rate"),
    ],
)
def test_locate_and_evaluate_refuse_what_the_database_was_not_learned_with(
    learned, tmp_path, capsys, command, case
):
    _, data, report, db = learned
    out = tmp_path / "out.csv"
    dataset, extra = data, []
    learned_with, _ = read_calibration_report(report)
    spec = learned_with.spec
    edits = {"report-band": {"spec": replace(spec, f_low=31234.0)},
             "report-order": {"spec": replace(spec, order=6)},
             "report-window": {"max_delay_s": 0.0015}, "report-rate": {"sample_rate": 5e5}}
    if case in edits:
        other = write_summary(tmp_path / "other.csv", replace(learned_with, **edits[case]))
        extra = ["--calibration", str(other)]
    elif case == "unlearned-database":
        bare = tmp_path / "bare.db"
        lines = db.read_text().splitlines(keepends=True)
        bare.write_text("".join(["# given_dim=1 hidden_dim=1\n", *lines[1:]]))
        db = bare
    elif case == "dataset-rate":  # a consistent dataset recorded at another rate
        dataset = tmp_path / "slow"
        shutil.copytree(data, dataset)
        for path in [dataset / MANIFEST_NAME, *dataset.glob("test_*.txt")]:
            text = path.read_text()
            path.write_text(text.replace("sample_rate_hz=1000000", "sample_rate_hz=500000", 1))
    if command == "locate":
        pair = data / "test_02.txt"
        if case == "pair-rate":
            pair = tmp_path / "slow.txt"
            write_waveform_pair(pair, *_shifted_pair(0, fs=FS / 2))
        argv = ["locate", str(db), str(pair), "--out", str(out)]
    else:
        argv = ["evaluate", str(db), str(dataset), "--report", str(out)]
    assert cli.main(argv + extra) == 2
    assert str(db) in capsys.readouterr().err
    if case == "pair-rate":  # a per-file failure: the other files would still be located
        assert "failed" in out.read_text().splitlines()[1]
    else:
        assert not out.exists()


# per estimator field, another value: as a report's summary line writes it, and as the
# refusal prints the value read back
_OTHER_ESTIMATOR = {"f_low_hz": ("31234", "31234.0"), "f_high_hz": ("46000", "46000.0"),
                    "order": ("6", "6"), "max_delay_s": ("0.002", "0.002"),
                    "sample_rate_hz": ("500000", "500000.0")}


@pytest.mark.parametrize("command", ["locate", "evaluate"])
@pytest.mark.parametrize("key", list(ESTIMATOR_FIELDS))
def test_a_report_differing_in_one_estimator_field_is_refused_by_name(
    learned, tmp_path, capsys, command, key
):
    _, data, report, db = learned
    written, theirs = _OTHER_ESTIMATOR[key]
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(
        f"# {key}={written}\n" if line.startswith(f"# {key}=") else line
        for line in report.read_text().splitlines(keepends=True)
    ))
    ours = read_calibration_report(report)[0].fields()[key]
    out = tmp_path / "out.csv"
    if command == "locate":
        argv = ["locate", str(db), str(data / "test_02.txt"), "--out", str(out)]
    else:
        argv = ["evaluate", str(db), str(data), "--report", str(out)]
    assert cli.main(argv + ["--calibration", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}: {key}={theirs}, but {db} has {ours}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value", [("max_delay_s", "0.0"), ("max_delay_s", "-0.001"),
                     ("sample_rate_hz", "-1000000.0")],
)
def test_a_database_with_a_bad_estimator_field_is_refused_before_any_pair_is_read(
    learned, tmp_path, capsys, field, value
):
    # a zero window used to fail every located file in turn, blaming each file
    _, data, _, db = learned
    bad = tmp_path / "bad.db"
    first, rest = db.read_text().split("\n", 1)
    head = " ".join(f"{field}={value}" if token.startswith(f"{field}=") else token
                    for token in first.split())
    bad.write_text(head + "\n" + rest)
    files = [str(data / "test_01.txt"), str(data / "test_02.txt")]
    assert cli.main(["locate", str(bad), *files]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:1: {field} must be positive, got {value!r}\n"


@pytest.mark.parametrize("command", ["locate", "evaluate"])
def test_a_database_not_mapping_a_delay_to_a_position_is_refused_once(learned, tmp_path,
                                                                      capsys, command):
    # it used to fail every located file in turn, blaming each file
    _, data, _, db = learned
    bad = tmp_path / "bad.db"
    first, *rows = db.read_text().splitlines()
    bad.write_text("\n".join([first.replace("hidden_dim=1", "hidden_dim=2"),
                              *(row.replace(",", ",0.0,", 1) for row in rows)]) + "\n")
    out = tmp_path / "out.csv"
    argv = {"locate": ["locate", str(bad), str(data / "test_01.txt"), str(data / "test_02.txt")],
            "evaluate": ["evaluate", str(bad), str(data)]}[command]
    assert cli.main([*argv, "--" + ("out" if command == "locate" else "report"), str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}:1: the location pipeline expects a (delay -> position) database\n"
    )
    assert not out.exists()


def test_evaluate_names_the_count_and_first_failure_when_every_test_fails(learned, tmp_path,
                                                                          capsys):
    _, data, _, db = learned
    silent = tmp_path / "silent"
    shutil.copytree(data, silent)
    tests = sorted(silent.glob("test_*.txt"))
    for path in tests:
        ch1, _ = read_waveform_pair(path)
        zero = Waveform(np.zeros(len(ch1)), ch1.sample_rate)
        write_waveform_pair(path, zero, zero)
    report = tmp_path / "eval.csv"
    assert cli.main(["evaluate", str(db), str(silent), "--report", str(report)]) == 2
    assert capsys.readouterr().err == (
        f"error: no test source could be located: {len(tests)} of {len(tests)} failed; "
        "first: test_00.txt: no signal: correlation function is identically zero\n"
    )
    assert not report.exists()


def test_learn_names_the_report_line_of_a_band_above_nyquist(tmp_path, capsys):
    write_synthetic_prototypes(tmp_path, shifts=[-20, 0, 20], positions=[100.0, 200.0, 300.0])
    report = _band_report(tmp_path)
    lines = report.read_text().splitlines()
    ln = next(i for i, line in enumerate(lines, start=1) if line.startswith("# sample_rate_hz="))
    lines[ln - 1] = "# sample_rate_hz=50000.0"
    report.write_text("\n".join(lines) + "\n")
    assert _learn(tmp_path, report) == 2
    assert capsys.readouterr().err == (
        f"error: {report}:{ln}: f_high=45000.0 Hz is not below the Nyquist frequency 25000.0 Hz\n"
    )


def _swap_channels(ch1, ch2):
    return ch2, ch1


def _clip(w):
    """``w`` clipped at 10 % of its peak."""
    level = 0.1 * np.abs(w.samples).max()
    return Waveform(np.clip(w.samples, -level, level), w.sample_rate)


# The fault matrix's benign rows: a fault in a located pair file that locate answers with
# exit 0, and the position it must give instead of the fault-free one z, from the sensors
# at s1 and s2 (mm).  The top weight stays the fault-free one.
BENIGN_FAULTS = {
    # the delay's sign is the only evidence of the channel order: a swap negates the delay
    # and mirrors the position about the sensors' midpoint
    "swapped-channels": (_swap_channels, lambda z, s1, s2: s1 + s2 - z),
    # clipping keeps the zero crossings that the correlation peak rests on
    "clipped-ch1": (lambda ch1, ch2: (_clip(ch1), ch2), lambda z, s1, s2: z),
    "clipped-ch2": (lambda ch1, ch2: (ch1, _clip(ch2)), lambda z, s1, s2: z),
}


@pytest.mark.parametrize("fault", BENIGN_FAULTS)
def test_fault_matrix_benign_rows(learned, tmp_path, fault):
    _, data, _, db = learned
    edit, expected = BENIGN_FAULTS[fault]
    intact = data / "test_02.txt"
    faulty = tmp_path / "faulty.txt"
    write_waveform_pair(faulty, *edit(*read_waveform_pair(intact)))
    out = tmp_path / "loc.csv"
    assert cli.main(["locate", str(db), str(intact), str(faulty), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        clean, got = csv.DictReader(fh)
    meta, _ = simulator.read_manifest(data / MANIFEST_NAME)
    z = expected(float(clean["position_mm"]), meta["sensor_1_mm"], meta["sensor_2_mm"])
    assert float(got["position_mm"]) == pytest.approx(z, abs=0.05)
    assert float(got["top_weight"]) == pytest.approx(float(clean["top_weight"]), abs=1e-3)


def _truncate(w, n=999):
    return Waveform(w.samples[:n], w.sample_rate)


# The fault matrix's refused rows: a fault in a located pair file that locate refuses, and
# how that file's status in the location report starts.  The intact file beside it is
# still located, and locate exits 2.
REFUSED_FAULTS = {
    "zero-channel": (lambda ch1, ch2: (ch1, Waveform(np.zeros(len(ch2)), ch2.sample_rate)),
                     "failed: no signal"),
    # shorter than the delay window; a cut to 4000 samples still locates, 0.06 mm off
    "truncated": (lambda ch1, ch2: (_truncate(ch1), _truncate(ch2)),
                  "failed: max_lag=2500 must be smaller than every record "
                  "(pair 0: lengths 999 and 999)"),
    # the status goes on to name the database and its rate
    "other-rate": (lambda ch1, ch2: (Waveform(ch1.samples, 500_000.0),
                                     Waveform(ch2.samples, 500_000.0)),
                   "failed: sample rate 500000.0 Hz differs from "),
}


@pytest.mark.parametrize("fault", REFUSED_FAULTS)
def test_fault_matrix_refused_rows(learned, tmp_path, fault):
    _, data, _, db = learned
    edit, status = REFUSED_FAULTS[fault]
    intact = data / "test_02.txt"
    faulty = tmp_path / "faulty.txt"
    write_waveform_pair(faulty, *edit(*read_waveform_pair(intact)))
    out = tmp_path / "loc.csv"
    assert cli.main(["locate", str(db), str(intact), str(faulty), "--out", str(out)]) == 2
    with open(out, newline="") as fh:
        clean, got = csv.DictReader(fh)
    assert clean["status"] == "ok"
    assert got["status"].startswith(status) and got["position_mm"] == ""


_UNEQUAL_LENGTH = ("error: {data}/prototype_05.txt: 999 samples, but {data}/prototype_00.txt "
                   "has 16384; a dataset's prototype records must share one length and rate\n")

# The fault matrix's prototype rows: a fault in prototype_05.txt of the seed-0 dataset, and
# what calibrate and learn answer, each as (exit code, stdout lines, stderr); learn takes a
# 35-45 kHz report of its own, so it runs where calibrate refuses.  A zero channel leaves
# the band and velocity unchanged, and both name the file they skip.
_SKIPPED_ZERO = ("warning: skipped prototype_05.txt: no signal: correlation function is "
                 "identically zero\n")
PROTOTYPE_FAULTS = {
    "zero-ch2": (
        lambda ch1, ch2: (ch1, Waveform(np.zeros(len(ch2)), ch2.sample_rate)),
        (0, ["best band: 35000-45000 Hz (rmse 0.003 mm)", "velocity: 1.7000 km/s"],
         _SKIPPED_ZERO),
        (0, ["stored 11 prototypes in {db}"], _SKIPPED_ZERO),
    ),
    "truncated": (
        lambda ch1, ch2: (_truncate(ch1), _truncate(ch2)),
        (2, [], _UNEQUAL_LENGTH),
        (2, [], _UNEQUAL_LENGTH),
    ),
}


@pytest.mark.parametrize("fault", PROTOTYPE_FAULTS)
def test_fault_matrix_prototype_rows(paper_seed0, tmp_path, capsys, fault):
    data = tmp_path / "data"
    shutil.copytree(paper_seed0, data)
    edit, calibrate_answer, learn_answer = PROTOTYPE_FAULTS[fault]
    path = data / "prototype_05.txt"
    write_waveform_pair(path, *edit(*read_waveform_pair(path)))
    report, db, svg = tmp_path / "cal.csv", tmp_path / "p.db", tmp_path / "cal.svg"
    runs = (
        (["calibrate", str(data), "--report", str(report), "--svg", str(svg)], calibrate_answer),
        (["learn", str(data), "--db", str(db), "--calibration",
          str(summary_report(tmp_path / "band.csv"))], learn_answer),
    )
    for argv, (code, out_lines, err) in runs:
        assert cli.main(argv) == code, argv[0]
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert all(line.format(db=db) in lines for line in out_lines), (argv[0], lines)
        assert captured.err == err.format(data=data), argv[0]
    # the plot marks each prototype whose delay was estimated, and no skipped one at nan
    if calibrate_answer[0] == 0:
        plot = svg.read_text()
        assert "nan" not in plot
        assert plot.count("<path") == 12 - calibrate_answer[2].count("skipped")
    else:
        assert not svg.exists()


@pytest.mark.parametrize("command", ["locate", "evaluate"])
def test_a_matching_calibration_report_changes_no_output(learned, tmp_path, capsys, command):
    _, data, report, db = learned
    outputs = []
    for extra in ([], ["--calibration", str(report)]):
        out = tmp_path / f"out{len(extra)}.csv"
        if command == "locate":
            argv = ["locate", str(db), str(data / "test_01.txt"), "--out", str(out)]
        else:
            argv = ["evaluate", str(db), str(data), "--report", str(out)]
        assert cli.main(argv + extra) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), ""), out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_learn_writes_the_report_estimator_into_the_database_header(tmp_path, capsys):
    write_synthetic_prototypes(tmp_path, shifts=[-20, 0, 20], positions=[100.0, 200.0, 300.0])
    db = tmp_path / "p.db"
    band = _band_report(tmp_path, order=6)
    assert _learn(tmp_path, band) == 0
    assert db.read_text().splitlines()[0] == (
        "# given_dim=1 hidden_dim=1 f_low_hz=35000.0 f_high_hz=45000.0 order=6 "
        "max_delay_s=0.0001 sample_rate_hz=1000000.0"
    )
    assert pipeline.load_database(db)[1].spec.order == 6
    # locate reads the order back: a report naming the default order 4 is refused
    report = _band_report(tmp_path, order=4)
    pair = tmp_path / "prototype_01.txt"
    assert cli.main(["locate", str(db), str(pair), "--calibration", str(report)]) == 2
    assert cli.main(["locate", str(db), str(pair)]) == 0


# ----------------------------------------------------------------- evaluate


def test_evaluate_names_a_silent_test_file_and_locates_the_rest(paper_seed0, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(paper_seed0, data)
    ch1, _ = read_waveform_pair(data / "test_05.txt")
    silence = Waveform(np.zeros(len(ch1)), ch1.sample_rate)
    write_waveform_pair(data / "test_05.txt", silence, silence)
    report, db, out = tmp_path / "cal.csv", tmp_path / "p.db", tmp_path / "eval.csv"
    grid = ["--f-start", "30000", "--f-stop", "50000", "--step", "5000"]
    assert cli.main(["calibrate", str(data), "--report", str(report), *grid]) == 0
    assert cli.main(["learn", str(data), "--db", str(db), "--calibration", str(report)]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", str(db), str(data), "--report", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: could not locate test_05.txt: no signal: ")
    assert captured.out.startswith("located 22 test sources; ")
    lines = out.read_text().splitlines()
    assert "# failed_files=test_05.txt" in lines
    located = [line.split(",")[0] for line in lines if line.startswith("test_")]
    assert located == [f"test_{i:02d}.txt" for i in range(23) if i != 5]


def test_evaluate_report_is_self_consistent(learned, tmp_path):
    _, data, report, db = learned
    out = tmp_path / "eval.csv"
    svg = tmp_path / "eval.svg"
    code = cli.main(
        [
            "evaluate",
            str(db),
            str(data),
            "--report",
            str(out),
            "--svg",
            str(svg),
            "--calibration",
            str(report),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    data_rows = [l for l in lines if l and not l.startswith("#") and not l.startswith("file,")]
    errors = [float(l.split(",")[3]) for l in data_rows]
    summary = {
        l.lstrip("# ").split("=")[0]: l.split("=")[1] for l in lines if l.startswith("#")
    }
    assert float(summary["mean_error_mm"]) == pytest.approx(np.mean(errors), rel=1e-12)
    assert float(summary["max_error_mm"]) == pytest.approx(np.max(errors), rel=1e-12)
    assert float(summary["sensor_separation_mm"]) == 2400.0
    relative = float(summary["relative_error"])
    assert relative == pytest.approx(np.mean(errors) / 2400.0, rel=1e-12)
    assert svg.read_text().startswith("<svg")


def test_truncated_test_file_is_named_in_failed(learned, tmp_path):
    import shutil

    _, data, report, db = learned
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    lines = (broken / "test_01.txt").read_text().splitlines()
    cut = lines[1000].split(",")[0]  # the line ends after its first channel
    (broken / "test_01.txt").write_text("\n".join(lines[:1000] + [cut]) + "\n")
    spec, _ = read_calibration_summary(report)
    filt = design_bandpass(spec, FS)
    pset = load_prototypes(db)
    intact = pipeline.evaluate_dataset(pset, filt, data)
    got = pipeline.evaluate_dataset(pset, filt, broken)
    assert [name for name, _ in got.failed] == ["test_01.txt"]
    assert got.failed[0][1].startswith(f"{broken / 'test_01.txt'}:1001: ")
    assert [(r.file, r.estimate.position_mm, r.error_mm) for r in got.rows] == [
        (r.file, r.estimate.position_mm, r.error_mm)
        for r in intact.rows if r.file != "test_01.txt"
    ]


def test_each_evaluation_row_holds_the_estimate_locate_pair_makes(learned):
    _, data, _, db = learned
    pset, filt = pipeline.load_database(db)
    report = pipeline.evaluate_dataset(pset, filt, data)
    assert len(report.rows) == 5
    for row in report.rows:
        # a frozen dataclass compares its floats exactly, so the delay matches to the last bit
        located = pipeline.locate_pair(pset, filt, *read_waveform_pair(data / row.file))
        assert row.estimate == located
        assert row.error_mm == abs(row.estimate.position_mm - row.true_mm)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=40))
def test_the_outlier_trim_never_flags_the_smallest_error(errors):
    # the smallest error sits at or below the median, so the trimmed mean always has an
    # error to average
    errors = np.array(errors)
    assert not pipeline._mad_outliers(errors)[np.argmin(errors)]


def _stage_argv(command, learned, dataset, out):
    """``command`` run on ``dataset`` with the learned chain's report and database, writing
    its report or database to ``out``."""
    _, _, report, db = learned
    return {
        "calibrate": ["calibrate", str(dataset), "--report", str(out)],
        "learn": ["learn", str(dataset), "--db", str(out), "--calibration", str(report)],
        "evaluate": ["evaluate", str(db), str(dataset), "--report", str(out),
                     "--calibration", str(report)],
    }[command]


# calibrate and learn used to accept such a manifest; only evaluate refused it
@pytest.mark.parametrize("command", ["calibrate", "learn", "evaluate"])
def test_each_stage_refuses_swapped_manifest_sensors(learned, tmp_path, capsys, command):
    _, data, report, db = learned
    swapped = tmp_path / "swapped"
    shutil.copytree(data, swapped)
    manifest = swapped / MANIFEST_NAME
    text = manifest.read_text()
    assert "sensor_1_mm=800.0 sensor_2_mm=3200.0" in text
    manifest.write_text(text.replace("sensor_1_mm=800.0 sensor_2_mm=3200.0",
                                     "sensor_1_mm=3200.0 sensor_2_mm=800.0"))
    filt = design_bandpass(read_calibration_summary(report)[0], FS)
    with pytest.raises(ValueError, match=r"manifest\.txt: sensor separation .* = -2400\.0 mm"):
        pipeline.evaluate_dataset(load_prototypes(db), filt, swapped)
    out = tmp_path / "out"
    assert cli.main(_stage_argv(command, learned, swapped, out)) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: sensor separation sensor_2_mm - sensor_1_mm = -2400.0 mm "
        "must be finite and positive\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "learn", "evaluate"])
@pytest.mark.parametrize("key", ["sensor_1_mm", "sensor_2_mm"])
def test_each_stage_names_a_manifest_header_without_sensor_positions(learned, tmp_path, capsys,
                                                                     key, command):
    _, data, _, _ = learned
    bare = tmp_path / "bare"
    shutil.copytree(data, bare)
    manifest = bare / MANIFEST_NAME
    text = manifest.read_text()
    first, rest = text.split("\n", 1)
    kept = [token for token in first.split() if not token.startswith(key + "=")]
    manifest.write_text(" ".join(kept) + "\n" + rest)
    out = tmp_path / "out"
    assert cli.main(_stage_argv(command, learned, bare, out)) == 2
    assert capsys.readouterr().err == f"error: {manifest}: header lacks {key!r}\n"
    assert not out.exists()


def test_evaluate_refuses_a_nan_test_position(learned, tmp_path, capsys):
    import shutil

    _, data, report, db = learned
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    manifest = broken / MANIFEST_NAME
    lines = manifest.read_text().splitlines()
    ln = next(i for i, line in enumerate(lines, start=1) if line.startswith("test_01.txt,"))
    name, role, _, kind = lines[ln - 1].split(",")
    lines[ln - 1] = ",".join([name, role, "nan", kind])
    manifest.write_text("\n".join(lines) + "\n")
    code = cli.main(
        ["evaluate", str(db), str(broken), "--report", str(tmp_path / "r.csv"),
         "--calibration", str(report)]
    )
    assert code == 2
    assert f"error: {manifest}:{ln}: position_mm: number must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_evaluate_noiseless_nondispersive_mean_error_under_5mm(tmp_path, capsys):
    build_dataset(
        tmp_path,
        specimen={
            "noise_snr_db": None,
            "velocity_points_hz_km_s": [[0.0, 1.7], [500_000.0, 1.7]],
        },
        prototypes=[900.0 + 200.0 * k for k in range(12)],
        tests=[900.0 + 100.0 * k for k in range(23)],
        seed=14,
    )
    db = tmp_path / "p.db"
    assert _learn(tmp_path, summary_report(tmp_path / "band.csv")) == 0
    report = tmp_path / "eval.csv"
    code = cli.main(
        ["evaluate", str(db), str(tmp_path), "--report", str(report)]
    )
    assert code == 0
    summary = {
        l.lstrip("# ").split("=")[0]: float(l.split("=")[1])
        for l in report.read_text().splitlines()
        if l.startswith("#") and "files" not in l
    }
    assert summary["mean_error_mm"] < 5.0


# The default chain's figures on seeds 0 and 1: band in Hz, velocity in km/s, and the NW mean
# and max error in mm (measured 2.3477 / 23.9331 and 3.3950 / 25.4310).  The band must stay,
# the velocity within 5e-5 km/s, and neither error may pass its pin, so a change that makes
# location worse fails here well before criterion 5's 60 / 100 mm bounds.  A change that
# moves a figure edits its pin here and quotes the figure before and after; a band rule that
# sees dispersion, for one, would move seed 1 to 35-45 kHz.
ACCURACY_PINS = {
    0: ((35_000.0, 45_000.0), 1.70001, 2.348, 23.934),
    1: ((34_000.0, 44_000.0), 1.69998, 3.396, 25.432),
}


@pytest.mark.parametrize("seed", list(ACCURACY_PINS))
def test_default_chain_is_no_less_accurate_than_its_pins(paper_seed0, tmp_path, seed):
    band, velocity, mean_pin, max_pin = ACCURACY_PINS[seed]
    data = paper_seed0
    if seed != 0:
        data = tmp_path / "data"
        assert cli.main(["simulate", "--out", str(data), "--seed", str(seed)]) == 0
    report, db, out = tmp_path / "cal.csv", tmp_path / "p.db", tmp_path / "eval.csv"
    assert cli.main(["calibrate", str(data), "--report", str(report)]) == 0
    assert cli.main(["learn", str(data), "--db", str(db), "--calibration", str(report)]) == 0
    assert cli.main(["evaluate", str(db), str(data), "--report", str(out)]) == 0
    filt, measured_velocity = read_calibration_report(report)
    assert (filt.spec.f_low, filt.spec.f_high) == band
    assert measured_velocity == pytest.approx(velocity, abs=5e-5)
    summary = dict(l[2:].split("=", 1) for l in out.read_text().splitlines() if l.startswith("# "))
    assert float(summary["mean_error_mm"]) <= mean_pin
    assert float(summary["max_error_mm"]) <= max_pin


def test_evaluate_detects_orphans(learned, tmp_path, capsys):
    import shutil

    _, data, report, db = learned
    broken = tmp_path / "broken"
    shutil.copytree(data, broken)
    (broken / "test_01.txt").unlink()
    stray = broken / "test_99.txt"
    stray.write_text("# sample_rate_hz=1000000\n0.0,0.0\n")
    code = cli.main(
        ["evaluate", str(db), str(broken), "--report", str(tmp_path / "r.csv"),
         "--calibration", str(report)]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "test_01.txt" in err and "test_99.txt" in err


@pytest.mark.parametrize("command", ["learn", "evaluate"])
def test_learn_and_evaluate_read_the_manifest_once(learned, tmp_path, monkeypatch, command):
    _, data, report, db = learned
    read, calls = simulator.read_manifest, []

    def counted(path):
        calls.append(path)
        return read(path)

    for module in (cli, pipeline):  # every module that could read it
        monkeypatch.setattr(module, "read_manifest", counted, raising=False)
    argv = {
        "learn": ["learn", str(data), "--db", str(tmp_path / "p.db")],
        "evaluate": ["evaluate", str(db), str(data), "--report", str(tmp_path / "e.csv")],
    }[command]
    assert cli.main(argv + ["--calibration", str(report)]) == 0
    assert calls == [data / MANIFEST_NAME]


# ------------------------------------------------------- no filter design


def test_pipeline_stages_run_without_designing_a_filter(tmp_path, monkeypatch):
    # every stage reads the band only through its closed-form |H|²
    data = tmp_path / "data"
    build_dataset(
        data, prototypes=[900.0 + 400.0 * k for k in range(6)], tests=[1500.0, 2100.0], seed=4
    )

    def no_design(*args, **kwargs):
        raise AssertionError("scipy.signal.butter called")

    monkeypatch.setattr("scipy.signal.butter", no_design)
    cal, db = tmp_path / "cal.csv", tmp_path / "p.db"
    band = ["--calibration", str(cal)]
    grid = ["--f-start", "30000", "--f-stop", "50000", "--step", "5000"]
    assert cli.main(["calibrate", str(data), "--report", str(cal), *grid]) == 0
    assert cli.main(["learn", str(data), "--db", str(db), *band]) == 0
    assert cli.main(["locate", str(db), str(data / "test_00.txt"), *band]) == 0
    assert cli.main(["evaluate", str(db), str(data), "--report", str(tmp_path / "e.csv"), *band]) == 0


# ------------------------------------------------- refusals a command-line user meets

ROOT = Path(__file__).resolve().parents[1]
_BEYOND_DOUBLES = 10**400


def _simulate(tmp_path, config):
    """simulate from a config file holding ``config``, bytes or an object to dump."""
    path, out = tmp_path / "cfg.json", tmp_path / "data"
    path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    return ["simulate", "--config", str(path), "--out", str(out)], [out]


def _locate_with_a_wide_window(tmp_path, learned):
    _, data, _, db = learned
    wide = tmp_path / "wide.db"
    wide.write_text(db.read_text().replace("max_delay_s=0.0025", "max_delay_s=1e9", 1))
    return ["locate", str(wide), str(data / "test_00.txt")], []


_WIDE_WINDOW = ("max_lag=1000000000000000 must be smaller than every record "
                "(pair 0: lengths 8192 and 8192)")

# name: (argv and the outputs it must not create, of (tmp_path, learned); the error line's
# end).  The windows used to end in a MemoryError traceback (85 PiB of spectra), the rate
# and the record length in an OverflowError one; such a config seed was taken, and the
# config text's errors named no file.
CLI_REFUSALS = {
    "calibrate-window-beyond-the-record": (
        lambda tmp, learned: (["calibrate", str(learned[1]), "--report", str(tmp / "c.csv"),
                               "--max-delay-s", "1e9"], [tmp / "c.csv"]),
        _WIDE_WINDOW,
    ),
    "locate-window-beyond-the-record": (_locate_with_a_wide_window, _WIDE_WINDOW),
    "config-sample-rate-beyond-doubles": (
        lambda tmp, _: _simulate(tmp, {"specimen": {"sample_rate_hz": _BEYOND_DOUBLES}}),
        f"specimen.sample_rate_hz: number must be finite, got {_BEYOND_DOUBLES}",
    ),
    "config-record-length-beyond-doubles": (
        lambda tmp, _: _simulate(tmp, {"specimen": {"record_length": _BEYOND_DOUBLES}}),
        f"specimen.record_length: number must be finite, got {_BEYOND_DOUBLES}",
    ),
    "config-seed-beyond-doubles": (
        lambda tmp, _: _simulate(tmp, {"seed": _BEYOND_DOUBLES}),
        f"seed: number must be finite, got {_BEYOND_DOUBLES}",
    ),
    "config-not-json": (
        lambda tmp, _: _simulate(tmp, b'{"seed": }'),
        "cfg.json:1: Expecting value (column 10)",
    ),
    "config-not-utf8": (
        lambda tmp, _: _simulate(tmp, b'{\n  "test_source_kind": "\xff"\n}'),
        "cfg.json:2: 'utf-8' codec can't decode byte 0xff in position 25: invalid start byte",
    ),
}


@pytest.mark.parametrize("setup, message", CLI_REFUSALS.values(), ids=CLI_REFUSALS.keys())
def test_a_refusal_is_an_error_line_and_exit_2_in_a_fresh_process(learned, tmp_path, setup,
                                                                   message):
    argv, outputs = setup(tmp_path, learned)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    run = subprocess.run([sys.executable, "-m", "aeloc", *argv], env=env, capture_output=True,
                         text=True)
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and "error: " in lines[0] and lines[0].endswith(message), lines
    assert [path for path in outputs if path.exists()] == []

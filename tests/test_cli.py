import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from aeloc import cli, pipeline
from aeloc.grnn import load_prototypes
from aeloc.signals import Waveform, read_waveform_pair, write_waveform_pair
from aeloc.simulator import MANIFEST_NAME, default_config

from conftest import build_dataset

FS = 1_000_000.0


def small_config(**overrides):
    cfg = default_config()
    cfg["specimen"]["record_length"] = 8192
    cfg["prototype_positions_mm"] = [900.0 + 400.0 * k for k in range(6)]
    cfg["test_positions_mm"] = [900.0, 1500.0, 2100.0]
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def learned(tmp_path_factory):
    """Noiseless dataset run through calibrate (coarse grid) and learn once."""
    root = tmp_path_factory.mktemp("chain")
    data = root / "data"
    build_dataset(
        data,
        specimen={"noise_snr_db": None},
        prototypes=[900.0 + 200.0 * k for k in range(12)],
        tests=[900.0, 1000.0, 1700.0, 2000.0, 3100.0],
        seed=6,
    )
    report = root / "cal.csv"
    assert (
        cli.main(
            [
                "calibrate",
                str(data),
                "--report",
                str(report),
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
    db = root / "proto.db"
    assert cli.main(["learn", str(data), "--db", str(db), "--calibration", str(report)]) == 0
    return root, data, report, db


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


def test_usage_error_exit_code():
    assert cli.main(["frobnicate"]) == 1


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
        "# sensor_1_mm=0.0 sensor_2_mm=2400.0 sample_rate_hz=1000000.0",
        "file,role,position_mm,kind",
    ]
    for i, (shift, z) in enumerate(zip(shifts, positions)):
        name = f"prototype_{i:02d}.txt"
        ch1, ch2 = _shifted_pair(shift)
        write_waveform_pair(out_dir / name, ch1, ch2)
        lines.append(f"{name},prototype,{z},discrete-burst")
    (out_dir / MANIFEST_NAME).write_text("\n".join(lines) + "\n")


def test_learn_builds_database_with_expected_sigmas(learned):
    _, _, _, db = learned
    pset = load_prototypes(db)
    assert len(pset) == 12
    assert pset.given_dim == 1 and pset.hidden_dim == 1
    # 200 mm pitch at 1.7 km/s: sigma = half of the 235.3 us delay pitch
    assert np.allclose(pset.sigmas, 117.647e-6, rtol=1e-3)


def _count_pair_reads(monkeypatch):
    """Count read_waveform_pair calls per file name, wherever the CLI reaches them."""
    reads = Counter()

    def counting(path):
        reads[Path(path).name] += 1
        return read_waveform_pair(path)

    for module in (cli, pipeline):
        monkeypatch.setattr(module, "read_waveform_pair", counting)
    return reads


LEARN_ARGS = ["--f-low", "35000", "--f-high", "45000", "--max-delay-s", "1e-4"]


def test_learn_reads_each_prototype_once(tmp_path, monkeypatch):
    write_synthetic_prototypes(tmp_path, shifts=[-20, 0, 20], positions=[100.0, 200.0, 300.0])
    reads = _count_pair_reads(monkeypatch)
    assert cli.main(["learn", str(tmp_path), "--db", str(tmp_path / "p.db"), *LEARN_ARGS]) == 0
    assert reads == {f"prototype_{i:02d}.txt": 1 for i in range(3)}


def test_learn_takes_rate_from_first_prototype_without_manifest_rate(tmp_path):
    write_synthetic_prototypes(tmp_path, shifts=[-20, 0, 20], positions=[100.0, 200.0, 300.0])
    manifest = tmp_path / MANIFEST_NAME
    text = manifest.read_text().replace(" sample_rate_hz=1000000.0", "")
    manifest.write_text(text)
    db = tmp_path / "p.db"
    assert cli.main(["learn", str(tmp_path), "--db", str(db), *LEARN_ARGS]) == 0
    assert len(load_prototypes(db)) == 3


def test_learn_skips_out_of_window_prototypes(tmp_path, capsys):
    # shifts of +-300 samples sit outside a 100-sample window (and align with the
    # 25-sample carrier period so the windowed peak lands exactly on the boundary)
    write_synthetic_prototypes(
        tmp_path, shifts=[-300, -20, 20, 300], positions=[100.0, 200.0, 300.0, 400.0]
    )
    db = tmp_path / "p.db"
    code = cli.main(
        [
            "learn",
            str(tmp_path),
            "--db",
            str(db),
            "--f-low",
            "35000",
            "--f-high",
            "45000",
            "--max-delay-s",
            "1e-4",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.count("skipped") == 2
    assert len(load_prototypes(db)) == 2


def test_learn_fails_when_too_few_survive(tmp_path, capsys):
    write_synthetic_prototypes(
        tmp_path, shifts=[-300, 300, 325], positions=[100.0, 200.0, 300.0]
    )
    code = cli.main(
        [
            "learn",
            str(tmp_path),
            "--db",
            str(tmp_path / "p.db"),
            "--f-low",
            "35000",
            "--f-high",
            "45000",
            "--max-delay-s",
            "1e-4",
        ]
    )
    assert code == 2
    assert "survived" in capsys.readouterr().err


def test_learn_rejects_duplicate_positions(tmp_path, capsys):
    write_synthetic_prototypes(
        tmp_path, shifts=[-40, -40, 40], positions=[100.0, 100.0, 300.0]
    )
    code = cli.main(
        ["learn", str(tmp_path), "--db", str(tmp_path / "p.db"), "--f-low", "35000",
         "--f-high", "45000"]
    )
    assert code == 2
    assert "duplicate prototype positions" in capsys.readouterr().err


def test_learn_requires_filter_flags(learned):
    _, data, _, _ = learned
    assert cli.main(["learn", str(data), "--db", "/tmp/unused.db"]) == 1


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
    assert (
        cli.main(
            ["learn", str(tmp_path), "--db", str(db), "--f-low", "35000", "--f-high", "45000"]
        )
        == 0
    )
    code = cli.main(
        [
            "locate",
            str(db),
            str(tmp_path / "test_00.txt"),
            "--f-low",
            "35000",
            "--f-high",
            "45000",
        ]
    )
    assert code == 0
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


def test_locate_boundary_delay_flagged_without_estimate(learned, tmp_path, capsys):
    _, _, report, db = learned
    ch1, ch2 = _shifted_pair(300)  # well past the 100-sample window below
    pair = tmp_path / "far_source.txt"
    write_waveform_pair(pair, ch1, ch2)
    out_file = tmp_path / "locations.csv"
    code = cli.main(
        [
            "locate",
            str(db),
            str(pair),
            "--calibration",
            str(report),
            "--max-delay-s",
            "1e-4",
            "--out",
            str(out_file),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "delay window exceeded" in captured.err
    assert "failed" in out_file.read_text().splitlines()[1]


# ----------------------------------------------------------------- evaluate


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
    assert (
        cli.main(
            ["learn", str(tmp_path), "--db", str(db), "--f-low", "35000", "--f-high", "45000"]
        )
        == 0
    )
    report = tmp_path / "eval.csv"
    code = cli.main(
        ["evaluate", str(db), str(tmp_path), "--report", str(report), "--f-low", "35000",
         "--f-high", "45000"]
    )
    assert code == 0
    summary = {
        l.lstrip("# ").split("=")[0]: float(l.split("=")[1])
        for l in report.read_text().splitlines()
        if l.startswith("#") and "files" not in l
    }
    assert summary["mean_error_mm"] < 5.0


def test_locate_without_subsample_refinement(learned, capsys):
    _, data, report, db = learned
    code = cli.main(
        [
            "locate",
            str(db),
            str(data / "test_02.txt"),
            "--calibration",
            str(report),
            "--no-refine",
        ]
    )
    assert code == 0
    position = float(capsys.readouterr().out.split("position")[1].split("mm")[0])
    assert abs(position - 1700.0) <= 5.0


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

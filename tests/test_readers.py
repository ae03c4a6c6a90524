"""Every text reader names ``<path>:<line>:`` when a number in the file is malformed, not finite
or out of range."""

import math
import re

import numpy as np
import pytest

from aeloc.calibration import read_calibration_summary
from aeloc.grnn import load_prototypes
from aeloc.pipeline import load_database
from aeloc.signals import read_waveform_pair
from aeloc.simulator import read_manifest
from aeloc.util import fmt, parse_number

_MANIFEST_HEADER = "# sensor_1_mm=800.0 sensor_2_mm=3200.0 sample_rate_hz=1000000.0\n"
_MANIFEST_COLUMNS = "file,role,position_mm,kind\n"
_REPORT = (
    "f_low_hz,f_high_hz,rmse_mm,slope_s_per_mm\n"
    "35000.0,45000.0,0.1,1.1e-06\n"
    "# velocity_km_s=1.7\n"
    "# outlier_indices=\n"
    "# f_low_hz=35000.0\n"
    "# f_high_hz=45000.0\n"
    "# order=4\n"
    "# max_delay_s=0.0025\n"
    "# sample_rate_hz=1000000.0\n"
)
_DATABASE = (
    "# given_dim=1 hidden_dim=1 f_low_hz=35000.0 f_high_hz=45000.0 order=4 max_delay_s=0.0025 "
    "sample_rate_hz=1000000.0\n-0.001,900.0,0.0001\n0.0,1000.0,0.0001\n"
)

# (reader, file name, file text, line the error must name)
CASES = {
    "database-field": (
        load_prototypes,
        "p.db",
        "# given_dim=1 hidden_dim=1\n-0.001,900.0,0.0001\n0.0,abc,0.0001\n",
        3,
    ),
    "database-nan-field": (
        load_prototypes,
        "p.db",
        "# given_dim=1 hidden_dim=1\n-0.001,900.0,0.0001\n0.0,nan,0.0001\n",
        3,
    ),
    "database-infinite-sigma": (
        load_prototypes,
        "p.db",
        "# given_dim=1 hidden_dim=1\n-0.001,900.0,-inf\n0.0,1000.0,0.0001\n",
        2,
    ),
    "database-negative-sigma": (
        load_prototypes,
        "p.db",
        "# given_dim=1 hidden_dim=1\n-0.001,900.0,-1.0\n0.0,1000.0,0.0001\n",
        2,
    ),
    "database-zero-sigma": (
        load_prototypes,
        "p.db",
        "# given_dim=1 hidden_dim=1\n-0.001,900.0,0.0001\n0.0,1000.0,0\n",
        3,
    ),
    "manifest-header-token": (
        read_manifest,
        "manifest.txt",
        "# sensor_1_mm=800.0 sensor_2_mm=abc\n" + _MANIFEST_COLUMNS,
        1,
    ),
    "manifest-position": (
        read_manifest,
        "manifest.txt",
        _MANIFEST_HEADER + _MANIFEST_COLUMNS
        + "prototype_00.txt,prototype,900.0,discrete-burst\n"
        + "prototype_01.txt,prototype,9x0,discrete-burst\n",
        4,
    ),
    "manifest-nan-position": (
        read_manifest,
        "manifest.txt",
        _MANIFEST_HEADER + _MANIFEST_COLUMNS
        + "prototype_00.txt,prototype,900.0,discrete-burst\n"
        + "test_00.txt,test,nan,continuous-noise\n",
        4,
    ),
    "manifest-repeated-field": (
        read_manifest,
        "manifest.txt",
        _MANIFEST_HEADER.replace("\n", " sensor_1_mm=900.0\n") + _MANIFEST_COLUMNS,
        1,
    ),
    "manifest-row-of-three-fields": (
        read_manifest,
        "manifest.txt",
        _MANIFEST_HEADER + _MANIFEST_COLUMNS + "prototype_00.txt,prototype,900.0\n",
        3,
    ),
    "manifest-infinite-sensor": (
        read_manifest,
        "manifest.txt",
        "# sensor_1_mm=800.0 sensor_2_mm=inf\n" + _MANIFEST_COLUMNS,
        1,
    ),
    "report-velocity": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("velocity_km_s=1.7", "velocity_km_s=abc"),
        3,
    ),
    "report-nan-velocity": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("velocity_km_s=1.7", "velocity_km_s=nan"),
        3,
    ),
    "report-infinite-band-edge": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("f_low_hz=35000.0", "f_low_hz=-Infinity"),
        5,
    ),
    "report-band-edge": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("f_high_hz=45000.0", "f_high_hz=45k"),
        6,
    ),
    "report-filter-order": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("order=4", "order=4.5"),
        7,
    ),
    "report-zero-filter-order": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("order=4", "order=0"),
        7,
    ),
    "report-inverted-band-edges": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("f_low_hz=35000.0", "f_low_hz=55000.0"),
        5,
    ),
    "report-repeated-band": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT + "# f_low_hz=36000.0\n# f_high_hz=46000.0\n",
        10,
    ),
    "report-zero-delay-window": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("max_delay_s=0.0025", "max_delay_s=0.0"),
        8,
    ),
    "report-negative-sample-rate": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("sample_rate_hz=1000000.0", "sample_rate_hz=-1000000.0"),
        9,
    ),
    "report-band-above-nyquist": (
        read_calibration_summary,
        "calibration.csv",
        _REPORT.replace("sample_rate_hz=1000000.0", "sample_rate_hz=50000.0"),
        9,
    ),
    "database-zero-delay-window": (
        load_database,
        "p.db",
        _DATABASE.replace("max_delay_s=0.0025", "max_delay_s=0.0"),
        1,
    ),
    "database-negative-delay-window": (
        load_database,
        "p.db",
        _DATABASE.replace("max_delay_s=0.0025", "max_delay_s=-0.001"),
        1,
    ),
    "database-negative-sample-rate": (
        load_database,
        "p.db",
        _DATABASE.replace("sample_rate_hz=1000000.0", "sample_rate_hz=-1000000.0"),
        1,
    ),
    "database-band-above-nyquist": (
        load_database,
        "p.db",
        _DATABASE.replace("sample_rate_hz=1000000.0", "sample_rate_hz=50000.0"),
        1,
    ),
    "database-not-delay-to-position": (
        load_database,
        "p.db",
        _DATABASE.replace("hidden_dim=1", "hidden_dim=2").replace(",0.0001", ",0.0,0.0001"),
        1,
    ),
    "pair-zero-sample-rate": (
        read_waveform_pair,
        "pair.txt",
        "# sample_rate_hz=0\n0.0,0.0\n1.0,1.0\n",
        1,
    ),
    "pair-infinite-sample-rate": (
        read_waveform_pair,
        "pair.txt",
        "# sample_rate_hz=" + "9" * 400 + "\n0.0,0.0\n1.0,1.0\n",
        1,
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_readers_name_path_and_line_of_a_bad_number(tmp_path, case):
    reader, name, text, line = CASES[case]
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:{line}: ")):
        reader(path)



@pytest.mark.parametrize(
    "reader, name, text, line, key",
    [
        (read_manifest, "manifest.txt",
         _MANIFEST_HEADER.replace("\n", " sensor_1_mm=900.0\n") + _MANIFEST_COLUMNS, 1,
         "sensor_1_mm"),
        (load_prototypes, "p.db", "# given_dim=1 hidden_dim=1 order=4 order=8\n0.0,1.0,1.0\n", 1,
         "order"),
        (read_calibration_summary, "calibration.csv", _REPORT + "# f_low_hz=36000.0\n", 10,
         "f_low_hz"),
    ],
    ids=["manifest", "database", "calibration-summary"],
)
def test_a_repeated_header_field_is_refused_not_overwritten(tmp_path, reader, name, text, line,
                                                            key):
    # the last value used to win without a word
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == f"{path}:{line}: header field {key!r} appears twice"


@pytest.mark.parametrize(
    "header, fault",
    [("# sensor_2_mm=3200.0\n", "header lacks 'sensor_1_mm'"),
     ("# sensor_1_mm=800.0\n", "header lacks 'sensor_2_mm'"),
     ("# sensor_1_mm=3200.0 sensor_2_mm=800.0\n",
      "sensor separation sensor_2_mm - sensor_1_mm = -2400.0 mm must be finite and positive"),
     ("# sensor_1_mm=800.0 sensor_2_mm=800.0\n",
      "sensor separation sensor_2_mm - sensor_1_mm = 0.0 mm must be finite and positive"),
     ("# sensor_1_mm=-1e308 sensor_2_mm=1e308\n",
      "sensor separation sensor_2_mm - sensor_1_mm = inf mm must be finite and positive")],
    ids=["no-sensor-1", "no-sensor-2", "swapped", "coincident", "separation-beyond-doubles"],
)
def test_read_manifest_refuses_a_header_without_an_ordered_sensor_pair(tmp_path, header, fault):
    # every stage reads its dataset through read_manifest, so each refuses such a header
    path = tmp_path / "manifest.txt"
    path.write_text(header + _MANIFEST_COLUMNS + "test_00.txt,test,1500.0,continuous-noise\n")
    with pytest.raises(ValueError) as info:
        read_manifest(path)
    assert str(info.value) == f"{path}: {fault}"


def test_a_blank_line_between_rows_is_skipped(tmp_path):
    # both readers take their rows from util.comma_rows: a blank line is skipped yet counted,
    # so a later bad row is named by its own line
    rows = ("prototype_00.txt,prototype,900.0,discrete-burst\n",
            "test_00.txt,test,1500.0,continuous-noise\n")
    plain, spaced = tmp_path / "plain.txt", tmp_path / "spaced.txt"
    plain.write_text(_MANIFEST_HEADER + _MANIFEST_COLUMNS + "".join(rows))
    spaced.write_text(_MANIFEST_HEADER + _MANIFEST_COLUMNS + "\n".join(rows))
    assert read_manifest(spaced) == read_manifest(plain)
    assert [row.file for row in read_manifest(spaced)[1]] == ["prototype_00.txt", "test_00.txt"]
    spaced.write_text(spaced.read_text() + " \t\ntest_01.txt,test\n")
    with pytest.raises(ValueError) as info:
        read_manifest(spaced)
    assert str(info.value) == f"{spaced}:7: expected 4 fields, got 2"
    plain, spaced = tmp_path / "plain.db", tmp_path / "spaced.db"
    plain.write_text(_DATABASE)
    spaced.write_text(_DATABASE.replace("\n0.0,", "\n\n0.0,"))
    got, want = load_prototypes(spaced), load_prototypes(plain)
    assert len(got) == 2 and got.header == want.header
    for name in ("given", "hidden", "sigmas"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    spaced.write_text(spaced.read_text() + "\n  \n0.001,1100.0\n")
    with pytest.raises(ValueError) as info:
        load_prototypes(spaced)
    assert str(info.value) == f"{spaced}:7: expected 3 fields, got 2"


@pytest.mark.parametrize(
    "reader, name, text, line, fault",
    [(read_manifest, "manifest.txt", _MANIFEST_HEADER + _MANIFEST_COLUMNS
      + "prototype_00.txt,prototype,900.0,discrete-burst,extra\n", 3, "expected 4 fields, got 5"),
     (load_prototypes, "p.db", "# given_dim=1 hidden_dim=1\n-0.001,900.0\n", 2,
      "expected 3 fields, got 2")],
    ids=["manifest", "database"],
)
def test_a_row_of_another_width_names_both_counts(tmp_path, reader, name, text, line, fault):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == f"{path}:{line}: {fault}"


@pytest.mark.parametrize("text", ["1_0", "١٢", "+1", ".5", "1."])
@pytest.mark.parametrize(
    "reader, name, body, line, where",
    [(read_manifest, "manifest.txt", _MANIFEST_HEADER + _MANIFEST_COLUMNS
      + "prototype_00.txt,prototype,{},discrete-burst\n", 3, ": position_mm"),
     (load_prototypes, "p.db", "# given_dim=1 hidden_dim=1\n-0.001,{},0.0001\n", 2, ""),
     (read_calibration_summary, "calibration.csv",
      _REPORT.replace("velocity_km_s=1.7", "velocity_km_s={}"), 3, ": velocity_km_s")],
    ids=["manifest-position", "database-field", "calibration-summary-field"],
)
def test_a_number_that_is_not_a_json_number_is_refused(tmp_path, reader, name, body, line,
                                                        where, text):
    # int and float take these as 10, 12, 1, 0.5 and 1.0; the pair files refuse them all
    path = tmp_path / name
    path.write_text(body.format(text), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == f"{path}:{line}{where}: not a JSON number: {text!r}"


@pytest.mark.parametrize(
    "x, text", [(1e-05, "1e-05"), (-0.0, "-0.0"), (1e16, "1e+16"), (35000, "35000")]
)
def test_every_number_fmt_writes_reads_back(x, text):
    assert fmt(x) == text
    got = parse_number(text, "where", type(x))
    assert got == x and math.copysign(1.0, got) == math.copysign(1.0, x)

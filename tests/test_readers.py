"""Every text reader names ``<path>:<line>:`` when a number in the file is malformed, not finite
or out of range."""

import re

import pytest

from aeloc.calibration import read_calibration_summary
from aeloc.grnn import load_prototypes
from aeloc.pipeline import load_database
from aeloc.signals import read_waveform_pair
from aeloc.simulator import read_manifest

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
    "pair-zero-sample-rate": (
        read_waveform_pair,
        "pair.txt",
        "# sample_rate_hz=0\n0.0,0.0\n1.0,1.0\n",
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

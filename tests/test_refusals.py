"""Refusals of the library's entry points: each bad call raises its error class with its message."""

import re

import numpy as np
import pytest

from aeloc.calibration import BandGrid, fit_line, sweep_bands
from aeloc.grnn import PrototypeSet, estimate, load_prototypes
from aeloc.pipeline import locate_pair
from aeloc.signals import BandpassFilter, CrossSpectra, FilterSpec, Waveform, write_waveform_pair

FS = 1_000_000.0
_COARSE = BandGrid(f_start=30_000.0, f_stop=50_000.0, step=5_000.0)


def _noise(n=1000, fs=FS, seed=0):
    return Waveform(np.random.default_rng(seed).standard_normal(n), fs)


def _pairs(positions, fs=FS, silent=False):
    """(position, (w, w)) items, w a noise record, or an all-zero one if ``silent``."""
    waves = [Waveform(np.zeros(1000), fs) if silent else _noise(fs=fs, seed=k)
             for k in range(len(positions))]
    return [(z, (w, w)) for z, w in zip(positions, waves)]


class _LongerThanItIs(list):
    """A list whose length claims one item more than iterating it yields."""

    def __len__(self):
        return super().__len__() + 1


def _header_only(tmp_path):
    (path := tmp_path / "p.db").write_text("# given_dim=1 hidden_dim=1\n")
    return load_prototypes(path)


_SET = PrototypeSet([0.0, 1.0], [1.0, 2.0], [1.0, 1.0])

# name: (call of tmp_path, error class, the message's end)
CASES = {
    "locate-pair-on-a-2d-given-set": (
        lambda _: locate_pair(
            PrototypeSet([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0], [1.0, 1.0]),
            BandpassFilter(FilterSpec(35_000.0, 45_000.0, 4), FS),
            _noise(),
            _noise(),
        ),
        ValueError,
        "the location pipeline expects a (delay -> position) database",
    ),
    "prototype-set-without-rows": (
        lambda _: PrototypeSet([], [], []),
        ValueError,
        "prototype set needs at least one prototype",
    ),
    "prototype-set-with-a-sigma-missing": (
        lambda _: PrototypeSet([0.0, 1.0], [1.0, 2.0], [1.0]),
        ValueError,
        "one sigma per prototype required",
    ),
    "prototype-set-of-3d-data": (
        lambda _: PrototypeSet(np.zeros((2, 1, 1)), [1.0, 2.0], [1.0, 1.0]),
        ValueError,
        "expected 1-D or 2-D prototype data, got shape (2, 1, 1)",
    ),
    "non-finite-query": (
        lambda _: estimate(_SET, [np.nan]),
        ValueError,
        "query components must be finite",
    ),
    "header-only-database": (
        _header_only,
        ValueError,
        "p.db: database holds no prototypes",
    ),
    "pair-of-two-rates": (
        lambda tmp: write_waveform_pair(tmp / "pair.txt", _noise(), _noise(fs=FS / 2)),
        ValueError,
        "channels of a pair must share one sample rate",
    ),
    "pair-of-two-lengths": (
        lambda tmp: write_waveform_pair(tmp / "pair.txt", _noise(), _noise(n=999)),
        ValueError,
        "channels of a pair must have equal length",
    ),
    "pair-at-a-fractional-rate": (
        lambda tmp: write_waveform_pair(tmp / "pair.txt", _noise(fs=1000.5), _noise(fs=1000.5)),
        ValueError,
        "file format stores integer sample rates, got 1000.5",
    ),
    "spectra-of-pairs-shorter-than-their-length": (
        lambda _: CrossSpectra.of_pairs(_LongerThanItIs([(_noise(), _noise())] * 2), 10),
        ValueError,
        "pairs yielded 2 records but have a length of 3",
    ),
    "line-through-one-point": (
        lambda _: fit_line([900.0], [0.0]),
        ValueError,
        "need at least two (position, delay) points",
    ),
    "sweep-over-one-position": (
        lambda _: sweep_bands(_pairs([900.0] * 3), _COARSE, 4, max_lag=10),
        ValueError,
        "prototype positions are all identical",
    ),
    "sweep-over-bands-all-above-nyquist": pytest.param(
        lambda _: sweep_bands(_pairs([900.0, 1300.0, 1700.0], fs=50_000.0), _COARSE, 4,
                              max_lag=10),
        ValueError,
        "every band in the grid was invalid for this sample rate",
        marks=pytest.mark.filterwarnings("ignore:skipping band"),
    ),
    "sweep-over-silent-records": (
        lambda _: sweep_bands(_pairs([900.0, 1300.0, 1700.0], silent=True), _COARSE, 4,
                              max_lag=10),
        ValueError,
        "no band produced enough usable delay estimates",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_a_bad_call_is_refused_with_its_message(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message) + "$") as info:
        call(tmp_path)
    assert info.type is error

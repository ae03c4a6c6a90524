"""The worker-process path gives what the in-process loop gives.

Each test forces the CPU count through ``os.sched_getaffinity``: one CPU runs
the plain loop, two CPUs run forked worker processes.
"""

import hashlib
import os
import re
import threading
import time
from functools import partial

import pytest

from aeloc import cli
from aeloc.pipeline import evaluate_dataset, learn_prototypes
from aeloc.signals import FilterSpec, design_bandpass
from aeloc.util import process_map
from conftest import build_dataset


def force_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _square_and_pid(x):
    return x * x, os.getpid()


def _refuse_three(x):
    if x == 3:
        raise FileExistsError(f"item {x} refused")
    return x


def _finish(done_dir, x):
    time.sleep(0.01)
    (done_dir / str(x)).touch()
    return x


def test_process_map_keeps_order_and_uses_workers_with_two_cpus(monkeypatch):
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        out = process_map(_square_and_pid, (x for x in range(25)))
        assert [sq for sq, _ in out] == [x * x for x in range(25)]
        pids = {pid for _, pid in out}
        if cpus == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids


def test_process_map_reraises_the_worker_exception(monkeypatch):
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        with pytest.raises(FileExistsError, match=r"^item 3 refused$"):
            process_map(_refuse_three, range(8))


def test_process_map_takes_at_most_two_items_per_worker_ahead(tmp_path, monkeypatch):
    force_cpus(monkeypatch, 2)
    ahead = []

    def items():
        for x in range(24):
            ahead.append(x + 1 - len(list(tmp_path.iterdir())))
            yield x

    assert process_map(partial(_finish, tmp_path), items()) == list(range(24))
    assert max(ahead) <= 4, ahead


def test_process_map_stays_in_process_while_another_thread_runs(monkeypatch):
    force_cpus(monkeypatch, 2)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        out = process_map(_square_and_pid, range(4))
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert {pid for _, pid in out} == {os.getpid()}


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("reflection", [0.0, 0.3])
def test_run_experiment_writes_the_same_bytes_on_workers(tmp_path, monkeypatch, reflection):
    digests = []
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus_{cpus}"
        build_dataset(
            out,
            specimen={"reflection_coeff": reflection},
            prototypes=[900.0, 1500.0, 2100.0, 2700.0],
            tests=[1000.0, 2000.0, 3000.0],
        )
        digests.append(_digests(out))
    assert len(digests[0]) == 8
    assert digests[0] == digests[1]


def test_out_of_span_source_warns_in_the_caller(tmp_path, monkeypatch):
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        with pytest.warns(UserWarning, match="500.0 mm lies outside the sensor span"):
            build_dataset(tmp_path / f"cpus_{cpus}", prototypes=[900.0, 1500.0], tests=[500.0])


def test_truncated_test_file_is_named_in_failed(tmp_path, monkeypatch):
    build_dataset(
        tmp_path,
        specimen={"noise_snr_db": None},
        prototypes=[900.0 + 400.0 * k for k in range(6)],
        tests=[1000.0, 1500.0, 2000.0],
    )
    lines = (tmp_path / "test_01.txt").read_text().splitlines()
    cut = lines[1000].split(",")[0]  # the line ends after its first channel
    (tmp_path / "test_01.txt").write_text("\n".join(lines[:1000] + [cut]) + "\n")
    filt = design_bandpass(FilterSpec(35_000.0, 45_000.0), 1e6)
    reports = []
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        pset, _ = learn_prototypes(tmp_path, filt)
        reports.append(evaluate_dataset(pset, filt, tmp_path))
    serial, forked = reports
    assert [name for name, _ in serial.failed] == ["test_01.txt"]
    assert forked.failed == serial.failed
    assert [(r.file, r.estimated_mm) for r in forked.rows] == [
        (r.file, r.estimated_mm) for r in serial.rows
    ]


def test_simulate_names_the_pair_it_could_not_write(tmp_path, monkeypatch, capsys):
    config = tmp_path / "small.json"
    assert cli.main(["simulate", "--write-default-config", str(config)]) == 0
    config.write_text(
        config.read_text().replace('"record_length": 16384', '"record_length": 8192')
    )
    errors = []
    for cpus in (1, 2):
        force_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus_{cpus}"
        blocked = out / "prototype_05.txt"
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"failed writing {blocked}: " in err
        # the random temp-file suffix aside, both runs report the same error
        errors.append(re.sub(r"\.txt\.\w+\.tmp'", ".txt.tmp'", err.replace(str(out), "OUT")))
    assert errors[0] == errors[1]

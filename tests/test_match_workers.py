"""The match stage's forked workers.

``estimate_m5c_mf`` shortlists and solves its units in one process per
available CPU. Any process count must give the serial run's bytes, and a
failed worker must give the serial run's result, exception and message.
The count is forced by replacing ``estimation._cpu_count``, so these tests
also fork on a one-CPU machine. After every run no child may be left.
"""

import json
import os
import pickle
import threading
import warnings

import pytest

from stratamatch import cli, estimation, matching
from stratamatch.dataset import load_dataset


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    csv = tmp_path_factory.mktemp("workers") / "desk.csv"
    assert cli.main(["gen", "--preset", "hyb20var-desk", "--seed", "7", "--out", str(csv)]) == 0
    return csv


def _io(csv):
    return ["--input", str(csv), "--treatment", "t", "--outcome", "y"]


def _run(csv, out, processes):
    """Exit code of a default ``estimate`` with ``processes`` CPUs, and the
    number of children it forked; no child may outlive the call."""
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_cpu_count", lambda: processes)
        mp.setattr(os, "fork", counting)
        rc = cli.main(["estimate", *_io(csv), "--out", str(out)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return rc, len(forks)


def _artifacts(csv, out):
    """The bytes of an estimate's artifacts, and of ``balance`` on its audit."""
    arts = {name: (out / name).read_bytes()
            for name in ("audit.jsonl", "summary.txt", "tree.json", "tree_rules.txt")}
    arts["payload"] = json.dumps(json.loads((out / "report.json").read_text())["payload"])
    assert cli.main(["balance", *_io(csv), "--audit", str(out / "audit.jsonl"),
                     "--out", str(out / "balance")]) == 0
    for name in ("balance.json", "balance.txt"):
        arts[name] = (out / "balance" / name).read_bytes()
    return arts


@pytest.fixture(scope="module")
def serial(desk, tmp_path_factory):
    out = tmp_path_factory.mktemp("serial") / "run"
    assert _run(desk, out, 1) == (0, 0)
    return _artifacts(desk, out)


@pytest.mark.parametrize("processes", [2, 3])
def test_every_process_count_writes_the_serial_bytes(desk, serial, tmp_path, processes):
    assert _run(desk, tmp_path / "run", processes) == (0, processes - 1)
    assert _artifacts(desk, tmp_path / "run") == serial


def _in_child_only(monkeypatch, module, name, marks, broken):
    """Replace ``module.name`` by ``broken(original, *args)`` in forked
    children, each of which appends a line to ``marks``."""
    parent, original = os.getpid(), getattr(module, name)

    def replaced(*args, **kwargs):
        if os.getpid() == parent:
            return original(*args, **kwargs)
        with open(marks, "a") as f:
            f.write("child\n")
        return broken(original, *args, **kwargs)

    monkeypatch.setattr(module, name, replaced)


def _exit_1(solve_match, problems):
    os._exit(1)


def _half(dumps, obj, *args):
    data = dumps(obj, *args)
    return data[:len(data) // 2]


@pytest.mark.parametrize("module, name, broken", [(matching, "solve_match", _exit_1),
                                                  (pickle, "dumps", _half)],
                         ids=["worker_exits_1", "short_payload"])
def test_a_failed_worker_gives_the_serial_report(desk, serial, tmp_path, monkeypatch,
                                                 module, name, broken):
    marks = tmp_path / "marks"
    _in_child_only(monkeypatch, module, name, marks, broken)
    assert _run(desk, tmp_path / "run", 3) == (0, 2)
    # a worker failed; the parent may kill the other before it gets as far
    assert marks.read_text() in ("child\n", "child\n" * 2)
    assert _artifacts(desk, tmp_path / "run") == serial


def _second_problem(desk, tmp_path, monkeypatch):
    """The treated features of the second problem a serial run shortlists,
    which falls in share 1 of two or three processes."""
    select_candidates = matching.select_candidates
    seen = []

    def recording(pool, treated_features, *args):
        seen.append(treated_features)
        return select_candidates(pool, treated_features, *args)

    monkeypatch.setattr(matching, "select_candidates", recording)
    assert _run(desk, tmp_path / "order", 1) == (0, 0)
    monkeypatch.setattr(matching, "select_candidates", select_candidates)
    return seen[1]


def _on_one_unit(monkeypatch, target, marks, act):
    """Run ``act()`` before the shortlist of ``target``, after a line in
    ``marks`` that names the process."""
    parent, select_candidates = os.getpid(), matching.select_candidates

    def acting(pool, treated_features, *args):
        if (treated_features == target).all():
            with open(marks, "a") as f:
                f.write("parent\n" if os.getpid() == parent else "child\n")
            act()
        return select_candidates(pool, treated_features, *args)

    monkeypatch.setattr(matching, "select_candidates", acting)


# the serial run acts in the parent; each forked run in a child, then in the
# parent's serial rerun
_SERIAL_THEN_FORKED = ["parent", "child", "parent", "child", "parent"]


def test_a_non_finite_result_in_a_worker_exits_3_with_the_serial_message(
        desk, tmp_path, monkeypatch, caplog):
    from stratamatch.errors import NonFiniteResult

    def fail():
        raise NonFiniteResult("the shortlist of one unit is not a finite number")

    marks = tmp_path / "marks"
    _on_one_unit(monkeypatch, _second_problem(desk, tmp_path, monkeypatch), marks, fail)
    errors = []
    for processes in (1, 2, 3):
        caplog.clear()
        assert _run(desk, tmp_path / f"run{processes}", processes) == (3, processes - 1)
        errors.append([r.getMessage() for r in caplog.records if r.levelname == "ERROR"])
    assert errors[0] == ["data error: the shortlist of one unit is not a finite number"]
    assert errors[1] == errors[2] == errors[0]
    assert marks.read_text().split() == _SERIAL_THEN_FORKED


def test_a_warning_in_a_worker_is_the_serial_runs_warning(desk, serial, tmp_path, monkeypatch):
    marks = tmp_path / "marks"
    _on_one_unit(monkeypatch, _second_problem(desk, tmp_path, monkeypatch), marks,
                 lambda: warnings.warn("one unit warns", RuntimeWarning))
    for processes in (1, 2, 3):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run(desk, tmp_path / f"run{processes}", processes) == (0, processes - 1)
        assert [str(w.message) for w in caught] == ["one unit warns"]
        assert _artifacts(desk, tmp_path / f"run{processes}") == serial
    assert marks.read_text().split() == _SERIAL_THEN_FORKED


def test_an_interrupt_kills_and_reaps_every_worker(desk, monkeypatch):
    d = load_dataset(desk, treatment_col="t", outcome_col="y")
    parent, solve_match = os.getpid(), matching.solve_match

    def interrupted(problems):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return solve_match(problems)

    monkeypatch.setattr(matching, "solve_match", interrupted)
    monkeypatch.setattr(estimation, "_cpu_count", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        estimation.estimate_m5c_mf(d)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_treated, forks", [(31, 0), (32, 1)])
def test_fewer_than_two_batches_of_problems_stay_serial(tmp_path, n_treated, forks):
    csv = tmp_path / "data.csv"
    assert cli.main(["gen", "--preset", "hyb20var-desk", "--n-treated", str(n_treated),
                     "--n-control", "600", "--seed", "5", "--out", str(csv)]) == 0
    assert matching._BATCH == 16
    assert _run(csv, tmp_path / "run", 2) == (0, forks)


def test_a_running_thread_keeps_the_stage_serial(desk, serial, tmp_path):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _run(desk, tmp_path / "run", 2) == (0, 0)
    finally:
        release.set()
        thread.join()
    assert _artifacts(desk, tmp_path / "run") == serial

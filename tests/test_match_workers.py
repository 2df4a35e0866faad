"""The match stage's forked workers.

``estimate_m5c_mf`` shortlists and solves its units in one process per
available CPU. Any process count must give the serial run's bytes, and a
failed worker must give the serial run's result, exception and message.
The count is forced by replacing ``_fork._cpu_count``, so these tests also
fork on a one-CPU machine. The loader forks too (desk's 5 000 data lines
make two parts of at least ``_CHUNK_ROWS``), and so would the tree on a
larger control set, so forks are counted per stage, and a broken worker
breaks only the match stage's children. After
every run no child may be left, and no file or pipe may be left open.
"""

import json
import os
import pickle
import threading
import warnings

import pytest

from conftest import exit_1, half_payload, in_children
from stratamatch import _fork, cli, estimation, matching
from stratamatch.dataset import load_dataset

# the stage that forks next: a child knows the stage that forked it
_STAGE = ["load"]


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    csv = tmp_path_factory.mktemp("workers") / "desk.csv"
    assert cli.main(["gen", "--preset", "hyb20var-desk", "--seed", "7", "--out", str(csv)]) == 0
    return csv


def _io(csv):
    return ["--input", str(csv), "--treatment", "t", "--outcome", "y"]


def _forks(processes):
    """The children a default ``estimate`` of desk forks per stage: the
    loader makes at most two parts of desk, the tree grows in one process
    (desk's 4 900 controls are below its cutoff), and the match stage runs
    one share per process."""
    return {"load": min(processes, 2) - 1, "tree": 0, "match": processes - 1}


def _run(csv, out, processes):
    """Exit code of a default ``estimate`` with ``processes`` CPUs, and the
    number of children each stage forked; no child may outlive the call."""
    forks = {"load": 0, "tree": 0, "match": 0}
    fork, build_tree, match = os.fork, estimation.build_tree, estimation._match

    def counting():
        pid = fork()
        if pid:
            forks[_STAGE[0]] += 1
        return pid

    def tree_stage(*args):
        _STAGE[0] = "tree"
        return build_tree(*args)

    def matching_stage(*args):
        _STAGE[0] = "match"
        return match(*args)

    _STAGE[0] = "load"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "_cpu_count", lambda: processes)
        mp.setattr(os, "fork", counting)
        mp.setattr(estimation, "build_tree", tree_stage)
        mp.setattr(estimation, "_match", matching_stage)
        rc = cli.main(["estimate", *_io(csv), "--out", str(out)])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return rc, forks


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
    assert _run(desk, out, 1) == (0, _forks(1))
    return _artifacts(desk, out)


@pytest.mark.parametrize("processes", [2, 3])
def test_every_process_count_writes_the_serial_bytes(desk, serial, tmp_path, processes):
    assert _run(desk, tmp_path / "run", processes) == (0, _forks(processes))
    assert _artifacts(desk, tmp_path / "run") == serial


@pytest.mark.parametrize("module, name, broken", [(matching, "solve_match", exit_1),
                                                  (pickle, "dumps", half_payload)],
                         ids=["worker_exits_1", "short_payload"])
def test_a_failed_worker_gives_the_serial_report(desk, serial, tmp_path, monkeypatch,
                                                 module, name, broken):
    marks = tmp_path / "marks"
    # only the match stage's children break; the loader's run as they are
    in_children(monkeypatch, module, name, marks, broken, when=lambda: _STAGE[0] == "match")
    assert _run(desk, tmp_path / "run", 3) == (0, _forks(3))
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
    assert _run(desk, tmp_path / "order", 1) == (0, _forks(1))
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
        assert _run(desk, tmp_path / f"run{processes}", processes) == (3, _forks(processes))
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
            assert _run(desk, tmp_path / f"run{processes}", processes) == (0, _forks(processes))
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
    monkeypatch.setattr(_fork, "_cpu_count", lambda: 3)
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
    assert _run(csv, tmp_path / "run", 2) == (0, {"load": 0, "tree": 0, "match": forks})


def test_a_running_thread_keeps_the_stage_serial(desk, serial, tmp_path):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _run(desk, tmp_path / "run", 2) == (0, {"load": 0, "tree": 0, "match": 0})
    finally:
        release.set()
        thread.join()
    assert _artifacts(desk, tmp_path / "run") == serial

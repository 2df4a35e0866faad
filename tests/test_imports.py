"""Each command loads only the layers it calls, and ``import stratamatch``
loads its public names on first access. Only ``bench`` and ``gen`` load
``numpy.random``, whose import alone adds about 6 MB to a process.

Every check runs in a fresh interpreter and reads ``sys.modules`` there, so
it sees what one command loads; no timing is asserted. No estimate or
``balance`` loads ``multiprocessing`` or ``concurrent.futures``: the
workers of the loader and of the match stage need only ``os.fork`` and
``pickle``, through the private ``stratamatch._fork``.
"""

import json
import subprocess
import sys

import pytest

from stratamatch import cli

_PROBE = """
import sys
from stratamatch import cli
{before}
try:
    rc = cli.main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
{after}
modules = sorted(sys.modules)
import json
print(json.dumps({{"rc": rc, "modules": modules}}))
"""
# with two CPUs the match stage forks one worker; the probe file's 840 lines
# are too few for the loader to fork, and its 800 controls too few for the
# tree. Forks are counted per stage: the tree's run while it grows.
_TWO_WORKERS = {
    "before": "import os\nfrom stratamatch import _fork, tree\n"
              "_fork._cpu_count = lambda: 2\nforks, fork = [], os.fork\n"
              "stage, build_tree = ['load'], tree.build_tree\n"
              "os.fork = lambda: forks.append(stage[0]) or fork()\n"
              "def growing(*args):\n"
              "    stage[0] = 'tree'\n"
              "    try:\n"
              "        return build_tree(*args)\n"
              "    finally:\n"
              "        stage[0] = 'match'\n"
              "tree.build_tree = growing",
    "after": "assert forks == ['match'], forks",
}
_NO_POOLS = {"multiprocessing", "concurrent.futures"}


def _python(code, *argv):
    r = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def _command(*argv, before="", after=""):
    """``cli.main(argv)`` in a fresh interpreter, after the code ``before``
    and before the code ``after``: its exit code, the ``stratamatch``
    modules and all the modules loaded by the end."""
    out = _python(_PROBE.format(before=before, after=after), *argv)
    modules = set(out["modules"])
    return out["rc"], {m for m in modules if m.split(".")[0] == "stratamatch"}, modules


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small data file, with enough treated units for two match workers,
    and the audit of a default estimate on it."""
    root = tmp_path_factory.mktemp("imports")
    csv = root / "data.csv"
    assert cli.main(["gen", "--preset", "hyb20var-desk", "--n-treated", "40", "--n-control",
                     "800", "--seed", "3", "--out", str(csv)]) == 0
    io = ["--input", str(csv), "--treatment", "t", "--outcome", "y"]
    assert cli.main(["estimate", *io, "--out", str(root / "est")]) == 0
    return root, io


def test_balance_loads_only_the_loader_and_the_metrics(run):
    root, io = run
    rc, loaded, modules = _command("balance", *io, "--audit", str(root / "est" / "audit.jsonl"),
                                   "--out", str(root / "bal"))
    assert rc == 0
    assert loaded == {"stratamatch", "stratamatch.cli", "stratamatch.errors",
                      "stratamatch.dataset", "stratamatch._fork", "stratamatch.balance"}
    assert "numpy.random" not in modules
    assert not modules & _NO_POOLS


def test_estimate_loads_no_balance_or_bench(run):
    root, io = run
    rc, loaded, modules = _command("estimate", *io, "--method", "m5c-m",
                                   "--out", str(root / "m"))
    assert rc == 0
    assert "stratamatch.estimation" in loaded
    assert not loaded & {"stratamatch.balance", "stratamatch.bench"}
    assert not modules & _NO_POOLS


def test_version_loads_no_numpy():
    rc, loaded, modules = _command("--version")
    assert rc == 0
    assert loaded == {"stratamatch", "stratamatch.cli", "stratamatch.errors"}
    assert "numpy" not in modules
    assert not modules & {"dataclasses", "inspect", "json", "csv"}


@pytest.mark.parametrize("argv", [("estimate", "--method", "m5c-mf"),
                                  ("estimate", "--method", "m5c-m"),
                                  ("estimate", "--method", "naive"),
                                  ("estimate", "--method", "strategies"),
                                  ("tree",)], ids=lambda a: a[-1])
def test_only_the_match_form_loads_the_matcher_and_only_strategies_fractions(run, argv):
    root, io = run
    probe = _TWO_WORKERS if argv[-1] == "m5c-mf" else {}
    rc, loaded, modules = _command(*argv, *io, "--out", str(root / "-".join(argv)), **probe)
    assert rc == 0
    assert ("stratamatch.matching" in loaded) == (argv[-1] == "m5c-mf")
    assert ("fractions" in modules) == (argv[-1] == "strategies")
    assert "numpy.random" not in modules
    assert not modules & _NO_POOLS


def test_package_names_resolve_on_first_access():
    out = _python("""
import json, sys
import stratamatch
bare = sorted(m for m in sys.modules if m.startswith("stratamatch") or m == "numpy")
star = {}
exec("from stratamatch import *", star)
names = stratamatch.__all__
home = {n: getattr(sys.modules[f"stratamatch.{mod}"], n) is getattr(stratamatch, n)
        for mod, ns in stratamatch._EXPORTS.items() for n in ns}
try:
    stratamatch.no_such_name
    missing_raises = False
except AttributeError:
    missing_raises = True
print(json.dumps({"bare": bare, "all": names, "star": sorted(n for n in star if n in names),
                  "home": all(home.values()), "dir": set(names) <= set(dir(stratamatch)),
                  "missing_raises": missing_raises}))
""")
    assert out["bare"] == ["stratamatch", "stratamatch.errors"]
    assert out["all"] == sorted(set(out["all"])) and len(out["all"]) == 70
    assert out["star"] == out["all"]
    assert out["home"] and out["dir"] and out["missing_raises"]

#!/usr/bin/env python3
"""Digest the artifacts a bit-identical change must keep.

    python3 tools/artifacts.py SRC_ROOT OUT.json

``SRC_ROOT`` is the directory that holds the ``stratamatch`` package of the
checkout to measure, such as ``src``. The script writes three inputs with
that checkout's ``gen``:

- ``desk``: ``--preset hyb20var-desk --seed 7``;
- ``full``: ``--preset hyb20var --seed 1``;
- ``5x``: ``--preset hyb20var --n-treated 1000 --n-control 99000 --seed 3``.

On each input it runs, in this process, ``estimate`` with each of the four
methods, ``tree``, and ``balance`` on the ``m5c-mf`` audit, and takes the
sha256 of 22 artifacts: ``audit.jsonl``, the ``report.json`` payload and
``summary.txt`` of every method; ``tree.json`` and ``tree_rules.txt`` of the
three tree methods and of ``tree``; ``balance.json`` and ``balance.txt``.
Those 66 digests are taken at 1, 2 and 3 processes, forced through
``_fork._cpu_count``, with every BLAS thread variable set to 1. The
``report.json`` digest covers the payload only: its ``meta`` holds the time.

``OUT.json`` holds the inputs' digests and the artifacts' digests by process
count, and nothing that depends on where the checkout lies, so two
checkouts that give the same artifacts write the same bytes; compare two
of them with ``diff``. On 2 shared cores (Python 3.11, numpy 2.4) a run
took 18 s and held at most 122 MB.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INPUTS = {
    "desk": ["--preset", "hyb20var-desk", "--seed", "7"],
    "full": ["--preset", "hyb20var", "--seed", "1"],
    "5x": ["--preset", "hyb20var", "--n-treated", "1000", "--n-control", "99000",
           "--seed", "3"],
}
METHODS = ("m5c-mf", "m5c-m", "strategies", "naive")
TREE_METHODS = ("m5c-mf", "m5c-m", "strategies")
PROCESSES = (1, 2, 3)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(main, argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise SystemExit(f"stratamatch {' '.join(argv)} exited {code}")


def _digests(main, csv: Path, work: Path) -> dict[str, str]:
    """The 22 artifact digests of one input, by ``command/file``."""
    io = ["--input", str(csv), "--treatment", "t", "--outcome", "y"]
    out = {}
    for method in METHODS:
        d = work / method
        _run(main, ["estimate", *io, "--method", method, "--out", str(d)])
        payload = json.loads((d / "report.json").read_text())["payload"]
        out[f"{method}/report.json:payload"] = _sha256(
            json.dumps(payload, sort_keys=True).encode())
        names = ["audit.jsonl", "summary.txt"]
        if method in TREE_METHODS:
            names += ["tree.json", "tree_rules.txt"]
        for name in names:
            out[f"{method}/{name}"] = _sha256((d / name).read_bytes())
    d = work / "tree"
    _run(main, ["tree", *io, "--out", str(d)])
    for name in ("tree.json", "tree_rules.txt"):
        out[f"tree/{name}"] = _sha256((d / name).read_bytes())
    d = work / "balance"
    _run(main, ["balance", *io, "--audit", str(work / "m5c-mf" / "audit.jsonl"),
                "--out", str(d)])
    for name in ("balance.json", "balance.txt"):
        out[f"balance/{name}"] = _sha256((d / name).read_bytes())
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, dest = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "stratamatch" / "__init__.py").is_file():
        print(f"{src} holds no stratamatch package", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    logging.basicConfig(level=logging.WARNING)  # the commands' INFO lines stay quiet
    from stratamatch import _fork
    from stratamatch.cli import main as cli_main

    inputs, artifacts = {}, {}
    with tempfile.TemporaryDirectory(prefix="stratamatch-artifacts-") as tmp:
        tmp = Path(tmp)
        for name, args in INPUTS.items():
            csv = tmp / f"{name}.csv"
            _run(cli_main, ["gen", *args, "--out", str(csv)])
            inputs[name] = _sha256(csv.read_bytes())
        for w in PROCESSES:
            _fork._cpu_count = lambda w=w: w
            at = artifacts[str(w)] = {}
            for name in INPUTS:
                work = tmp / f"{name}-{w}"
                for key, digest in _digests(cli_main, tmp / f"{name}.csv", work).items():
                    at[f"{name}/{key}"] = digest
    dest.write_text(json.dumps({"inputs": inputs, "artifacts": artifacts},
                               indent=1, sort_keys=True) + "\n")
    same = all(artifacts[str(w)] == artifacts["1"] for w in PROCESSES)
    print(f"{len(artifacts['1'])} artifacts at {len(PROCESSES)} process counts; "
          f"the counts {'agree' if same else 'DISAGREE'}; written to {dest}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

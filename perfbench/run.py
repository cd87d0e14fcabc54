#!/usr/bin/env python3
"""PaC-IM benchmark: time to k seeds, bytes held and rounds per workload.

Run from the repository root:

    python3 perfbench/run.py --workload sf-local --seed 0 --seconds 10 --trace 0

The program is imported from ``src/`` beside this directory and timed
from outside its public entry points (``run_pacim``, ``estimate_spread``).
Every output is checked. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one extra
traced iteration with ``--trace 1``. The line before it holds the run's
metadata. Temporary files go to ``.perfbench_tmp/`` and are removed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed (0 = the suite graphs; "
                         "holdout seed 1000)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure iterations for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing: {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        from bench import Bench

        bench = Bench(args.workload, args.seed, args.seconds, SRC)
        result, meta = bench.run(bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Rewrite the golden digests that ``tests/test_golden.py`` checks.

Usage (from the repository root):

    python3 tools/golden.py [WORKLOAD ...]

Runs each workload (default: all three) in a temporary directory the way
the test does and writes ``tests/golden/<workload>.json``: the sha256 of
every output file, the Python and numpy versions they were made with, and
the numpy SIMD targets of this host.
Before it rewrites a pin it prints each file whose digest moved (added,
removed or changed), or ``unchanged``.  Run it only on a checkout whose
output bytes are known good, and list in the change's notes every file it
names.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# this checkout's miscuq, not whichever one is installed
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import test_golden  # noqa: E402
from test_span_targets import bench_module  # noqa: E402


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or test_golden.WORKLOADS
    sys.modules["spans"] = bench_module("spans")  # run.py imports its sibling
    run = bench_module("run")
    test_golden.GOLDEN.mkdir(exist_ok=True)
    home = os.getcwd()
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                files = test_golden.workload_digests(run, name)
            finally:
                os.chdir(home)
        doc = {**test_golden.versions(), **test_golden.kernels(), "files": files}
        path = test_golden.GOLDEN / f"{name}.json"
        pinned = json.loads(path.read_text(encoding="utf-8"))["files"] if path.exists() else {}
        for line in test_golden.moved(pinned, files) or ["unchanged"]:
            print(f"{name}: {line}")
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())

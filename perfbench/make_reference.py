"""Regenerate reference.json: the output of every pool instance at this commit.

Run from the repository root, for all workloads or the ones named:

    python3 perfbench/make_reference.py [workload ...]

A reference pins the clustering a certified solve or a release must
reproduce bit for bit (as a SHA-256 of the cluster matrix), or the sweep's
CSV verdicts. Regenerate only when a change of outputs is intended.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH_DIR, OUT_DIR, import_library, pin_blas_threads


def main(argv: list[str]) -> int:
    pin_blas_threads()
    wl = import_library()
    path = BENCH_DIR / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    workdir = OUT_DIR / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in argv or list(wl.WORKLOADS):
            workload = wl.WORKLOADS[name]
            table[name] = {str(s): workload.make(s, workdir).reference()
                           for s in workload.pool}
            print(name, table[name], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

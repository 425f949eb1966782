"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs small versions of the workloads (order 5 and order 6 searches, an
analyse pass over orders 6..8 with towers of depth 2 and 3), untraced and
traced.  It checks that every metric named in BENCHMARK.json is reported
with its unit, that the only failure is the known limit-probe crash, that a
deliberately corrupted output is counted as failed, and that a crash of a
checked command makes the run incorrect.  Exits 1 on the first broken
expectation.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import LIMIT_PROBES, AnalyseWorkload, SearchReference, SearchWorkload, achievable

KNOWN_CRASH = "search --order 64"  # RecursionError in the recursive search


def tiny_workloads():
    return [
        SearchWorkload("tiny-o5", order=5, up_to_iso=False, reference=SearchReference(
            tables=6, models=6,
            digest="f951ff6174bf7e6535f89234cfc94060fae007319669f39c9069ca7788b6bf79")),
        SearchWorkload("tiny-o6-iso", order=6, up_to_iso=True, reference=SearchReference(
            tables=2, models=66, classes=True,
            digest="5c53919594f29129b2b7da899906106349fe2d032cd7924cccdbf2cb05cea9d3")),
        AnalyseWorkload("tiny-analyse", orders=achievable(6, 8), simple_orders=achievable(6, 8),
                        towers=(2, 3), gaps=((2, 3),), limits=LIMIT_PROBES),
    ]


def expect(ok: bool, what: str):
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def only_known_failures(result) -> bool:
    return all(f["kind"] == "raised" and f["command"] == KNOWN_CRASH for f in result["failures"])


def corrupt(op, res):
    """Reverse one row of a search output; swap two entries of an iso map."""
    if op.argv[0] == "search" and "--out" in op.argv:
        path = Path(op.argv[op.argv.index("--out") + 1])
        lines = path.read_text().splitlines()
        lines[3] = " ".join(reversed(lines[3].split()))
        path.write_text("\n".join(lines) + "\n")
    elif op.argv[0] == "iso" and res.stdout.startswith("isomorphic: "):
        head, values = res.stdout.split(": ")
        values = values.split()
        values[1], values[2] = values[2], values[1]
        res.stdout = f"{head}: {' '.join(values)}\n"


def crash(op, res):
    """Make every checked command look as if it had raised."""
    if op.check is not None:
        res.rc, res.error = None, "RuntimeError: injected crash"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    workdir = run.HERE / "out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for w in tiny_workloads():
            for trace in (False, True):
                r = run.run_workload(w, seed=7, seconds=0, trace=trace, workdir=workdir)
                got = {name: m["unit"] for name, m in r["metrics"].items()}
                expect(got == units[trace], f"{w.name} trace={trace}: metrics {got}")
                expect(r["attempted"] >= 1 and r["correct"] and only_known_failures(r),
                       f"{w.name} trace={trace}: unexpected failures {r['failures']}")
                if isinstance(w, SearchWorkload):
                    expect(r["failed"] == 0, f"{w.name}: a search command failed")
            r = run.run_workload(w, seed=7, seconds=0, trace=False, workdir=workdir, tamper=corrupt)
            wrong = [f for f in r["failures"] if f["kind"] == "wrong"]
            expect(wrong and not r["correct"], f"{w.name}: corrupted output was not counted")
            failed = r["failed"]
            r = run.run_workload(w, seed=7, seconds=0, trace=False, workdir=workdir, tamper=crash)
            expect(not r["correct"], f"{w.name}: a crash of a checked command left the run correct")
            print(f"selftest {w.name}: ok ({failed} of {r['attempted']} failed when corrupted)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

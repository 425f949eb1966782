"""Benchmark of the ``jordanloops`` command-line tool (standard library only).

Run from the repository root:

    python3 bench/run.py --workload search-o9 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, untraced then traced
    python3 bench/selftest.py                        # the harness checked at tiny sizes

One run imports the package from ``src/``, turns ``--seed`` into the
workload's input files, then drives ``jordanloops.cli.run(argv)`` in-process
over the workload's commands, in one thread, pass after pass until another
pass would overrun ``--seconds`` (always at least one).  After each pass,
outside the timed interval, every output is checked against its reference.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s`` of
the commands (median over passes), ``peak_rss_mb`` of the process up to the
end of the first pass, and ``setup_s``, the time of one import-plus-input-
generation round, timed in batches after the last pass (median of the
batches).
``--trace 1`` records a span around every call into each module
(``tracing.py``) and reports per-layer metrics.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a command that raised, exited with an unexpected
code or disagreed with its reference counts as failed and makes ``correct``
false, except that a limit probe (a command with no output check) may raise
and only count as failed.  A result file with a note on the machine is
written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# setup_s is the median of SETUP_SAMPLES samples.  A sample repeats set-up
# rounds until it has lasted SETUP_SAMPLE_S and counts elapsed time per round,
# so that a single round of a few milliseconds does not carry the host's
# momentary speed alone.
SETUP_SAMPLES = 6
SETUP_SAMPLE_S = 0.5
# A baseline figure more than this share away from the measured one is
# flagged.  It is the wall_s bound of BENCHMARK.json: on a shared 2-core
# virtual machine, speed drifted by that much between runs.
NOISE = 0.25


class SetupError(RuntimeError):
    """The package under test cannot be imported from this checkout."""


@dataclass
class Result:
    rc: int | None
    error: str | None
    stdout: str
    stderr: str
    wall: float
    cpu: float


def _cpu() -> float:
    own, children = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def import_package():
    """Import jordanloops afresh from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "jordanloops" / "__init__.py").is_file():
        raise SetupError(f"no package source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "jordanloops" or m.startswith("jordanloops.")]:
        del sys.modules[name]
    jl = importlib.import_module("jordanloops")
    if Path(jl.__file__).resolve().parent != (src / "jordanloops").resolve():
        raise SetupError(f"jordanloops imported from {jl.__file__}, not from {src}")
    return jl, importlib.import_module("jordanloops.cli")


def execute(cli, argv, tracer) -> Result:
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), _cpu()
        idx = tracer.begin("cli." + argv[0], argv) if tracer else None
        try:
            rc = cli.run(argv)
        except Exception as exc:  # a crash of the program under test is a measured failure
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        finally:
            if tracer:
                tracer.end(idx)
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
    return Result(rc, error, out.getvalue(), err.getvalue(), wall, cpu)


def judge(op, res) -> tuple[str, str] | None:
    """(kind, message) for a failed command, None when it is correct."""
    if res.error is not None:
        # only a limit probe (a command with no check) may raise and leave the
        # run correct: the known crash of ROADMAP item 4 is counted, not fatal
        return ("raised" if op.check is None else "wrong"), res.error
    if res.rc not in op.codes:
        return "wrong", f"exit {res.rc}, expected {op.codes}: {res.stderr.strip()[:120]}"
    if op.check is None:
        return None
    try:
        mismatch = op.check(res.rc, res.stdout)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        mismatch = f"unreadable output: {type(exc).__name__}: {exc}"
    return None if mismatch is None else ("wrong", mismatch)


def machine_note() -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = head
        if head.startswith("ref: "):
            commit = (ROOT / ".git" / head[5:]).read_text().strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "jordanloops").glob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 tamper=None) -> dict:
    """Measure one workload; ``tamper(op, result)`` lets the self-test corrupt
    an output between the command and its check."""
    def set_up():
        jl, cli = import_package()
        return jl, cli, workload.setup(jl, random.Random(seed), workdir)

    jl, cli, ops = set_up()

    tracer = tracing.Tracer() if trace else None
    span_cost = tracing.span_cost_s() if trace else 0.0
    if tracer:
        tracer.install()
    passes, failures = [], []
    attempted = 0
    try:
        start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            results = [execute(cli, op.argv, tracer) for op in ops]
            if not passes:
                # before any check: later passes also hold the checks' caches
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            spans = tracer.take() if tracer else []
            for op, res in zip(ops, results):
                if tamper:
                    tamper(op, res)
                bad = judge(op, res)
                if bad:
                    failures.append((bad[0], " ".join(op.argv[:3]), bad[1]))
            attempted += len(ops)
            wall = sum(r.wall for r in results)
            record = {"wall_s": wall, "cpu_s": sum(r.cpu for r in results),
                      "labels": {op.label: r.wall for op, r in zip(ops, results) if op.label}}
            if trace:
                layers = tracing.layer_metrics(spans, workload.counts())
                overhead = len(spans) * span_cost
                layers["trace.overhead_frac"] = overhead / max(wall - overhead, 1e-9)
                record["layers"] = layers
                record["spans"] = tracing.summarise(spans)
            passes.append(record)
            if time.perf_counter() - start + (time.perf_counter() - t_pass) > seconds:
                break
        if trace:
            probes, mismatches, fill = workload.probe(jl, tracer, random.Random(seed))
            attempted += probes
            failures += [("wrong", "propagate probe", m) for m in mismatches]
            probe_us = tracing.propagate_us(tracer.take())
    finally:
        if tracer:
            tracer.restore()
    # Set-up is timed after the passes: the heap left by dozens of re-imports
    # would make peak_rss_mb of the first pass vary from run to run.
    setups = []
    for _ in range(SETUP_SAMPLES):
        rounds, t0 = 0, time.perf_counter()
        while time.perf_counter() - t0 < SETUP_SAMPLE_S:
            set_up()
            rounds += 1
        setups.append((time.perf_counter() - t0) / rounds)

    if trace:
        metrics = {name: statistics.median(p["layers"][name] for p in passes)
                   for name in passes[0]["layers"]}
        metrics["search.propagate_us"] = probe_us
        metrics["search.propagate_fill_ratio"] = fill
        units = tracing.UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = E2E_UNITS
    labels = {k: statistics.median(p["labels"][k] for p in passes) for k in passes[0]["labels"]}
    crosscheck = []
    if trace:
        for what, roadmap, measured in workload.crosscheck(metrics, labels):
            off = None if measured is None else measured / roadmap - 1
            crosscheck.append({"what": what, "roadmap_s": roadmap, "measured_s": measured,
                               "outside_noise": off is not None and abs(off) > NOISE})
    return {
        "correct": not any(kind == "wrong" for kind, _, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "passes": len(passes),
        "setup_samples_s": setups,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "failures": [{"kind": k, "command": c, "detail": d} for k, c, d in failures],
        "crosscheck": crosscheck,
        "spans": passes[-1].get("spans", []),
    }


def report(name, seed, seconds, trace, result, note):
    """Print every metric by name with its unit, then the JSON line."""
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{name} failed_share {share:.6g} ratio ({result['failed']} of {result['attempted']},"
          f" {result['passes']} pass(es))")
    for f in result["failures"]:
        print(f"{name} FAILED [{f['kind']}] {f['command']}: {f['detail']}", file=sys.stderr)
    for row in result["crosscheck"]:
        measured = "not measured" if row["measured_s"] is None else f"{row['measured_s']:.3f} s"
        flag = "  OUTSIDE NOISE" if row["outside_noise"] else ""
        print(f"{name} baseline {row['what']}: ROADMAP {row['roadmap_s']} s, here {measured}{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": note, "failed_share": share, **result}
    path = out / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(seed, seconds):
    """Each workload in a fresh process, untraced then traced, then the
    tracing overhead measured as traced over untraced wall time."""
    untraced_wall = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"{name} --trace {trace} exited with {proc.returncode}")
            if trace == 0:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                untraced_wall[name] = result["metrics"]["wall_s"]["value"]
    for name, untraced in untraced_wall.items():
        record = json.loads((HERE / "out" / f"BENCH_{name}_seed{seed}_trace1.json").read_text())
        traced = statistics.median(record["pass_wall_s"])
        print(f"{name} measured tracing overhead {traced / untraced - 1:.4f} ratio"
              f" (traced {traced:.3f} s / untraced {untraced:.3f} s - 1)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args.seed, args.seconds)
        return 0
    workload = WORKLOADS[args.workload]
    note = machine_note()
    workdir = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    note["loadavg_end"] = os.getloadavg()
    report(args.workload, args.seed, args.seconds, bool(args.trace), result, note)
    return 0


if __name__ == "__main__":
    sys.exit(main())

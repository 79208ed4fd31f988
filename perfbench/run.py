#!/usr/bin/env python3
"""Benchmark of the sperner CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads: search-exact, search-setup, construct-verify (perfbench/NOTES.md).

--trace 0 times whole passes over the workload's case list, one CLI
process per case, closed loop with one client, repeating passes while the
next one is predicted to end within --seconds (at least one pass).  It
reports the end-to-end metrics:

  setup_s      median over SETUP_REPS of: a fresh `import sperner` process
               plus writing the workload's inputs and expectations
  wall_s       one pass over the case list, each case at its median
               wall time over the run's passes
  peak_rss_mb  median over passes of the largest case peak RSS
  pass_ratio   passed cases / attempted cases (1 - fail_ratio)

--trace 1 makes one CLI pass, then replays the passed cases in-process
through each layer's public functions, once untraced and once with a span
around every call, and reports the per-layer metrics.

Every case's output is checked.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; `correct` is false
only if some case finished within its cap with a wrong result.  Case
records and spans are written under .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "sperner" / "__init__.py").is_file():
    sys.exit(f"error: no package at {SRC / 'sperner'}; run perfbench/run.py from the root of a checkout")
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (imports sperner from SRC)
from tracing import Tracer  # noqa: E402

SETUP_REPS = 5
# the search command's stderr line
SEARCH_STATS = re.compile(r"nodes (\d+), elapsed [0-9.]+s, root bound (\d+)")

# Runs the CLI like `python -m sperner.cli ARGS` and writes the process's
# peak RSS (VmHWM, kB) to the file named by the first argument at exit.
# ru_maxrss from wait4 is no use here: on Linux a child's starts at the
# high-water mark of the parent it was forked from, the benchmark itself.
RUN_CLI = """
import atexit, runpy, sys
out = sys.argv.pop(1)
def report():
    with open('/proc/self/status') as status:
        kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))
    with open(out, 'w') as f:
        f.write(kb)
atexit.register(report)
runpy.run_module('sperner.cli', run_name='__main__', alter_sys=True)
"""


def spawn(argv: list[str], cap: float, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) -> tuple[int, bool]:
    """Run a child to its end, killing it at the cap; returns (exit code, killed).

    The wait blocks in waitid instead of polling, so times are not rounded
    to a polling interval.  waitid(WNOWAIT) sees the exit without reaping,
    so the watchdog can never signal a reaped (and possibly reused) pid.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=workloads.ENV, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(cap, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        proc.kill()
        raise
    finally:
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        proc.wait()
    return proc.returncode, state["killed"]


def run_case(case, workdir: Path) -> dict:
    if case.witness is not None:
        case.witness.unlink(missing_ok=True)
    out_path, err_path, rss_path = workdir / "stdout", workdir / "stderr", workdir / "peak_rss_kb"
    rss_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        code, killed = spawn([sys.executable, "-c", RUN_CLI, str(rss_path), *case.argv], case.cap, out, err)
        wall = time.perf_counter() - start
    record = {
        "case": case.id,
        "exit": code,
        "wall_s": wall,
        "rss_mb": int(rss_path.read_text()) / 1024 if rss_path.is_file() else None,
        "timed_out": killed,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        **case.info,
    }
    stats = SEARCH_STATS.search(err_path.read_text(encoding="utf-8", errors="replace"))
    if stats:
        record["nodes"], record["root_bound"] = int(stats[1]), int(stats[2])
    if case.budget is not None:
        record["budget_overshoot_s"] = wall - case.budget
    return record


def gate(case, record: dict, verdicts: dict) -> str | None:
    """Failure reason for one case run, or None; verdicts cache checks of identical outputs."""
    if record["timed_out"]:
        return f"ran past the {case.cap:g} s cap"
    witness = case.witness.read_bytes() if case.witness is not None and case.witness.is_file() else b""
    key = (
        case.id,
        record["exit"],
        hashlib.sha256(record["stdout"].encode()).hexdigest(),
        hashlib.sha256(witness).hexdigest(),
    )
    if key not in verdicts:
        verdicts[key] = case.check(record["stdout"], record["exit"])
    return verdicts[key]


def run_pass(cases, workdir: Path, verdicts: dict) -> list[dict]:
    records = []
    for case in cases:
        record = run_case(case, workdir)
        record["failure"] = gate(case, record, verdicts)
        del record["stdout"]
        records.append(record)
    return records


def setup(workload: str, seed: int, workdir: Path):
    """Time SETUP_REPS preparations; returns (median seconds, each rep, cases of the last rep)."""
    reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        code, killed = spawn([sys.executable, "-c", "import sperner"], 60)
        if code or killed:
            raise RuntimeError(f"`import sperner` failed: exit {code}")
        cases = workloads.build(workload, seed, workdir)
        reps.append(time.perf_counter() - start)
    return median(reps), reps, cases


def end_to_end(cases, seconds: float, workdir: Path) -> tuple[list[list[dict]], dict]:
    passes, verdicts = [], {}
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(cases, workdir, verdicts))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    per_case = zip(*([r["wall_s"] for r in p] for p in passes))
    metrics = {
        "wall_s": (sum(median(walls) for walls in per_case), "s"),
        "peak_rss_mb": (median(max(r["rss_mb"] or 0 for r in p) for p in passes), "MB"),
    }
    return passes, metrics


def safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(cases, workdir: Path) -> tuple[list[list[dict]], dict, dict]:
    cli = run_pass(cases, workdir, {})
    # a case that failed in the CLI (for example one past its cap) would
    # fail or run unbounded in-process too, so only passed cases replay
    replayed = [c for c, r in zip(cases, cli) if r["failure"] is None]

    def replay(tracer) -> float:
        start = time.perf_counter()
        for case in replayed:
            with tracer.span("case", case.id):
                case.replay(tracer)
        return time.perf_counter() - start

    untraced_s = replay(Tracer(False))
    tracer = Tracer(True)
    traced_s = replay(tracer)

    t = tracer.totals()

    def get(name: str, key: str = "s") -> float:
        return t.get(name, {}).get(key, 0)

    clique_s = get("search.max_clique")
    construct_s = sum(agg["s"] for name, agg in t.items() if name.startswith("construct."))
    constructed = sum(agg.get("partitions", 0) for name, agg in t.items() if name.startswith("construct."))
    durations = tracer.case_durations()
    cli_walls = {r["case"]: r["wall_s"] for r in cli}
    overheads = [cli_walls[cid] - d for cid, d in durations.items()]
    budget = [r["budget_overshoot_s"] for r in cli if "budget_overshoot_s" in r]
    metrics = {
        "search.enumerate_partitions.s": (get("search.enumerate_partitions"), "s"),
        "search.enumerate_partitions.candidates": (get("search.enumerate_partitions", "candidates"), "count"),
        "search.build_graph.s": (get("search.build_graph"), "s"),
        "search.build_graph.adj_bytes": (get("search.build_graph", "adj_bytes"), "bytes-computed"),
        "search.max_clique.s": (clique_s, "s"),
        "search.max_clique.nodes": (get("search.max_clique", "nodes"), "count"),
        "search.max_clique.nodes_per_s": (safe_ratio(get("search.max_clique", "nodes"), clique_s), "1/s"),
        "search.max_clique.root_bound": (get("search.max_clique", "root_bound"), "count"),
        "search.max_clique.size": (get("search.max_clique", "size"), "count"),
        "search.max_clique.bound_tightness": (
            safe_ratio(get("search.max_clique", "size"), get("search.max_clique", "root_bound")),
            "ratio",
        ),
        "search.budget_overshoot_s": (median(budget) if budget else 0.0, "s"),
        "model.verify_sperner.s": (get("model.verify_sperner"), "s"),
        "model.verify_sperner.classes": (get("model.verify_sperner", "classes"), "count"),
        "model.verify_sperner.violations": (get("model.verify_sperner", "violations"), "count"),
        "rotation.solve_initial_2k1.s": (get("rotation.solve_initial_2k1"), "s"),
        "rotation.check_difference_property.s": (get("rotation.check_difference_property"), "s"),
        "rotation.develop.s": (get("rotation.develop"), "s"),
        "construct.construct_auto.s": (get("construct.construct_auto"), "s"),
        "construct.partitions_per_s": (safe_ratio(constructed, construct_s), "1/s"),
        "formats.parse.s": (get("formats.parse"), "s"),
        "formats.serialize.s": (get("formats.serialize"), "s"),
        "formats.bytes": (get("formats.parse", "bytes") + get("formats.serialize", "bytes"), "bytes"),
        "bounds.sp_bounds.s": (get("bounds.sp_bounds"), "s"),
        "cli.overhead_s": (median(overheads) if overheads else 0.0, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    layers = [{"name": name, **agg} for name, agg in sorted(t.items())]
    trace = {"untraced_s": untraced_s, "traced_s": traced_s, "layers": layers, "spans": tracer.spans}
    return [cli], metrics, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    setup_s, setup_reps, cases = setup(args.workload, args.seed, workdir)
    if args.trace:
        passes, metrics, trace = per_layer(cases, workdir)
    else:
        passes, metrics = end_to_end(cases, args.seconds, workdir)
        trace = None

    records = [r for p in passes for r in p]
    failed = [r for r in records if r["failure"] is not None]
    wrong = [r for r in failed if not r["timed_out"]]
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            **metrics,
            "pass_ratio": ((len(records) - len(failed)) / len(records), "ratio"),
        }

    env_info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    for r in records:
        r.update(env_info)
    budget = [r["budget_overshoot_s"] for r in records if "budget_overshoot_s" in r]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env_info,
        "setup_reps_s": setup_reps,
        "passes": passes,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "fail_ratio": len(failed) / len(records),
        "budget_overshoot_s": median(budget) if budget else None,
    }
    (workdir / "records.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if trace is not None:
        (workdir / "trace.json").write_text(json.dumps(trace) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={env_info['python']} nproc={env_info['nproc']}")
    for i, p in enumerate(passes):
        for r in p:
            if i and r["failure"] is None:
                continue
            extra = "".join(f" {key}={r[key]}" for key in ("nodes", "root_bound", "candidates") if key in r)
            verdict = "ok" if r["failure"] is None else f"FAIL {r['failure']}"
            print(
                f"pass {i} {r['case']:<40} exit={r['exit']:<3} wall={r['wall_s']:.3f}s "
                f"rss={r['rss_mb'] or 0:.1f}MB{extra} {verdict}"
            )
    print(f"passes {len(passes)}, attempted {len(records)}, failed {len(failed)}, fail_ratio {report['fail_ratio']:.4f}")
    if failed:
        print("failed cases: " + ", ".join(sorted({r["case"] for r in failed})))
    if budget:
        print(f"budget_overshoot_s {median(budget):.4f} s")
    if trace is not None:
        print(f"spans {len(trace['spans'])}, untraced replay {trace['untraced_s']:.3f} s, traced {trace['traced_s']:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

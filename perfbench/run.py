"""multlab benchmark: time to answer, checked answers, per-layer trace.

    python3 perfbench/run.py --workload constant-deepen --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each workload runs in its own worker
process (worker.py); this parent enforces a hard wall-clock limit on the
worker, counts the ops of a worker it had to kill as failed, and prints
one line per metric followed by a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of tracing.LAYER_METRICS plus the tracing overhead.  Times of
the workloads in workloads.HOST_SCALED, and every set-up time, are
host-scaled (hostspeed.py); the wall-clock values are printed beside them.  A full
record (environment, every op event, per-pass figures) is written to
perfbench/results/, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import signal
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from worker import OP_TIMEOUT_S  # noqa: E402
from workloads import HOST_SCALED, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END = [
    ("solve_s", "s"),
    ("slowest_task_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
TRACE_EXTRA = [
    ("trace.overhead_s", "s"),
    ("known_defects.failed", "count"),
]
COUNT_UNITS = {"count", "bits", "bytes", "ratio"}


class SetupFailed(Exception):
    """The workload could not even be set up: there is no result to report."""


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": commit,
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, tmp: str,
               events: str, spans: str, limit: float) -> tuple[list[dict], str | None]:
    """Run the worker under a hard limit; returns its events and why it stopped early."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", tmp, "--seconds", str(seconds), "--trace", str(trace),
           "--events", events, "--spans", spans, "--budget", str(limit - 20)]
    # A session of its own, so a kill also reaches the set-up processes it starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    stopped = None
    try:
        _, err = proc.communicate(timeout=limit)
        if proc.returncode != 0:
            stopped = (err.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    except subprocess.TimeoutExpired:
        stopped = f"killed after {limit:.0f} s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    out = []
    if os.path.exists(events):
        with open(events, encoding="utf-8") as fh:
            out = [json.loads(line) for line in fh if line.endswith("\n")]
    return out, stopped


def summarize(events: list[dict], stopped: str | None, trace: int, host_scaled: bool):
    """Fold worker events into (result line, per-pass record, notes)."""
    setup = next((e for e in events if e["event"] == "setup"), None)
    if setup is None:
        raise SetupFailed(stopped or "the worker reported no set-up")
    plan = setup["ops"]
    counted = [e for e in events if e["event"] in ("op", "rerun")]
    probes = [e for e in events if e["event"] == "probe"]
    setups = [e for e in events if e["event"] == "setup_sample"]
    if not setups:
        raise SetupFailed(stopped or "the worker timed no set-up")
    notes = []

    def cost(e: dict, wall: bool = False) -> float:
        if e["error"] is not None:
            return max(e["s"], OP_TIMEOUT_S)
        return e["host_s"] if host_scaled and not wall else e["s"]

    if stopped is not None:
        # The op that hung, and the ops of its pass it kept from running,
        # count as failed; so does a hang after the last complete pass.
        notes.append(f"worker stopped early: {stopped}")
        last = max((e["pass"] for e in counted if e["event"] == "op"), default=0)
        done = [e for e in counted if e["event"] == "op" and e["pass"] == last]
        traced_pass = bool(done) and done[0]["traced"]
        todo = plan[len(done):] or ["(after the last pass)"]
        counted += [{"event": "op" if len(done) < len(plan) else "rerun", "pass": last,
                     "traced": traced_pass, "name": n, "s": OP_TIMEOUT_S,
                     "error": f"not finished: {stopped}"} for n in todo]
    by_pass: dict[int, list[dict]] = {}
    for e in counted:
        if e["event"] == "op":
            by_pass.setdefault(e["pass"], []).append(e)
    attempted = len(counted)
    failures = [e for e in counted if e["error"] is not None]
    failed = len(failures)
    for e in failures:
        notes.append(f"FAILED {e['name']} (pass {e['pass']}): {e['error']}")

    untraced = [evs for evs in by_pass.values() if evs and not evs[0]["traced"]]
    traced = [evs for evs in by_pass.values() if evs and evs[0]["traced"]]
    solve = [sum(cost(e) for e in evs) for evs in untraced]
    slowest = [max(cost(e) for e in evs) for evs in untraced]
    end = next((e for e in events if e["event"] == "end"), None)

    record = {"passes": {str(p): evs for p, evs in sorted(by_pass.items())},
              "probes": probes, "setup_samples": setups, "worker_setup": setup,
              "host_scaled": host_scaled,
              "wall": {"solve_s_per_pass": [sum(cost(e, True) for e in evs) for evs in untraced],
                       "slowest_task_s_per_pass": [max(cost(e, True) for e in evs)
                                                   for evs in untraced],
                       "setup_s_samples": [e["s"] for e in setups]}}
    correct = failed == 0 and stopped is None
    if trace == 0:
        values = {
            "solve_s": median(solve),
            "slowest_task_s": median(slowest),
            "setup_s": median(e["host_s"] for e in setups),
            "peak_rss_mib": (end["rss_kib"] if end else
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
        }
        units = dict(END_TO_END)
        wall = record["wall"]
        if host_scaled:
            notes.append(f"times are host-scaled; wall clock: "
                         f"solve_s {median(wall['solve_s_per_pass']):.4f} s, slowest_task_s "
                         f"{median(wall['slowest_task_s_per_pass']):.4f} s")
        notes.append(f"set-up wall clock: {median(wall['setup_s_samples']):.4f} s, "
                     f"median of {len(setups)}")
        record["solve_s_per_pass"] = solve
        record["slowest_task_s_per_pass"] = slowest
    else:
        layers = [e["layers"] for e in events if e["event"] == "pass" and e["traced"]]
        units = dict(LAYER_METRICS + TRACE_EXTRA)
        if not layers:
            raise SetupFailed(stopped or "no traced pass completed")
        if len(layers) < 2:
            correct = False
            notes.append("FAILED only one traced pass ran: its counts could not be compared")
        values = {}
        for name, unit in LAYER_METRICS:
            seen = [layer[name] for layer in layers]
            if unit in COUNT_UNITS and len(set(seen)) > 1:
                correct = False
                notes.append(f"FAILED count {name} differs between traced passes: {seen}")
            values[name] = seen[0] if unit in COUNT_UNITS else median(seen)
        traced_solve = [sum(cost(e) for e in evs) for evs in traced]
        values["trace.overhead_s"] = median(traced_solve) - median(solve)
        values["known_defects.failed"] = sum(e["error"] is not None for e in probes)
        record["layers_per_pass"] = layers
    for e in probes:
        notes.append(f"known defect {e['name']}: " + ("still fails: " + e["error"] if e["error"]
                                                      else "now passes"))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    record["passes_timed"] = len(untraced)
    return result, record, notes


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict):
    os.makedirs(RESULTS, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS)
    try:
        stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}")
        events, stopped = run_worker(workload, seed, seconds, trace, tmp,
                                     os.path.join(tmp, "events.jsonl"), stem + "-spans.json",
                                     RUN_LIMIT_S)
        result, record, notes = summarize(events, stopped, trace, workload in HOST_SCALED)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "env": env, "result": result, "notes": notes, **record}, fh, indent=1)
    return result, record, notes


def _print_workload(workload: str, result: dict, record: dict, notes: list[str]):
    print(f"== {workload}: {record['passes_timed']} timed passes, "
          f"{result['attempted']} ops, correct={result['correct']}")
    ratio = result["failed"] / result["attempted"]
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6f} {m['unit']}")
    print(f"  {'failed_ratio':38s} {ratio:14.6f} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for note in notes:
        print(f"  {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="multlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "multlab", "__init__.py")):
        print(f"run.py: no multlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1

    env = environment()
    print("env " + json.dumps(env))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, record, notes = run_workload(name, args.seed, args.seconds, args.trace, env)
        except SetupFailed as exc:
            print(f"run.py: {name} could not be set up: {exc}", file=sys.stderr)
            return 1
        _print_workload(name, result, record, notes)
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: one workload, timed passes, JSON-lines events.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --tmp DIR --events FILE [--spans FILE] [--budget S]
    python3 perfbench/worker.py --setup-only --workload NAME --seed N --tmp DIR

The worker imports multlab from the checkout's ``src`` directory, builds the
workload's inputs, then runs passes over its op list for up to ``--seconds``:
at least one (four when traced), and another only while it is expected to
end in time.  With ``--trace 1`` untraced and traced passes alternate, so
the tracing overhead is measured in the same process.  Every op's first
result is checked independently and against the recorded answer; later
results must repeat it, byte for byte for CLI ops.  Before the first pass
and after each pass, the set-up is timed again in fresh processes
(``--setup-only``, which times the set-up alone and prints it), so the
set-up samples are spread over the run.  Events go to the events file as
they happen, so the parent can count the ops of a worker it had to kill.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

from checks import CheckFailed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CliResult  # noqa: E402

# An op that raises, never finishes or gives a wrong answer is charged this
# many seconds, so a failed op never counts as a fast one.
OP_TIMEOUT_S = 60.0
SETUP_SAMPLES = 3  # fresh-process set-ups timed before the first pass and after each pass
SETUP_TIMEOUT_S = 20.0


def set_up(workload: str, seed: int, tmp: str, speed: HostSpeed):
    """Import multlab and build the workload's inputs; returns (timing, ops, probes)."""
    mark = speed.mark()
    import multlab
    import multlab.cli  # noqa: F401

    ops, probes = WORKLOADS[workload](tmp, seed)
    took = speed.since(mark)
    if not os.path.abspath(multlab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"multlab was imported from {multlab.__file__}, not from {SRC}")
    return took, ops, probes


def time_setup(workload: str, seed: int, tmp: str) -> dict:
    """Set-up timing of one fresh process, writing its inputs to a directory of its own."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                           "--workload", workload, "--seed", str(seed), "--tmp", tmp],
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class Runner:
    def __init__(self, seed: int, emit, speed: HostSpeed, tracer: Tracer | None,
                 expected: dict):
        self.seed = seed
        self.speed = speed
        self.emit = emit
        self.tracer = tracer
        self.expected = expected
        self.ctx: dict = {"seed": seed}
        self.first: dict[str, tuple[dict, str | None]] = {}
        self.runs: dict[str, int] = {}

    def run_op(self, op, pass_no, traced: bool = False, event: str = "op") -> dict:
        """Time one op, check its answer, emit and return its event."""
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
        result, error = None, None
        mark = self.speed.mark()
        try:
            if traced:
                result = self.tracer.run_op(f"{pass_no}:{op.name}", lambda: op.call(self.ctx))
            else:
                result = op.call(self.ctx)
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {str(exc)[:300]}"
        took = self.speed.since(mark)
        self.runs[op.name] = self.runs.get(op.name, 0) + 1
        ev = {"event": event, "pass": pass_no, "traced": traced, "name": op.name, **took}
        if error is None:
            try:
                self._check(op, result, ev)
            except Exception as exc:  # a check that cannot run is a failed op
                error = f"{type(exc).__name__}: {str(exc)[:300]}"
        ev["error"] = error
        self.emit(ev)
        return ev

    def _check(self, op, result, ev: dict):
        """Check the answer, adding it to ev; a first answer also against the
        recorded one, a later one against the first."""
        sha = None
        if op.out:
            with open(op.out, "rb") as fh:
                data = fh.read()
            sha = hashlib.sha256(data).hexdigest()
            result = CliResult(result, data)
            ev["out_bytes"] = len(data)
        seen = self.first.get(op.name)
        if seen is not None and sha is not None:
            if sha != seen[1]:
                raise CheckFailed("--out bytes differ from the first run of this op")
            return
        answer = op.answer(result, self.ctx)
        if seen is not None:
            if answer != seen[0]:
                raise CheckFailed(f"answer {answer} differs from the first run {seen[0]}")
            return
        ev["answer"] = answer
        if op.recorded or self.seed == DEFAULT_SEED:
            want = self.expected.get(op.name)
            if answer != want:
                raise CheckFailed(f"answer {answer} differs from the recorded {want}")
        self.first[op.name] = (answer, sha)

    def run_pass(self, ops, pass_no: int, traced: bool):
        gc.collect()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            events = [self.run_op(op, pass_no, traced) for op in ops]
        finally:
            if traced:
                self.tracer.uninstall()
        ev = {"event": "pass", "pass": pass_no, "traced": traced}
        if traced:
            out_bytes = sum(e.get("out_bytes", 0) for e in events)
            ev["layers"] = layer_metrics(self.tracer, out_bytes)
        self.emit(ev)


def run(args, speed: HostSpeed):
    """Set up, run the timed passes and write every event to args.events."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(args.events, "a", encoding="utf-8") as events:
        def emit(ev):
            events.write(json.dumps(ev) + "\n")
            events.flush()

        started = perf_counter()
        took, ops, probes = set_up(args.workload, args.seed, args.tmp, speed)
        emit({"event": "setup", **took, "ops": [op.name for op in ops]})
        setup_tmp = os.path.join(args.tmp, "setup")
        os.makedirs(setup_tmp)

        def sample_setups():
            # A child could inherit the sampling timer before it can handle it.
            speed.stop()
            for _ in range(SETUP_SAMPLES):
                emit({"event": "setup_sample",
                      **time_setup(args.workload, args.seed, setup_tmp)})
            speed.start()

        tracer = Tracer() if args.trace else None
        runner = Runner(args.seed, emit, speed, tracer, expected)

        # A traced run needs two traced passes, so its counts can be compared.
        min_passes = 4 if args.trace else 1
        measure_start = perf_counter()
        pass_no, longest = 0, 0.0
        while True:
            t0 = perf_counter()
            sample_setups()
            runner.run_pass(ops, pass_no, traced=bool(args.trace) and pass_no % 2 == 1)
            pass_no += 1
            longest = max(longest, perf_counter() - t0)
            # Start another pass only if one as long as the longest so far
            # still ends within --seconds (and within the parent's budget).
            now = perf_counter()
            if pass_no >= min_passes and now - measure_start + longest > args.seconds:
                break
            if now - started + longest > args.budget:
                break
        sample_setups()
        # Every CLI op runs at least twice, so its --out bytes can be compared.
        for op in ops:
            if op.out and runner.runs[op.name] < 2:
                runner.run_op(op, pass_no, event="rerun")
        for op in probes:
            runner.run_op(op, pass_no, event="probe")
        if tracer is not None and args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
        emit({"event": "end", "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--events")
    ap.add_argument("--spans")
    ap.add_argument("--budget", type=float, default=150.0,
                    help="start no pass that would end later than this")
    args = ap.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    try:
        if args.setup_only:
            print(json.dumps(set_up(args.workload, args.seed, args.tmp, speed)[0]))
        else:
            run(args, speed)
    finally:
        # An armed timer would kill the interpreter while it shuts down.
        speed.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

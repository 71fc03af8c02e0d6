"""Benchmark of chemoflux: closed-loop workloads with optional per-layer tracing.

Run from the repository root:

    python3 bench/run.py --workload ladder_walls --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

One invocation runs one workload.  It generates the inputs from the seed,
times set-up in fresh interpreters, and times the first operation in this
process and in fresh interpreters.  In between it repeats the operation in
a closed loop (one caller, single thread, the next operation starts when
the previous one ends) for --seconds seconds in all, checking the outputs
of every operation.  With --trace 1 the loop alternates plain and traced
operations and reports per-layer metrics and the tracing overhead instead.
Stdout ends with an environment line and the JSON result line.
--self-check runs every workload once at reduced size, checks its outputs,
and confirms that damaged outputs fail the checks.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
FIRST_OP_PROBES = 2
MIN_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "op_s": "s", "first_op_s": "s", "peak_rss_mb": "MB"}


@contextlib.contextmanager
def work_directory():
    """A scratch directory inside the checkout, removed afterwards."""
    base = workloads.ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def env_stamp() -> dict:
    """What the figures depend on: versions, the Thomas backend, cores."""
    from chemoflux import tridiag

    thomas = getattr(tridiag, "_thomas", None)
    if hasattr(thomas, "py_func"):
        backend = "numba"
    elif thomas is not None and thomas is getattr(tridiag, "_thomas_py", None):
        backend = "python"
    else:
        backend = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "tridiag_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Operations attempted, failed, and the problems their checks found."""

    def __init__(self, wl, inputs, inputs_path, op):
        self.wl, self.inputs, self.inputs_path, self.op = wl, inputs, inputs_path, op
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setups = []

    def _count(self, elapsed, problems):
        self.attempted += 1
        if elapsed is None:
            self.failed += 1
        for p in problems:
            print(f"bench: {self.wl.name}: {p}", file=sys.stderr)
        self.problems += problems
        return elapsed

    def run(self, tracer=None):
        """One operation in this process; its seconds, or None if it failed."""
        elapsed, _, problems = workloads.attempt(self.wl, self.inputs, self.op, tracer)
        return self._count(elapsed, problems)

    def probe(self, op):
        """Set-up, and with op the first operation, in a fresh interpreter."""
        argv = [sys.executable, str(HERE / "probe.py"), self.wl.name, self.inputs_path]
        done = subprocess.run(
            argv + (["--op"] if op else []), stdout=subprocess.PIPE, text=True, timeout=150, check=True
        )
        report = json.loads(done.stdout.splitlines()[-1])
        self.setups.append(report["setup_s"])
        return self._count(report["first_op_s"], report["problems"]) if op else None


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def measure(wl, inputs, inputs_path, seconds, trace):
    op = wl.setup(inputs)
    tally = Tally(wl, inputs, inputs_path, op)
    if not trace:
        firsts = [tally.run()]
        times = []
        spent = 0.0
        setup_probes = 0
        # the shared host speeds up and slows down in spells of seconds to
        # minutes, so the fresh-interpreter probes are spread evenly through
        # the loop rather than bunched at its start
        while spent < seconds:
            start = time.perf_counter()
            times.append(tally.run())
            spent += time.perf_counter() - start
            while setup_probes < SETUP_PROBES and spent >= seconds * setup_probes / SETUP_PROBES:
                tally.probe(op=False)
                setup_probes += 1
            while len(firsts) <= FIRST_OP_PROBES and spent >= seconds * len(firsts) / FIRST_OP_PROBES:
                firsts.append(tally.probe(op=True))
        values = {
            "setup_s": _median(tally.setups),
            "op_s": _median(times),
            "first_op_s": _median(firsts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        tracer = tracing.Tracer()
        tally.run()  # warm-up, untraced
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (not traced and tally.attempted <= 2 * MIN_REPEATS):
            plain.append(tally.run())
            elapsed = tally.run(tracer)
            spans = tracer.take()
            if elapsed is not None:
                traced.append(elapsed)
                layers.append(tracing.layer_metrics(spans))
        values = {k: _median([m[k] for m in layers]) for k in layers[0]} if layers else {}
        if _median(plain) and traced:
            values["trace.overhead_pct"] = (_median(traced) / _median(plain) - 1.0) * 100.0
        metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in tracing.UNITS.items()}
    correct = not tally.problems and tally.attempted > tally.failed
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def self_check() -> int:
    """Every workload once at reduced size, traced, through the same checks;
    then each corruption of its outputs must fail them."""
    faults = []
    with work_directory() as wd:
        for wl in workloads.WORKLOADS.values():
            start = time.perf_counter()
            inputs = wl.make_inputs(0, wd, small=True)
            tracer = tracing.Tracer()
            elapsed, outputs, problems = workloads.attempt(wl, inputs, wl.setup(inputs), tracer)
            layers = tracing.layer_metrics(tracer.take())
            if elapsed is None or outputs is None:
                faults.append(f"{wl.name}: the operation failed")
                continue
            faults += [f"{wl.name}: {p}" for p in problems]
            if not layers["tridiag.solve_calls"] and wl.name != "transform_read":
                faults.append(f"{wl.name}: the traced run saw no tridiagonal solves")
            caught = 0
            for label, mutate in wl.corruptions:
                if wl.check(inputs, workloads.corrupted(outputs, mutate)):
                    caught += 1
                else:
                    faults.append(f"{wl.name}: a {label} passed the checks")
            print(
                f"self-check {wl.name}: {len(problems)} problems, "
                f"{caught}/{len(wl.corruptions)} corruptions caught, {time.perf_counter() - start:.2f} s"
            )
    with open(workloads.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != tracing.UNITS:
        faults.append(f"BENCHMARK.json per_layer differs from tracing.UNITS: {declared}")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != E2E_UNITS:
        faults.append(f"BENCHMARK.json end_to_end differs from run.E2E_UNITS: {declared}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        faults.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for fault in faults:
        print(f"self-check FAILED: {fault}")
    print("self-check passed" if not faults else f"self-check: {len(faults)} faults")
    return 1 if faults else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="seconds of repeated operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="quick correctness pass at reduced size")
    args = parser.parse_args(argv)
    workloads.use_sources()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    wl = workloads.WORKLOADS[args.workload]
    with work_directory() as wd:
        inputs = wl.make_inputs(args.seed, wd)
        inputs_path = os.path.join(wd, "inputs.json")
        with open(inputs_path, "w") as f:
            json.dump(inputs, f)
        result = measure(wl, inputs, inputs_path, args.seconds, bool(args.trace))
    print(json.dumps({"env": env_stamp(), "workload": wl.name, "seed": args.seed, "trace": args.trace}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

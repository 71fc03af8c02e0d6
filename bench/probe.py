"""One workload's set-up and, with --op, its first operation, in a fresh
interpreter: what a one-shot caller pays.

    python3 bench/probe.py <workload> <inputs.json> [--op]

Prints one JSON line: setup_s (importing numpy and chemoflux and building
the program objects and configs) and, with --op, first_op_s (null if the
operation failed) and the problems its output checks found.  Interpreter
start-up is not timed.
"""
import json
import sys
import time

if __name__ == "__main__":
    name, inputs_path = sys.argv[1:3]
    with open(inputs_path) as f:
        inputs = json.load(f)
    start = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    op = wl.setup(inputs)
    report = {"setup_s": time.perf_counter() - start}
    if "--op" in sys.argv[3:]:
        elapsed, _, problems = workloads.attempt(wl, inputs, op)
        report.update(first_op_s=elapsed, problems=problems)
    print(json.dumps(report))

"""One workload pass in a fresh interpreter.

Usage: python3 child.py PLAN.json RESULT.json [SPANS.json]

Imports ``beaconsim.cli``, parses the first config (the set-up a user pays
on every CLI call), then runs each planned ``cli.main`` call in order, each
starting when the previous one returns. With SPANS.json the calls are
traced and the spans are written there at the end. The reference loop is
timed on each CPU of the pass right after set-up and again after the last
call; the hypervisor's steal time on those CPUs is read around the calls.
"""

import json
import os
import resource
import sys
import time


def reference_s(cpus: list[int]) -> list[float]:
    """Per CPU of ``cpus``, the median time of a fixed numpy-plus-interpreter
    loop that shares no code with beaconsim: a gauge of how fast the
    machine runs right now."""
    import numpy as np

    x = np.linspace(0.01, 5.0, 50_000)

    def once():
        start = time.perf_counter()
        for _ in range(20):
            y = np.exp(-x) * np.sqrt(x) + np.log1p(x)
            y.sort()
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - start

    per_cpu = []
    for cpu in cpus:
        os.sched_setaffinity(0, [cpu])
        per_cpu.append(sorted(once() for _ in range(3))[1])
    os.sched_setaffinity(0, cpus)
    return per_cpu


def steal_ticks(cpus: list[int]) -> list[int]:
    """Per CPU, the hypervisor's steal counter from /proc/stat (clock
    ticks), or zeros where the kernel does not report it."""
    steal = {}
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) > 8 and fields[0][3:].isdigit():
                    steal[int(fields[0][3:])] = int(fields[8])
    except OSError:
        pass
    return [steal.get(cpu, 0) for cpu in cpus]


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.sched_setaffinity(0, plan["cpus"])

    from beaconsim import cli

    first = plan["calls"][0]
    data = cli.load_config(first["config_path"])
    cli.apply_overrides(data, [])
    cli.check_schema(first["kind"], data)
    cli.Conf(data)
    ready = time.monotonic()
    ref_before = reference_s(plan["cpus"])

    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    steal_before = steal_ticks(plan["cpus"])
    calls = []
    for call in plan["calls"]:
        argv = [call["kind"], "--config", call["config_path"],
                "--out", call["out_path"], "--format", call["fmt"],
                "--threads", str(plan["threads"])]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash counts as a failed call
            print(f"child: {call['kind']} raised {exc!r}", file=sys.stderr)
            code = -1
        calls.append({"code": code, "wall_s": time.perf_counter() - start})

    steal = [b - a for a, b in zip(steal_before, steal_ticks(plan["cpus"]))]
    result = {
        "ready_monotonic": ready,
        "steal_ticks": steal,
        "reference_s": ref_before + reference_s(plan["cpus"]),
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

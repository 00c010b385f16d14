"""beaconsim benchmark: one workload, end to end or per layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass is one fresh child interpreter that imports ``beaconsim.cli`` and
calls ``cli.main`` once per planned invocation, each call starting when the
previous one returns (a single closed-loop client, no arrival rate).

--trace 0 runs rounds of 1-thread and nproc-thread passes for about S
seconds and reports the end-to-end metrics. --trace 1 runs two untraced and
two traced 1-thread passes, the kernel pass and the import timings, and
reports the per-layer metrics. Both check the outputs. The last stdout line
is the JSON result; a provenance record is printed before it and saved with
the result under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
MIN_ROUNDS = 2
MAX_ROUNDS = 8
HARD_LIMIT_S = 170.0  # every child is killed before the 180 s run limit
# Median time of child.reference_s on the 2-vCPU VM the benchmark was tuned
# on. End-to-end times are reported in seconds of that machine (see README).
REFERENCE_S = 0.025
DEFAULT_CHUNK = 1_000_000  # beaconsim.mc.CHUNK, for the provenance record
IMPORT_RUNS = 3


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.root = os.getcwd()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.nproc = len(self.cpus)
        self.plan = workloads.make_plan(workload, seed)
        self.work = os.path.join(self.root, WORK_DIR,
                                 f"{workload}-s{seed}-{os.getpid()}")
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.checks: list = []
        self.calls_attempted = 0
        self.calls_failed = 0

    # -- child processes ---------------------------------------------------

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        return subprocess.run([sys.executable, *args], env=self.env,
                              cwd=self.root, capture_output=True, text=True,
                              timeout=max(remaining, 1.0))

    def write_configs(self) -> None:
        os.makedirs(self.work)
        for inv in self.plan:
            inv["config_path"] = os.path.join(self.work, inv["name"] + ".ini")
            with open(inv["config_path"], "w", encoding="utf-8") as fh:
                fh.write(inv["config"])

    def run_pass(self, threads: int, tag: str, traced: bool = False,
                 cpus: list[int] | None = None) -> dict:
        """One child pass on ``cpus`` (default all); returns timings, exit
        codes and output bytes."""
        pdir = os.path.join(self.work, tag)
        os.makedirs(pdir)
        calls = [{"kind": inv["kind"], "config_path": inv["config_path"],
                  "fmt": inv["fmt"],
                  "out_path": os.path.join(pdir, f"{inv['name']}.{inv['fmt']}")}
                 for inv in self.plan]
        plan_path = os.path.join(pdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump({"threads": threads, "calls": calls,
                       "cpus": cpus or self.cpus}, fh)
        result_path = os.path.join(pdir, "result.json")
        args = [os.path.join(BENCH_DIR, "child.py"), plan_path, result_path]
        if traced:
            args.append(os.path.join(pdir, "spans.json"))
        spawned = time.monotonic()
        proc = self._child(args)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"pass {tag} exited with {proc.returncode}")
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        self.calls_attempted += len(calls)
        outputs = {}
        for inv, call, rec in zip(self.plan, calls, res["calls"]):
            if rec["code"] != 0:
                self.calls_failed += 1
            elif os.path.exists(call["out_path"]):
                with open(call["out_path"], "rb") as fh:
                    outputs[inv["name"]] = fh.read()
        # time the hypervisor ran something else on a CPU of the pass; one
        # stalled thread holds up the others, so the most-stolen CPU counts
        steal_s = max(res["steal_ticks"]) / os.sysconf("SC_CLK_TCK")
        raw_wall = sum(c["wall_s"] for c in res["calls"])
        out = {
            "threads": threads,
            "setup_s": res["ready_monotonic"] - spawned,
            "wall_s": raw_wall - steal_s,
            "raw_wall_s": raw_wall,
            "steal_s": steal_s,
            "reference_s": res["reference_s"],
            "rss_mb": res["maxrss_kb"] / 1024.0,
            "outputs": outputs,
        }
        if traced:
            with open(args[-1], encoding="utf-8") as fh:
                out["trace"] = tracing.summarize(json.load(fh))
        return out

    def parsed(self, outputs: dict) -> dict:
        by_name = {inv["name"]: inv for inv in self.plan}
        rows = {}
        for name, data in outputs.items():
            try:
                rows[name] = checks.parse_rows(data, by_name[name]["fmt"])
            except (ValueError, KeyError) as exc:
                self.checks.append((f"{name}: output parses", False, repr(exc)))
        return rows

    # -- end-to-end run ------------------------------------------------------

    def end_to_end(self) -> dict:
        # A round runs one 1-thread pass on each CPU in turn, each followed
        # by an nproc-thread pass, so a core that is slower for a while (the
        # machine is shared) weighs the same as the others in the median.
        # Rounds repeat while the next one still fits in the time budget.
        passes = {1: [], self.nproc: []}
        t0 = time.monotonic()
        for rnd in range(MAX_ROUNDS):
            round_start = time.monotonic()
            for cpu in self.cpus:
                tag = f"r{rnd}-c{cpu}"
                passes[1].append(self.run_pass(1, tag + "-t1", cpus=[cpu]))
                if self.nproc > 1:
                    passes[self.nproc].append(
                        self.run_pass(self.nproc, tag + "-tn"))
            now = time.monotonic()
            if rnd + 1 >= MIN_ROUNDS and \
                    now + (now - round_start) - t0 > self.seconds:
                break
        single, multi = passes[1], passes[self.nproc]
        every = single + multi if self.nproc > 1 else single

        rows = self.parsed(single[0]["outputs"])
        self.checks += checks.output_checks(self.workload, self.plan, rows)
        self.checks += checks.identity_checks(
            self.plan, single[0]["outputs"],
            [p["outputs"] for p in every[1:]],
            f"bytes identical across reruns and threads 1/{self.nproc}")

        # times in seconds of a machine on which the reference loop takes
        # REFERENCE_S; the run's median reference gauges its speed (README)
        reference = statistics.median(r for p in every for r in p["reference_s"])
        scale = REFERENCE_S / reference
        work = sum(inv["trial_points"] for inv in self.plan)
        st = statistics.median(work / p["wall_s"] for p in single) / scale
        mt = statistics.median(work / p["wall_s"] for p in multi) / scale
        wall1 = statistics.median(p["wall_s"] for p in single) * scale
        rse = checks.max_rel_se(self.plan, rows)
        return {
            "trial_points_per_s": st,
            "trial_points_per_s_mt": mt,
            "scaling_eff": mt / (self.nproc * st),
            "setup_s": statistics.median(p["setup_s"] for p in every) * scale,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in multi),
            "time_to_rse1pct_s": wall1 * (rse / 0.01) ** 2,
            "order_rel_err": checks.order_rel_err(self.plan, rows),
        }, {"reference_s": reference, "scale": scale,
            **{f"pass_{key}": {t: [round(p[key], 4) for p in ps]
                              for t, ps in passes.items()}
               for key in ("wall_s", "setup_s", "steal_s")}}

    # -- per-layer run -------------------------------------------------------

    def per_layer(self) -> tuple[dict, dict]:
        # untraced and traced passes alternate on one CPU, so the overhead
        # compares like with like
        cpu = [self.cpus[0]]
        untraced, traced = [], []
        for i in (0, 1):
            untraced.append(self.run_pass(1, f"untraced{i}", cpus=cpu))
            traced.append(self.run_pass(1, f"traced{i}", traced=True, cpus=cpu))

        rows = self.parsed(untraced[0]["outputs"])
        self.checks += checks.output_checks(self.workload, self.plan, rows)
        self.checks += checks.identity_checks(
            self.plan, untraced[0]["outputs"],
            [p["outputs"] for p in untraced[1:] + traced],
            "bytes identical on rerun and with tracing on")
        sums = [p["trace"] for p in traced]
        layer_counts = [trace_counts(s, self.plan) for s in sums]
        self.checks.append(("trace counts repeat exactly across two runs",
                            layer_counts[0] == layer_counts[1],
                            f"{layer_counts[0]} vs {layer_counts[1]}"))

        m = {f"{layer}.self_s": statistics.mean(s["self_s"][layer]
                                                for s in sums)
             for layer in tracing.LAYERS}
        m.update(layer_counts[0])
        # span times include steal, so these compare uncorrected walls
        traced_wall = statistics.mean(p["raw_wall_s"] for p in traced)
        untraced_wall = statistics.mean(p["raw_wall_s"] for p in untraced)
        m["trace.overhead_pct"] = \
            100.0 * (traced_wall - untraced_wall) / untraced_wall
        self_total = statistics.mean(sum(s["self_s"].values()) for s in sums)
        m["trace.unaccounted_pct"] = \
            100.0 * (traced_wall - self_total) / traced_wall
        m["capacity.outage_bytes"] = _outage_bytes(self.plan)
        m.update(self.kernels())
        m.update(self.import_times())
        return m, {"traced_wall_s": traced_wall,
                   "untraced_wall_s": untraced_wall}

    def kernels(self) -> dict:
        out_path = os.path.join(self.work, "kernels.json")
        first = self.plan[0]
        proc = self._child([os.path.join(BENCH_DIR, "kernels.py"), out_path,
                            str(self.seed), first["config_path"],
                            first["kind"]])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("kernel pass failed")
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)

    def import_times(self) -> dict:
        code = ("import time; t = time.perf_counter(); import beaconsim.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(IMPORT_RUNS):
            proc = self._child(["-c", code])
            if proc.returncode != 0:
                raise RuntimeError(f"import failed: {proc.stderr}")
            times.append(float(proc.stdout))
        proc = self._child(["-X", "importtime", "-c", "import beaconsim.cli"])
        scipy_us = 0
        for line in proc.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
                scipy_us += int(parts[0].split(":")[1])
        return {"cli.import_s": statistics.median(times),
                "cli.import_scipy_s": scipy_us / 1e6}

    # -- provenance ------------------------------------------------------------

    def provenance(self) -> dict:
        rec = {"workload": self.workload, "seed": self.seed,
               "nproc": self.nproc, "cpu_model": _cpu_model(),
               "python": platform.python_version()}
        proc = self._child(["-c", "import numpy, scipy; "
                            "print(numpy.__version__, scipy.__version__)"])
        if proc.returncode == 0:
            rec["numpy"], rec["scipy"] = proc.stdout.split()
        rec["caches"] = _caches()
        chunks = sorted({inv["chunk"] for inv in self.plan})
        rec["working_set_computed_bytes"] = {
            "note": "per-chunk arrays of 3 float64 per trial, computed from "
                    "sizes; no bandwidth was measured",
            "default_chunk_1e6_trials": DEFAULT_CHUNK * 3 * 8,
            **{f"workload_chunk_{c}_trials": c * 3 * 8 for c in chunks},
        }
        rec["git_commit"] = _git_commit(self.root)
        rec["src_lines"] = _src_lines(os.path.join(self.root, "src"))
        return rec


def trace_counts(summary: dict, plan: list[dict]) -> dict:
    calls = summary["calls"]

    def total(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    work = sum(inv["trial_points"] for inv in plan)
    return {
        "mc.chunks": sum(v for k, v in calls.items()
                         if k.endswith(".chunk_worker")),
        "mc.substreams": calls.get("mc.substream", 0),
        "draw.calls": total("draw."),
        "draw.values_per_trial_point": summary["draw_rows"] / work,
        "fadeprob.calls": total("fadeprob."),
        "protocols.calls": total("protocols."),
        "numerics.gaussian_q_calls": calls.get("numerics.gaussian_q", 0),
    }


def tally(bench: Bench) -> tuple[int, int]:
    """(attempted, failed): CLI calls plus output checks; a failure is a
    nonzero exit or a failed check, so failed / attempted is fail_ratio."""
    failed_checks = sum(1 for _, ok, _ in bench.checks if not ok)
    return (bench.calls_attempted + len(bench.checks),
            bench.calls_failed + failed_checks)


def _outage_bytes(plan: list[dict]) -> int:
    """Bytes outage_capacity materialises, computed from sizes: the n x 2
    float64 chunk parts plus their concatenation, for the largest call."""
    return max((inv["n"] * 2 * 8 * 2 for inv in plan
                if inv["kind"] == "capacity-outage"), default=0)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    """L2/L3 sizes of CPU 0 as the kernel reports them."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            level, kind, size = (
                open(os.path.join(base, entry, f), encoding="utf-8")
                .read().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}_{kind.lower()}"] = size
    return out


def _git_commit(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else \
        "unknown (not a git checkout)"


def _src_lines(src: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "beaconsim", "cli.py")):
        print("perfbench: run from the root of a beaconsim checkout "
              "(src/beaconsim/cli.py not found)", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        bench.write_configs()
        if args.trace:
            metrics, info = bench.per_layer()
        else:
            metrics, info = bench.end_to_end()
        units = _declared_units("per_layer" if args.trace else "end_to_end")
        if set(units) != set(metrics):
            raise RuntimeError("metrics differ from BENCHMARK.json: "
                               f"{sorted(set(units) ^ set(metrics))}")
        prov = bench.provenance()
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    attempted, failed = tally(bench)
    for name, ok, detail in bench.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    print(f"fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    for k, v in result["metrics"].items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    record = {"provenance": prov, "info": info, "result": result,
              "checks": bench.checks}
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    rec_path = os.path.join(
        WORK_DIR, "results",
        f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    with open(rec_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


def _declared_units(section: str) -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. The workload generator is a pure function of the seed.
2. Every output check can fail: corrupted rows and differing thread outputs
   each raise the failure count.
3. Two traced runs of one seed give identical counts (runs child passes of
   the smallest workload, about a minute).
"""

from __future__ import annotations

import copy
import io
import json
import os
import shutil
import sys

import checks
import run
import workloads


def _csv(rows: list[dict]) -> bytes:
    buf = io.StringIO()
    buf.write(",".join(rows[0]) + "\n")
    for r in rows:
        buf.write(",".join("%.10g" % v if isinstance(v, float) else str(v)
                           for v in r.values()) + "\n")
    return buf.getvalue().encode()


def test_generator_is_pure() -> None:
    for w in workloads.WORKLOADS:
        a, b = workloads.make_plan(w, 7), workloads.make_plan(w, 7)
        assert json.dumps(a) == json.dumps(b), w
        assert json.dumps(a) != json.dumps(workloads.make_plan(w, 8)), w
        assert workloads.run_seed(w, 7) == workloads.run_seed(w, 7)


def _failures(results) -> int:
    return sum(1 for _, ok, _ in results if not ok)


def _good_tail_rows(plan) -> dict:
    rows = {}
    for inv in plan:
        nominal = inv["check"]["nominal"]
        rows[inv["name"]] = [
            {"rho_db": r, "estimate": 0.3 * (10 ** (r / 10)) ** -nominal,
             "std_error": 1e-3 * 0.3 * (10 ** (r / 10)) ** -nominal}
            for r in workloads.TAIL_GRID]
    # nc rows exactly on the closed form
    for row in rows["miss-nc"]:
        row["estimate"] = checks.exp_q_mean(2 * 10 ** (row["rho_db"] / 10), 1.0)
    return rows


def test_tail_checks_fail_on_corruption() -> None:
    plan = workloads.make_plan("tail-sweep", 1)
    rows = _good_tail_rows(plan)
    assert _failures(checks.output_checks("tail-sweep", plan, rows)) == 0
    bad = copy.deepcopy(rows)
    bad["miss-nc"][3]["estimate"] *= 1.5
    assert _failures(checks.output_checks("tail-sweep", plan, bad)) >= 1
    bad = copy.deepcopy(rows)
    for row in bad["miss-ocsa"]:
        row["estimate"] = (10 ** (row["rho_db"] / 10)) ** -1.0
    assert _failures(checks.output_checks("tail-sweep", plan, bad)) >= 1


def _good_capacity_rows() -> dict:
    erg = [{"rho_db": r, "upper_mean": 1.0 + r, "upper_se": 0.01,
            "lower_mean": 0.5 + r, "lower_se": 0.01} for r in (0.0, 10.0)]
    imp = [{**e, "sigma2": s2, "relative_upper_loss": 0.0,
            "wrong_relay_mc": 0.01 * s2, "wrong_relay_se": 1e-4,
            "wrong_relay_bound": 0.02 * s2 + 0.001}
           for e in erg for s2 in (0.0, 0.1)]
    return {
        "ergodic": erg,
        "imperfect": imp,
        "outage": [{"rho_db": 0.0, "epsilon": 0.1, "upper": 1.0,
                    "lower": 0.5}],
        "throughput": [{"w1": 0.1, "w2": 0.1, "loss_mc": 0.1,
                        "loss_se": 0.001, "loss_bound": 0.2}],
    }


def test_capacity_checks_fail_on_corruption() -> None:
    plan = [inv for inv in workloads.make_plan("capacity-mix", 1)
            if not inv["kind"] == "joint-sweep"]
    rows = _good_capacity_rows()
    assert _failures(checks.output_checks("capacity-mix", plan, rows)) == 0
    corruptions = [
        lambda r: r["outage"][0].update(lower=2.0),            # lower > upper
        lambda r: r["ergodic"][0].update(lower_mean=9.0),      # lower > upper
        lambda r: r["imperfect"][0].update(upper_mean=1.5),    # sigma2=0 != ergodic
        lambda r: r["throughput"][0].update(loss_mc=0.5),      # above bound
        lambda r: r["imperfect"][1].update(wrong_relay_mc=1.0),
    ]
    for corrupt in corruptions:
        bad = copy.deepcopy(rows)
        corrupt(bad)
        assert _failures(checks.output_checks("capacity-mix", plan, bad)) >= 1


def test_multiuser_checks_fail_on_corruption() -> None:
    plan = workloads.make_plan("multiuser-scale", 1)
    rows = {inv["name"]: [{"rho_db": 0.0, "estimate": 0.1, "std_error": 0.01}]
            for inv in plan}
    assert _failures(checks.output_checks("multiuser-scale", plan, rows)) == 0
    rows["multiuser-tail-m3"][0]["estimate"] = -1e-3
    assert _failures(checks.output_checks("multiuser-scale", plan, rows)) == 1


def test_identity_check_fails_on_differing_threads() -> None:
    plan = workloads.make_plan("tail-sweep", 1)
    ref = {inv["name"]: _csv(_good_tail_rows(plan)[inv["name"]])
           for inv in plan}
    assert _failures(checks.identity_checks(plan, ref, [dict(ref)], "t")) == 0
    other = dict(ref)
    other["miss-csa"] = ref["miss-csa"].replace(b"e-", b"E-", 1)
    assert _failures(checks.identity_checks(plan, ref, [other], "t")) == 1
    del other["miss-ocsa"]
    assert _failures(checks.identity_checks(plan, ref, [other], "t")) == 2


def test_fail_ratio_counts_failed_checks() -> None:
    bench = run.Bench("multiuser-scale", 1, 1.0)
    bench.checks = [("a", True, ""), ("b", False, "")]
    bench.calls_attempted, bench.calls_failed = 4, 1
    attempted, failed = run.tally(bench)
    assert (attempted, failed) == (6, 2)


def test_trace_counts_repeat() -> None:
    """Two traced passes of one seed give identical counts."""
    bench = run.Bench("capacity-mix", 3, 1.0)
    try:
        bench.write_configs()
        a = bench.run_pass(1, "a", traced=True)["trace"]
        b = bench.run_pass(1, "b", traced=True)["trace"]
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    ca, cb = run.trace_counts(a, bench.plan), run.trace_counts(b, bench.plan)
    assert ca == cb, (ca, cb)
    assert a["calls"] == b["calls"]
    assert ca["mc.chunks"] > 0 and ca["draw.calls"] > 0


def main() -> int:
    if not os.path.isfile(os.path.join("src", "beaconsim", "cli.py")):
        print("selftest: run from the root of a beaconsim checkout",
              file=sys.stderr)
        return 2
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

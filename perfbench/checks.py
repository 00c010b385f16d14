"""Output parsing, correctness checks and output-derived metrics.

Every check returns ``(name, ok, detail)``. The checks use closed forms and
bounds written here, not the program's own functions, so a wrong kernel in
the program cannot also make its check pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

# (estimate column, standard-error column) per CLI kind
SE_COLUMNS = {
    "miss-sweep": [("estimate", "std_error")],
    "joint-sweep": [("estimate", "std_error")],
    "multiuser": [("estimate", "std_error")],
    "capacity-ergodic": [("upper_mean", "upper_se"), ("lower_mean", "lower_se")],
    "imperfect": [("upper_mean", "upper_se"), ("lower_mean", "lower_se"),
                  ("wrong_relay_mc", "wrong_relay_se")],
    "throughput": [("loss_mc", "loss_se")],
}


def parse_rows(data: bytes, fmt: str) -> list[dict]:
    text = data.decode("utf-8")
    if fmt == "json":
        return json.loads(text)["rows"]
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append({k: _num(v) for k, v in row.items()})
    return rows


def _num(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def normalized(data: bytes) -> bytes:
    """Output bytes with the JSON meta's thread count blanked, the one field
    that is meant to differ between thread counts."""
    return re.sub(rb'"threads": \d+', b'"threads": N', data)


def exp_q_mean(coeff: float, lam: float) -> float:
    """E[Q(sqrt(2 c g))] for g ~ Exp(mean lam), in a cancellation-free form."""
    y = 1.0 / (coeff * lam)
    s = math.sqrt(1.0 + y)
    return 0.5 * y / (s * (1.0 + s))


def fit_order(rho_db: list[float], p: list[float]) -> float:
    """Negated least-squares slope of ln p against ln rho over p > 0."""
    pts = [(r * math.log(10.0) / 10.0, math.log(v))
           for r, v in zip(rho_db, p) if v > 0]
    if len(pts) < 2:
        return float("nan")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return -sxy / sxx


def fitted_curves(plan: list[dict], rows: dict) -> list[tuple[str, float, float]]:
    """(name, fitted order, nominal order) for each curve the workload fits.

    Miss curves are fitted in tail mode; joint-sweep curves are fitted on
    the joint failure probability 1 - estimate over their grid.
    """
    out = []
    for inv in plan:
        nominal = inv["check"].get("nominal")
        r = rows.get(inv["name"])
        if nominal is None or r is None:
            continue
        if inv["kind"] == "joint-sweep":
            p = [1.0 - x["estimate"] for x in r]
        elif inv["check"]["mode"] == "tail":
            p = [x["estimate"] for x in r]
        else:
            continue
        out.append((inv["name"], fit_order([x["rho_db"] for x in r], p),
                    nominal))
    return out


def order_rel_err(plan, rows) -> float:
    errs = [abs(order - nominal) / nominal
            for _, order, nominal in fitted_curves(plan, rows)]
    return max(errs) if errs else float("nan")


# A channel-mode (crude Monte Carlo) cell with fewer expected hits than this
# has an SE estimate that does not settle at benchmark trial counts.
MIN_EXPECTED_HITS = 100


def max_rel_se(plan, rows) -> float:
    """Largest SE / |estimate| over rows that carry an SE and a nonzero
    estimate, leaving out the cells whose SE estimate is itself too noisy
    to project from (see README): curves marked heavy_tail, and
    channel-mode cells with n * |estimate| < MIN_EXPECTED_HITS."""
    worst = 0.0
    for inv in plan:
        if inv["check"].get("heavy_tail"):
            continue
        crude = inv["check"]["mode"] == "channel"
        for row in rows.get(inv["name"], []):
            for est, se in SE_COLUMNS.get(inv["kind"], []):
                value = abs(row[est])
                if value == 0 or (crude
                                  and inv["n"] * value < MIN_EXPECTED_HITS):
                    continue
                worst = max(worst, row[se] / value)
    return worst


# ---------------------------------------------------------------------------
# Per-workload checks
# ---------------------------------------------------------------------------


def _check_orders(plan, rows):
    out = []
    fits = {name: order for name, order, _ in fitted_curves(plan, rows)}
    for inv in plan:
        window = inv["check"].get("window")
        if window is None:
            continue
        order = fits.get(inv["name"], float("nan"))
        out.append((f"{inv['name']}: order in criterion-1 window",
                    window[0] <= order <= window[1],
                    f"order {order:.4f}, window {window}"))
    return out


def _check_nc_closed_form(rows, d=2, lam=1.0, k=5.0):
    bad = []
    for row in rows:
        rho = 10.0 ** (row["rho_db"] / 10.0)
        want = exp_q_mean(d * rho, lam)
        if not abs(row["estimate"] - want) <= k * row["std_error"]:
            bad.append(row["rho_db"])
    return ("miss-nc: rows within 5 SE of the closed form", not bad,
            f"rows off at rho_db {bad}" if bad else f"{len(rows)} rows")


def _check_unit_interval(name, rows):
    bad = [r["rho_db"] for r in rows if not 0.0 <= r["estimate"] <= 1.0]
    return (f"{name}: estimates in [0, 1]", not bad,
            f"out of range at rho_db {bad}" if bad else f"{len(rows)} rows")


def _check_capacity(rows):
    out = []
    bad = [r["rho_db"] for r in rows["ergodic"]
           if not r["lower_mean"] <= r["upper_mean"]]
    bad += [(r["rho_db"], r["epsilon"]) for r in rows["outage"]
            if not r["lower"] <= r["upper"]]
    bad += [(r["rho_db"], r["sigma2"]) for r in rows["imperfect"]
            if not r["lower_mean"] <= r["upper_mean"]]
    out.append(("capacity: lower <= upper", not bad,
                f"violations {bad}" if bad else "all rows"))

    keys = ("upper_mean", "upper_se", "lower_mean", "lower_se")
    erg = {r["rho_db"]: tuple(r[k] for k in keys) for r in rows["ergodic"]}
    zero = {r["rho_db"]: tuple(r[k] for k in keys)
            for r in rows["imperfect"] if r["sigma2"] == 0.0}
    out.append(("imperfect: sigma2 = 0 equals capacity-ergodic bit for bit",
                bool(zero) and zero == erg,
                f"{len(zero)} rho values compared"))

    bad = [(r["w1"], r["w2"]) for r in rows["throughput"]
           if not r["loss_mc"] <= r["loss_bound"] + 3.0 * r["loss_se"]]
    out.append(("throughput: loss_mc <= loss_bound + 3 SE", not bad,
                f"violations {bad}" if bad else "9 rows"))

    bad = [(r["rho_db"], r["sigma2"]) for r in rows["imperfect"]
           if not r["wrong_relay_mc"]
           <= r["wrong_relay_bound"] + 3.0 * r["wrong_relay_se"]]
    out.append(("imperfect: wrong_relay_mc <= bound + 3 SE", not bad,
                f"violations {bad}" if bad else "all rows"))
    return out


def output_checks(workload: str, plan: list[dict], rows: dict) -> list:
    """Checks on one pass's parsed outputs; ``rows`` maps call name to rows.
    A call with no parsed output fails every check that needs it."""
    missing = [inv["name"] for inv in plan if inv["name"] not in rows]
    if missing:
        return [("outputs present", False, f"missing {missing}")]
    if workload == "tail-sweep":
        return _check_orders(plan, rows) + [_check_nc_closed_form(rows["miss-nc"])]
    if workload == "capacity-mix":
        return _check_capacity(rows)
    return [_check_unit_interval(inv["name"], rows[inv["name"]])
            for inv in plan]


def identity_checks(plan: list[dict], reference: dict, others: list[dict],
                    label: str) -> list:
    """Each call's output bytes match the reference pass in every other pass."""
    out = []
    for inv in plan:
        ref = reference.get(inv["name"])
        same = ref is not None and all(
            o.get(inv["name"]) is not None
            and normalized(o[inv["name"]]) == normalized(ref) for o in others)
        out.append((f"{inv['name']}: {label}", same,
                    f"{len(others)} passes compared"))
    return out

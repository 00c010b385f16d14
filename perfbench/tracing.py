"""Span recorder installed from outside the program.

Wrappers replace the names that each beaconsim module imported from another
layer (for example ``beaconsim.analysis.ocsa_fade_regions``), so a span
covers exactly one call across a layer boundary. Random draws are timed
through a proxy around the generator that ``mc.substream`` returns. Spans
are kept in memory as ``[name, parent, start, end, rows]`` and written out
by the caller when the run ends. The program's own files are not touched.
"""

from __future__ import annotations

import time

LAYERS = ("cli", "analysis", "capacity", "mc", "channel", "protocols",
          "fadeprob", "numerics", "draw")

DRAW_METHODS = ("exponential", "standard_normal", "normal", "random")

# (module, imported name, layer of the callee) for every cross-layer call
# the workloads make
_BOUNDARIES = [
    ("cli", "estimate_miss_curve", "analysis"),
    ("cli", "estimate_joint_success_curve", "analysis"),
    ("cli", "split_channel_uses", "protocols"),
    *[("cli", name, "capacity") for name in (
        "ergodic_capacity", "imperfect_capacity", "outage_capacity",
        "relative_capacity_loss", "throughput_loss_bound",
        "throughput_loss_mc", "wrong_relay_bound",
        "wrong_relay_probability_mc")],
    *[("analysis", name, "fadeprob") for name in (
        "exp_erlang_box_prob", "exp_q_mean", "exp_sum_box_prob",
        "ocsa_fade_regions")],
    *[("analysis", name, "protocols") for name in (
        "csa_conditional_miss", "csa_joint_success", "mucsa_conditional_miss",
        "nc_conditional_miss", "nc_joint_success", "ocsa_conditional_miss",
        "ocsa_joint_success")],
    ("capacity", "abs_diff_q_mean", "fadeprob"),
    ("capacity", "perturb_metrics", "channel"),
    *[("capacity", name, "protocols") for name in (
        "csa_conditional_miss", "csa_joint_success", "nc_conditional_miss",
        "nc_joint_success", "ocsa_conditional_miss", "ocsa_joint_success",
        "ocsa_select_relay", "phase1_failure")],
    ("protocols", "gaussian_q", "numerics"),
]

# modules that call mc.substream / the chunk engines
_SUBSTREAM_USERS = ("analysis", "capacity", "channel")
_ENGINE_USERS = (("analysis", "parallel_chunk_stats"),
                 ("capacity", "parallel_chunk_stats"),
                 ("capacity", "parallel_chunk_arrays"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0, 0])
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end
            if name.startswith("draw."):
                # trials covered: the trial axis is the longest one
                spans[idx][4] = max(getattr(out, "shape", ()) or (1,))
            return out

        return traced


class _GeneratorProxy:
    """Times the draw methods of a numpy Generator; passes the rest through."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._rng, attr)
        if attr in DRAW_METHODS:
            return self._tracer.wrap(f"draw.{attr}", value)
        return value


def install(tracer: Tracer) -> None:
    """Replace every layer-boundary name with a traced wrapper."""
    import importlib

    mods = {name: importlib.import_module(f"beaconsim.{name}")
            for name in ("cli", "analysis", "capacity", "channel",
                         "protocols")}
    for mod, attr, layer in _BOUNDARIES:
        setattr(mods[mod], attr,
                tracer.wrap(f"{layer}.{attr}", getattr(mods[mod], attr)))

    for mod in _SUBSTREAM_USERS:
        orig = getattr(mods[mod], "substream")
        traced = tracer.wrap("mc.substream", orig)
        setattr(mods[mod], "substream",
                lambda *key, _t=traced: _GeneratorProxy(_t(*key), tracer))

    for mod, attr in _ENGINE_USERS:
        engine = tracer.wrap(f"mc.{attr}", getattr(mods[mod], attr))

        def call(worker, *args, _engine=engine, _layer=mod, **kwargs):
            # the chunk worker is the caller's code run by mc
            return _engine(tracer.wrap(f"{_layer}.chunk_worker", worker),
                           *args, **kwargs)

        setattr(mods[mod], attr, call)

    mods["cli"].main = tracer.wrap("cli.main", mods["cli"].main)


def summarize(spans: list[list]) -> dict:
    """Per-layer self time, span counts and drawn trial rows."""
    child_time = [0.0] * len(spans)
    for _name, parent, start, end, _rows in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {}
    rows = 0
    for i, (name, _parent, start, end, n) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        rows += n
    return {"self_s": self_s, "calls": calls, "draw_rows": rows}

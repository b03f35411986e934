"""Layer spans recorded from outside the library, and the per-layer metrics.

The library's modules import each other's functions by name, so a function
is wrapped at every module attribute that refers to it (for example
``evolution.run_pipeline`` is also ``criteria.run_pipeline`` and
``danan.run_pipeline``). A wrapper records one span per call: operation id,
span id, parent span id, name, start and end. Spans stay in memory until
the run writes them out. Targets a later version of the library no longer
has are skipped, and their metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time
from collections import defaultdict

import numpy as np

PACKAGE = "weaktrace"

#: (layer, attribute) pairs wrapped with a span; "Class.method" wraps on the class.
TARGETS = (
    ("paths", "evolve_to_stage"),
    ("paths", "apply_beamsplitter"),
    ("paths", "apply_beamsplitter_inverse"),
    ("meter", "sample_with_rng"),
    ("meter", "wave_norm2"),
    ("meter", "_readout_grid"),
    ("evolution", "run_pipeline"),
    ("evolution", "postselect"),
    ("evolution", "JointState.component_moment"),
    ("evolution", "arm_occupation"),
    ("criteria", "weak_value_operational"),
    ("criteria", "monte_carlo_weak_value"),
    ("criteria", "discontinuity_report"),
    ("criteria", "weak_mean_value"),
    ("criteria", "weak_value_analytic"),
    ("criteria", "weak_value_tsvf"),
    ("danan", "readout_mode_compare"),
    ("danan", "simulate_traces"),
    ("danan", "power_spectrum"),
    ("danan", "sinusoid_amplitude"),
    ("cli", "main"),
)

CRITERIA_FUNCS = (
    "weak_value_operational", "monte_carlo_weak_value", "discontinuity_report",
    "weak_mean_value", "weak_value_analytic", "weak_value_tsvf",
)

#: Draws per sampler call that enter the Kolmogorov-Smirnov distance.
KS_DRAWS = 100_000


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: list[tuple[object, np.ndarray]] = []
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, t0, t1))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}")
            for layer in {layer for layer, _ in TARGETS}
        ]
        hooks = {
            "evolution.run_pipeline": self._after_pipeline,
            "meter.sample_with_rng": self._after_sample,
            "meter._readout_grid": self._after_grid,
        }
        for layer, attr in TARGETS:
            name = f"{layer}.{attr}"
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                orig = getattr(cls, "__dict__", {}).get(meth)
                if orig is None:
                    self.missing.append(name)
                    continue
                self._set(cls, meth, self._wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # --------------------------------------------------------------- hooks

    def _after_pipeline(self, args, kwargs, state) -> None:
        components = getattr(state, "components", {})
        self.counters["evolution.branches_out"] += sum(len(b) for b in components.values())

    def _after_sample(self, args, kwargs, draws) -> None:
        wave = args[0] if args else kwargs.get("w")
        self.counters["meter.draws"] += len(draws)
        # the draws are i.i.d., so the first KS_DRAWS are a fixed subsample
        self.samples.append((wave, np.array(draws[:KS_DRAWS])))

    def _after_grid(self, args, kwargs, result) -> None:
        wave = args[0] if args else kwargs.get("w")
        self.counters["meter.readout_grid_evals"] += len(result[0]) * len(wave.branches)


def exact_readout_cdf(wave, x: np.ndarray) -> np.ndarray:
    """CDF of |sum_i c_i G_i|^2 / norm at ``x``, from the erf closed form.

    Each Gram term conj(c_i) c_j G_i G_j is kappa_ij times a normal density
    centred at (a_i + a_j)/2 with variance delta/2.
    """
    from scipy.special import ndtr

    c = np.array([b.coefficient for b in wave.branches], dtype=complex)
    a = np.array([b.shift for b in wave.branches], dtype=float)
    d = wave.config.delta
    weight = (np.conj(c)[:, None] * c[None, :]).real * np.exp(
        -((a[:, None] - a[None, :]) ** 2) / (4.0 * d)
    )
    mid = 0.5 * (a[:, None] + a[None, :])
    sigma = math.sqrt(d / 2.0)
    cdf = np.zeros_like(x)
    for i in range(a.size):
        for j in range(a.size):
            cdf += weight[i, j] * ndtr((x - mid[i, j]) / sigma)
    return cdf / weight.sum()


def readout_ks(wave, draws: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between draws and the exact readout CDF."""
    x = np.sort(draws)
    n = x.size
    cdf = exact_readout_cdf(wave, x)
    return float(max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)))


def layer_times(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds (summed)."""
    child: dict[int, float] = defaultdict(float)
    for _, _, parent, _, t0, t1 in tracer.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                            "self_s": 0.0})
    for _, sid, _, name, t0, t1 in tracer.spans:
        rec = out[name]
        rec["calls"] += 1
        rec["total_s"] += t1 - t0
        rec["self_s"] += t1 - t0 - child[sid]
    return out


def root_time(tracer: Tracer) -> float:
    """Seconds covered by spans that have no parent span."""
    return sum(t1 - t0 for _, _, parent, _, t0, t1 in tracer.spans if parent < 0)


def per_layer_metrics(
    tracer: Tracer,
    ops_per_pass: int,
    bytes_out: float,
    traced_walls: list[float],
    untraced_wall_s: float,
    readout_ks_max: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, keyed by name, as (value, unit).

    The tracing overhead compares median pass walls; the unattributed time
    is the mean traced pass wall that no root span (cli.main) covers.
    """
    t = layer_times(tracer)
    passes = len(traced_walls)

    def calls(name):
        return t[name]["calls"] / passes if name in t else 0.0

    def secs(name, kind):
        return t[name][kind] / passes if name in t else 0.0

    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for name in ("evolution.run_pipeline", "evolution.postselect",
                 "evolution.JointState.component_moment"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.total_s"] = (secs(name, "total_s"), "s")
    m["evolution.arm_occupation.calls"] = (calls("evolution.arm_occupation"), "count")
    m["evolution.branches_out"] = (c["evolution.branches_out"] / passes, "count")
    m["evolution.pipelines_per_op"] = (calls("evolution.run_pipeline") / ops_per_pass, "count/op")

    draws = c["meter.draws"] / passes
    m["meter.sample_with_rng.calls"] = (calls("meter.sample_with_rng"), "count")
    m["meter.sample_with_rng.total_s"] = (secs("meter.sample_with_rng", "total_s"), "s")
    m["meter.draws"] = (draws, "count")
    m["meter.draw_ns"] = (secs("meter.sample_with_rng", "total_s") / draws * 1e9
                          if draws else 0.0, "ns")
    m["meter.readout_grid_evals"] = (c["meter.readout_grid_evals"] / passes, "count")
    m["meter.wave_norm2.calls"] = (calls("meter.wave_norm2"), "count")
    m["meter.readout_ks"] = (readout_ks_max, "frac")

    for fn in CRITERIA_FUNCS:
        m[f"criteria.{fn}.calls"] = (calls(f"criteria.{fn}"), "count")
        m[f"criteria.{fn}.self_s"] = (secs(f"criteria.{fn}", "self_s"), "s")

    for fn in ("evolve_to_stage", "apply_beamsplitter"):
        m[f"paths.{fn}.calls"] = (calls(f"paths.{fn}"), "count")
        m[f"paths.{fn}.total_s"] = (secs(f"paths.{fn}", "total_s"), "s")
    m["paths.apply_beamsplitter_inverse.calls"] = (
        calls("paths.apply_beamsplitter_inverse"), "count")

    m["danan.simulate_traces.self_s"] = (secs("danan.simulate_traces", "self_s"), "s")
    m["danan.power_spectrum.total_s"] = (secs("danan.power_spectrum", "total_s"), "s")
    m["danan.sinusoid_amplitude.calls"] = (calls("danan.sinusoid_amplitude"), "count")
    m["danan.sinusoid_amplitude.total_s"] = (secs("danan.sinusoid_amplitude", "total_s"), "s")

    m["cli.main.self_s"] = (secs("cli.main", "self_s"), "s")
    m["cli.bytes_out"] = (bytes_out, "bytes")

    m["bench.tracing_overhead_s"] = (statistics.median(traced_walls) - untraced_wall_s, "s")
    m["bench.unattributed_s"] = ((sum(traced_walls) - root_time(tracer)) / passes, "s")
    return m


def layer_shares(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """Share of the traced wall time spent in each layer's own (self) code."""
    shares: dict[str, float] = defaultdict(float)
    for name, rec in layer_times(tracer).items():
        shares[name.split(".")[0]] += rec["self_s"] / traced_wall_s
    return dict(shares)


def ks_per_call(tracer: Tracer) -> list[dict[str, object]]:
    return [
        {"shifts": [b.shift for b in wave.branches], "delta": wave.config.delta,
         "draws": int(x.size), "ks": readout_ks(wave, x)}
        for wave, x in tracer.samples
    ]


def dump_spans(tracer: Tracer, path) -> None:
    """Write every span as columns of a compressed .npz file.

    ``name`` indexes ``names``; ``parent`` is -1 for a root span.
    """
    names = sorted({s[3] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    op, sid, parent, name, start, end = zip(*tracer.spans) if tracer.spans else ([],) * 6
    np.savez_compressed(
        path, names=np.array(names), op=np.array(op, dtype=np.int64),
        span=np.array(sid, dtype=np.int64), parent=np.array(parent, dtype=np.int64),
        name=np.array([index[n] for n in name], dtype=np.int64),
        start=np.array(start, dtype=float), end=np.array(end, dtype=float),
    )

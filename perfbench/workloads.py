"""Seeded workload generators and the layer predictions recorded with them.

A workload turns a seed into the argv lists of one pass; the CLI sees only
those argv lists. ``smoke`` shrinks every size so the self-check runs in
seconds; the argv shape and the correctness gate stay the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

#: Per layer: the end-to-end metrics (on named workloads) it should move, and
#: the workloads on which it is predicted flat.
PREDICTIONS: dict[str, dict[str, object]] = {
    "evolution": {
        "moves": [["trace_samples_per_s", "danan-16k"], ["wall_s", "danan-16k"],
                  ["op_p50_ms", "tables"]],
        "flat_on": ["sweep-mc"],
    },
    "meter": {
        "moves": [["mc_trials_per_s", "sweep-mc"], ["peak_rss_mb", "sweep-mc"]],
        "flat_on": ["danan-16k", "tables"],
    },
    "criteria": {
        "moves": [["op_p50_ms", "tables"], ["ops_per_s", "tables"],
                  ["mc_trials_per_s", "sweep-mc"]],
        "flat_on": ["danan-16k"],
    },
    "paths": {
        "moves": [["op_p50_ms", "tables"]],
        "flat_on": ["danan-16k", "sweep-mc"],
    },
    "danan": {
        "moves": [["trace_samples_per_s", "danan-16k"]],
        "flat_on": ["sweep-mc", "tables"],
    },
    "cli": {
        "moves": [["wall_s", "danan-16k"], ["op_p50_ms", "tables"]],
        "flat_on": ["sweep-mc"],
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: layer expected to hold most of the traced wall time, or None for a mix
    dominant_layer: str | None
    generate: Callable[[random.Random, bool], list[list[str]]]
    #: name and count per pass of the workload's own work unit, if not ops
    unit_name: str | None
    units: Callable[[list[list[str]]], int] | None


def _num(x: float) -> str:
    # repr is the shortest text that parses back to the same double
    return repr(float(x))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _decreasing_grid(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    while True:
        grid = sorted((_log_uniform(rng, lo, hi) for _ in range(n)), reverse=True)
        if all(b < a for a, b in zip(grid, grid[1:])):
            return grid


def _mirror_frequencies(rng: random.Random, top: int) -> list[int]:
    """Three distinct integers in [1, top) with no second-order coincidence.

    A mirror line landing on another mirror's 2f, f+f' or |f-f'| product
    would be perturbed at relative order g0, comparable to the 2 % line
    tolerance; keeping every frequency below rate/4 keeps those products
    below Nyquist, so none of them aliases onto a line either.
    """
    while True:
        f = rng.sample(range(1, top), 3)
        products = {2 * x for x in f}
        products |= {x + y for x in f for y in f if x != y}
        products |= {abs(x - y) for x in f for y in f if x != y}
        if not products & set(f):
            return f


def _danan(rng: random.Random, smoke: bool) -> list[list[str]]:
    """One weak-value-mode run of all three mirrors: 16384 pipeline samples.

    This is the bulk evolution path (one three-attachment run_pipeline and
    three postselect/moment calls per sample); meter sampling never runs.
    g0 stays in the regime the acceptance suite pins (<= 1e-2).
    """
    rate, duration = (64, 1) if smoke else (4096, 4)
    freqs = _mirror_frequencies(rng, rate // 4)
    g0 = _log_uniform(rng, 1e-3, 1e-2)
    return [[
        "danan", "--mode", "weakvalue", "--mirrors", "M1,M2,M3",
        "--rate", str(rate), "--duration", str(duration),
        "--g", _num(g0), "--freqs", ",".join(map(str, freqs)),
    ]]


def _sweep_mc(rng: random.Random, smoke: bool) -> list[list[str]]:
    """1e7-trial Monte Carlo sweeps on arms A, B, C plus one separated point.

    This is the meter path: the inverse-CDF sampler dominates and evolution
    is under 1 %. The separated point keeps the sampler's known defect in
    the measured traffic.
    """
    n = "10000" if smoke else "10000000"
    ops = [
        ["sweep", "--arm", arm, "--post", "D2", "--g", "1,0.5,0.1,0.01", "--mc-n", n,
         "--seed", str(rng.randrange(2**31))]
        for arm in ("A", "B", "C")
    ]
    # the separated regime where the grid sampler's per-mode width is wrong:
    # branches 50 apart, sqrt(delta) = 0.01
    ops.append(["sweep", "--arm", "B", "--post", "D2", "--g", "50", "--delta", "1e-4",
                "--mc-n", n, "--seed", str(rng.randrange(2**31))])
    return ops


def _tables(rng: random.Random, smoke: bool) -> list[list[str]]:
    """About 2000 small mixed scenario calls, alternating CSV and JSON.

    This is per-call overhead: argparse and formatting, photon-path dicts,
    analytic criteria and one-meter pipelines over many tiny, differently
    shaped layouts, the opposite of danan-16k's one layout evaluated often.
    """
    ops = []
    for i in range(24 if smoke else 2000):
        kind = rng.choice(("weak-values", "mean-values", "sweep", "discontinuity"))
        if kind == "weak-values":
            argv = [kind, "--post", rng.choice(("D1", "D2", "D3"))]
        elif kind == "mean-values":
            argv = [kind, "--g", _num(_log_uniform(rng, 1e-3, 1.0)),
                    "--delta", _num(rng.uniform(0.1, 10.0))]
        elif kind == "sweep":
            grid = _decreasing_grid(rng, 4, 1e-3, 2.0)
            argv = [kind, "--arm", rng.choice(("A", "D", "B", "C", "E")),
                    "--g", ",".join(map(_num, grid))]
        else:
            grid = _decreasing_grid(rng, 3, 1e-3, 1.0)
            argv = [kind, "--g-grid", ",".join(map(_num, grid))]
        # `discontinuity --json` raises TypeError (numpy bools in the JSON
        # payload) in weaktrace 0.1.0, so those calls stay CSV
        if i % 2 and kind != "discontinuity":
            argv.append("--json")
        ops.append(argv)
    return ops


def _opt(argv: list[str], key: str) -> str:
    return argv[argv.index(key) + 1]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "danan-16k",
            "evolution",
            _danan,
            "trace_samples",
            lambda ops: sum(round(float(_opt(a, "--rate")) * float(_opt(a, "--duration")))
                            for a in ops),
        ),
        Workload(
            "sweep-mc",
            "meter",
            _sweep_mc,
            "mc_trials",
            lambda ops: sum(int(_opt(a, "--mc-n")) * len(_opt(a, "--g").split(","))
                            for a in ops),
        ),
        Workload(
            "tables",
            None,
            _tables,
            None,
            None,
        ),
    )
}


def generate(name: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The argv lists of one pass of workload ``name`` for ``seed``."""
    return WORKLOADS[name].generate(random.Random(f"{name}:{seed}"), smoke)

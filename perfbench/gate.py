"""Per-operation correctness gate, independent of the library's branch algebra.

Every check compares a CLI output against a closed form or against the
dense photon-path products of ``tests/oracles.py``. Tolerances are the
acceptance suite's: 1e-12 for exact identities, 2 % for spectral lines,
5 standard errors for Monte Carlo estimates.

``check(argv, text, oracles)`` returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

EXACT = 1e-12
LINE_RTOL = 0.02
MC_SIGMAS = 5.0

#: Closed-form weak values of the arm projectors, preselected on N.
WEAK_VALUES = {
    "D2": {"A": 1.0, "B": 0.5, "C": -0.5, "D": 0.0, "E": 0.0},
    "D1": {"A": 1.0, "B": -0.5, "C": 0.5, "D": 0.0, "E": 0.0},
    "D3": {"A": 0.0, "D": 1.0, "B": 0.5, "C": 0.5, "E": 0.0},
}
TABLE_ARMS = ("A", "D", "B", "C", "E")


def _opts(argv: list[str]) -> dict[str, str | bool]:
    opts: dict[str, str | bool] = {}
    for i, tok in enumerate(argv[1:], start=1):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opts[tok[2:]] = nxt if nxt is not None and not nxt.startswith("--") else True
    return opts


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    meta: dict[str, str] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(": ")
        meta[key] = value
        i += 1
    header = lines[i].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[i + 1:]]
    return meta, rows


def _close(errors: list[str], what: str, got: float, want: float, tol: float = EXACT) -> None:
    if not abs(got - want) <= tol:
        errors.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def exact_ratio(oracles, arm: str, detector: str, g: float, delta: float) -> float:
    """Postselected <Q>/g of one meter on ``arm``, closed form in g.

    The dense oracle gives the photon amplitude alpha that reaches the
    detector through the arm and beta for every other route; the
    conditional meter wave is alpha*G_g + beta*G_0, whose overlap is
    kappa = exp(-g^2 / 4 delta).
    """
    k = oracles.ARM_STAGE[arm]
    mid = oracles.evolve_vector(k)
    proj = np.zeros_like(mid)
    proj[oracles.IDX[arm]] = mid[oracles.IDX[arm]]
    for u in oracles.STAGE_MATRICES[k:]:
        proj = u @ proj
    alpha = proj[oracles.IDX[detector]]
    beta = oracles.evolve_vector(4)[oracles.IDX[detector]] - alpha
    kappa = math.exp(-g * g / (4.0 * delta))
    cross = (alpha.conjugate() * beta).real
    return (abs(alpha) ** 2 + cross * kappa) / (
        abs(alpha) ** 2 + abs(beta) ** 2 + 2.0 * cross * kappa
    )


def _check_weak_values(argv, text, oracles, errors):
    opts = _opts(argv)
    detector = opts.get("post", "D2")
    if opts.get("json"):
        table = json.loads(text)["weak_values"]
    else:
        _, rows = _parse_csv(text)
        table = {r["arm"]: {k: float(v) for k, v in r.items() if k != "arm"} for r in rows}
    if sorted(table) != sorted(TABLE_ARMS):
        errors.append(f"weak-values: arms {sorted(table)}")
        return
    for arm, want in WEAK_VALUES[detector].items():
        row = table[arm]
        _close(errors, f"{detector} {arm} weak value re", row["weak_value_re"], want)
        _close(errors, f"{detector} {arm} weak value im", row["weak_value_im"], 0.0)
        _close(errors, f"{detector} {arm} tsvf re", row["tsvf_re"], row["weak_value_re"])
        _close(errors, f"{detector} {arm} tsvf im", row["tsvf_im"], row["weak_value_im"])


def _check_mean_values(argv, text, oracles, errors):
    opts = _opts(argv)
    g = float(opts["g"])
    if opts.get("json"):
        table = json.loads(text)["mean_values"]
    else:
        _, rows = _parse_csv(text)
        table = {r["arm"]: {k: float(v) for k, v in r.items() if k != "arm"} for r in rows}
    if sorted(table) != sorted(TABLE_ARMS):
        errors.append(f"mean-values: arms {sorted(table)}")
        return
    for arm, row in table.items():
        expectation = abs(oracles.evolve_vector(oracles.ARM_STAGE[arm])[oracles.IDX[arm]]) ** 2
        _close(errors, f"{arm} g column", row["g"], g, 0.0)
        _close(errors, f"{arm} ratio vs limit", row["ratio"], row["limit"])
        _close(errors, f"{arm} limit vs dense oracle", row["limit"], expectation)


def _check_sweep(argv, text, oracles, errors):
    opts = _opts(argv)
    arm, detector = opts["arm"], opts.get("post", "D2")
    delta = float(opts.get("delta", 1.0))
    grid = _floats(opts["g"])
    if opts.get("json"):
        payload = json.loads(text)
        rows = payload["estimates"]
        analytic = payload["analytic_weak_value"]
    else:
        meta, raw = _parse_csv(text)
        rows = [{k: float(v) for k, v in r.items()} for r in raw]
        analytic = float(meta["analytic_weak_value"])
    _close(errors, f"{arm}/{detector} analytic weak value", analytic,
           oracles.oracle_weak_value(arm, detector).real)
    if [r["g"] for r in rows] != grid:
        errors.append(f"sweep: g column {[r['g'] for r in rows]} != grid {grid}")
        return
    mc = "mc-n" in opts
    for r in rows:
        want = exact_ratio(oracles, arm, detector, r["g"], delta)
        _close(errors, f"{arm}/{detector} ratio at g={r['g']!r}", r["ratio"], want)
        if mc:
            if not (r["mc_stderr"] > 0.0 and math.isfinite(r["mc_stderr"])):
                errors.append(f"MC stderr at g={r['g']!r}: {r['mc_stderr']!r}")
                continue
            _close(errors, f"{arm}/{detector} MC estimate at g={r['g']!r}",
                   r["mc_estimate"], want, MC_SIGMAS * r["mc_stderr"])


def _check_discontinuity(argv, text, oracles, errors):
    opts = _opts(argv)
    delta = float(opts.get("delta", 1.0))
    grid = _floats(opts["g-grid"])
    if opts.get("json"):
        payload = json.loads(text)
        rows = payload["rows"]
        discontinuous = payload["discontinuous"]
    else:
        meta, raw = _parse_csv(text)
        rows = [
            {k: (float(v) if v else None) for k, v in r.items()} for r in raw
        ]
        discontinuous = meta["discontinuous"] == "True"
    if [r["g"] for r in rows] != grid + [0.0]:
        errors.append(f"discontinuity: g column {[r['g'] for r in rows]}")
        return
    for r in rows[:-1]:
        g = r["g"]
        want = 0.25 * -math.expm1(-g * g / (4.0 * delta))
        _close(errors, f"E occupation at g={g!r}", r["e_occupation"], want)
        if not r["e_occupation"] > 0.0:
            errors.append(f"E occupation at g={g!r} is not positive")
        _close(errors, f"B pointer ratio at g={g!r}", r["pointer_ratio"],
               exact_ratio(oracles, "B", "D2", g, delta))
    zero = rows[-1]
    if zero["e_occupation"] != 0.0 or zero["pointer_ratio"] is not None:
        errors.append(f"g = 0 row: {zero}")
    if discontinuous is not True:
        errors.append("discontinuous flag is not true")


def _line(series: np.ndarray, rate: float, frequency: float) -> float:
    k = round(frequency * series.size / rate)
    return 2.0 * abs(np.fft.rfft(series)[k]) / series.size


def _check_danan(argv, text, oracles, errors):
    opts = _opts(argv)
    rate, duration, g0 = float(opts["rate"]), float(opts["duration"]), float(opts["g"])
    freqs = _floats(opts["freqs"])
    meta, raw = _parse_csv(text)
    n = round(rate * duration)
    if len(raw) != n:
        errors.append(f"danan: {len(raw)} rows, want {n}")
        return
    cols = {k: np.array([float(r[k]) for r in raw]) for k in raw[0]}
    if not np.array_equal(cols["t"], np.arange(n) / rate):
        errors.append("danan: time column is not j / rate")
    total = cols["D1_prob"] + cols["D2_prob"] + cols["D3_prob"]
    worst = float(np.max(np.abs(total - 1.0)))
    if not worst <= EXACT:
        errors.append(f"D1+D2+D3 probability off 1 by {worst:.3g}")
    # Re weak values on D2 for arms A, B, C are 1, 1/2, -1/2
    for mirror, f, scale in zip(("M1", "M2", "M3"), freqs, (1.0, 0.5, 0.5)):
        want = g0 * scale
        _close(errors, f"D2 line of {mirror} at f={f:g}",
               _line(cols["D2_mean"], rate, f), want, LINE_RTOL * want)
        _close(errors, f"reported peak_{mirror}", float(meta[f"peak_{mirror}"]), want,
               LINE_RTOL * want)
    for mirror, f in zip(("M2", "M3"), freqs[1:]):
        _close(errors, f"D3 line of {mirror} at f={f:g}",
               _line(cols["D3_mean"], rate, f), g0 / 2, LINE_RTOL * g0 / 2)


CHECKS = {
    "weak-values": _check_weak_values,
    "mean-values": _check_mean_values,
    "sweep": _check_sweep,
    "discontinuity": _check_discontinuity,
    "danan": _check_danan,
}


def check(argv: list[str], text: str, oracles) -> list[str]:
    """Failure messages for one operation's output; empty when it is correct."""
    errors: list[str] = []
    try:
        CHECKS[argv[0]](argv, text, oracles, errors)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        errors.append(f"{argv[0]}: malformed output ({type(exc).__name__}: {exc})")
    return errors

"""Scenario runner: every headline number reachable as one command.

Subcommands
-----------
weak-values     five-arm analytic weak-value table with TSVF cross-check
mean-values     non-postselected pointer means and their exact ratios
sweep           operational g-sweep of one arm's postselected pointer ratio
discontinuity   dark-port occupation vs pointer ratio table, g = 0 row last
danan           vibrating-mirror traces, spectra and readout-mode peaks

Output is CSV on stdout or to ``--out``, with ``#``-prefixed header
metadata (scenario, parameters, version) so files are self-describing;
``--json`` switches to a JSON payload with the same content. Reruns with
identical configuration and seed produce byte-identical bytes. Exit codes:
0 success, 2 invalid configuration, 3 no postselected events.

CSV column orders
-----------------
weak-values:    arm, weak_value_re, weak_value_im, tsvf_re, tsvf_im
mean-values:    arm, g, pointer_mean, ratio, limit
sweep:          g, ratio[, mc_estimate, mc_stderr]
discontinuity:  g, e_occupation, pointer_ratio, analogy_ratio
danan trace:    t, D1_mean, D1_prob, D2_mean, D2_prob, D3_mean, D3_prob,
                outer_mean, outer_prob
danan spectrum: f, then power per series in the same order (--spectrum)
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .criteria import (
    UndefinedWeakValueError,
    discontinuity_report,
    monte_carlo_weak_value,
    weak_mean_value,
    weak_value_analytic,
    weak_value_operational,
    weak_value_tsvf,
)
from .danan import default_schedule, readout_mode_compare, sinusoid_amplitude
from .meter import NoPostselectedEventsError
from .paths import DETECTORS

TABLE_ARMS = ("A", "D", "B", "C", "E")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_EVENTS = 3


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv(meta: dict[str, object], header: list[str], rows: list[list[object]]) -> str:
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _meta(scenario: str, **params: object) -> dict[str, object]:
    meta: dict[str, object] = {"scenario": scenario}
    meta.update(params)
    meta["version"] = __version__
    return meta


def cmd_weak_values(args: argparse.Namespace) -> int:
    detector = args.post
    rows = []
    payload = {}
    for arm in TABLE_ARMS:
        wv = weak_value_analytic(arm, detector=detector)
        ts = weak_value_tsvf(arm, detector=detector)
        rows.append([arm, wv.real, wv.imag, ts.real, ts.imag])
        payload[arm] = {
            "weak_value_re": wv.real,
            "weak_value_im": wv.imag,
            "tsvf_re": ts.real,
            "tsvf_im": ts.imag,
        }
    meta = _meta("weak-values", preselection="N", detector=detector)
    if args.json:
        _emit(_json_text({"meta": meta, "weak_values": payload}), args.out)
    else:
        _emit(_csv(meta, ["arm", "weak_value_re", "weak_value_im", "tsvf_re", "tsvf_im"], rows), args.out)
    return EXIT_OK


def cmd_mean_values(args: argparse.Namespace) -> int:
    arms = args.arm.split(",") if args.arm else list(TABLE_ARMS)
    rows = []
    payload = {}
    for arm in arms:
        rec = weak_mean_value(arm.strip(), g=args.g, delta=args.delta)
        rows.append([rec.arm, rec.g, rec.pointer_mean, rec.ratio, rec.limit])
        payload[rec.arm] = {
            "g": rec.g,
            "pointer_mean": rec.pointer_mean,
            "ratio": rec.ratio,
            "limit": rec.limit,
        }
    meta = _meta("mean-values", preselection="N", g=_fmt(args.g), delta=_fmt(args.delta))
    if args.json:
        _emit(_json_text({"meta": meta, "mean_values": payload}), args.out)
    else:
        _emit(_csv(meta, ["arm", "g", "pointer_mean", "ratio", "limit"], rows), args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_floats(args.g_grid if args.g_grid else args.g)
    record = weak_value_operational(args.arm, args.post, grid, args.delta)
    header = ["g", "ratio"]
    rows: list[list[object]] = [[g, r] for g, r in record.estimates]
    payload_rows = [{"g": g, "ratio": r} for g, r in record.estimates]
    if args.mc_n:
        header += ["mc_estimate", "mc_stderr"]
        for i, (g, _) in enumerate(record.estimates):
            est = monte_carlo_weak_value(
                args.arm, args.post, g, args.delta, args.mc_n, args.seed + i
            )
            rows[i] += [est.value, est.stderr]
            payload_rows[i]["mc_estimate"] = est.value
            payload_rows[i]["mc_stderr"] = est.stderr
    meta = _meta(
        "sweep",
        arm=args.arm,
        detector=args.post,
        delta=_fmt(args.delta),
        analytic_weak_value=_fmt(record.analytic.real),
        extrapolated_limit=_fmt(record.limit),
        mc_n=args.mc_n,
        seed=args.seed,
    )
    if args.json:
        payload = {
            "meta": meta,
            "estimates": payload_rows,
            "analytic_weak_value": record.analytic.real,
            "extrapolated_limit": record.limit,
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv(meta, header, rows), args.out)
    return EXIT_OK


def cmd_discontinuity(args: argparse.Namespace) -> int:
    grid = _parse_floats(args.g_grid)
    report = discontinuity_report(grid, args.delta)
    rows: list[list[object]] = [
        [r.g, r.e_occupation, r.pointer_ratio, r.analogy_ratio] for r in report.rows
    ]
    z = report.zero_row
    rows.append([z.g, z.e_occupation, z.pointer_ratio, z.analogy_ratio])
    meta = _meta(
        "discontinuity",
        delta=_fmt(args.delta),
        extrapolated_weak_value=_fmt(report.extrapolated_weak_value),
        b_signal_via_e=report.b_signal_via_e,
        discontinuous=report.discontinuous,
    )
    if args.json:
        payload = {
            "meta": meta,
            "rows": [
                {
                    "g": r.g,
                    "e_occupation": r.e_occupation,
                    "pointer_ratio": r.pointer_ratio,
                    "analogy_ratio": r.analogy_ratio,
                }
                for r in (*report.rows, report.zero_row)
            ],
            "extrapolated_weak_value": report.extrapolated_weak_value,
            "discontinuous": report.discontinuous,
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv(meta, ["g", "e_occupation", "pointer_ratio", "analogy_ratio"], rows), args.out)
    return EXIT_OK


def cmd_danan(args: argparse.Namespace) -> int:
    freqs = _parse_floats(args.freqs)
    if len(freqs) != 3:
        raise ValueError("--freqs needs exactly three values (M1, M2, M3)")
    enabled = tuple(tok.strip() for tok in args.mirrors.split(",") if tok.strip())
    for name in enabled:
        if name not in ("M1", "M2", "M3"):
            raise ValueError(f"unknown mirror {name!r}; expected M1, M2 or M3")
    schedule = default_schedule(args.g, tuple(freqs), enabled)
    comparison = readout_mode_compare(schedule, args.duration, args.rate, args.delta)
    trace = comparison.trace

    read = args.read if args.read else ("D2" if args.mode == "weakvalue" else "D3")
    if read not in ("D1", "D2", "D3", "outer"):
        raise ValueError(f"--read must be D1, D2, D3 or outer, got {read!r}")
    peaks = {
        m.name: amp
        for m in schedule.enabled()
        if (amp := sinusoid_amplitude(trace.series[f"{read}_mean"], args.rate, m.frequency))
        > comparison.floor
    }

    meta = _meta(
        "danan",
        mode=args.mode,
        mirrors=",".join(enabled),
        read=read,
        g0=_fmt(args.g),
        delta=_fmt(args.delta),
        duration=_fmt(args.duration),
        sample_rate=_fmt(args.rate),
        frequencies=",".join(_fmt(f) for f in freqs),
    )
    for mirror, amp in sorted(peaks.items()):
        meta[f"peak_{mirror}"] = _fmt(amp)

    order = ["D1_mean", "D1_prob", "D2_mean", "D2_prob", "D3_mean", "D3_prob",
             "outer_mean", "outer_prob"]
    if args.json:
        payload = {
            "meta": meta,
            "peaks": {
                "weak_value_mode_D2": comparison.weak_value_peaks,
                "mean_mode": comparison.mean_mode_peaks,
                "per_port_diagnostics": comparison.per_port_mean_peaks,
            },
            "times": list(trace.times),
            "series": {k: list(trace.series[k]) for k in order},
        }
        _emit(_json_text(payload), args.out)
    elif args.spectrum:
        freqs = trace.spectra[order[0]][0]
        rows = [
            [f, *(trace.spectra[k][1][j] for k in order)]
            for j, f in enumerate(freqs)
        ]
        _emit(_csv(meta, ["f", *order], rows), args.out)
    else:
        rows = [
            [t, *(trace.series[k][j] for k in order)]
            for j, t in enumerate(trace.times)
        ]
        _emit(_csv(meta, ["t", *order], rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaktrace",
        description="Nested Mach-Zehnder weak-trace simulator: weak values vs weak mean values.",
    )
    # a string default goes through type=int only when --seed is absent, so a
    # malformed WEAKTRACE_SEED is a usage error (exit 2) at parse time
    default_seed = os.environ.get("WEAKTRACE_SEED", "0")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--delta", type=float, default=1.0, help="initial meter squared width")
        p.add_argument("--seed", type=int, default=default_seed,
                       help="RNG seed (default: WEAKTRACE_SEED env var or 0)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.add_argument("--out", metavar="PATH", default=None, help="write to file instead of stdout")

    p = sub.add_parser("weak-values", help="analytic weak-value table with TSVF check")
    p.add_argument("--post", default="D2", choices=DETECTORS, help="postselecting detector")
    common(p)
    p.set_defaults(func=cmd_weak_values)

    p = sub.add_parser("mean-values", help="non-postselected pointer-mean table")
    p.add_argument("--arm", default=None, help="comma list of arms (default A,D,B,C,E)")
    p.add_argument("--g", type=float, default=0.1, help="coupling strength")
    common(p)
    p.set_defaults(func=cmd_mean_values)

    p = sub.add_parser("sweep", help="operational weak-value g-sweep for one arm")
    p.add_argument("--arm", required=True, help="measured arm")
    p.add_argument("--post", default="D2", choices=DETECTORS)
    p.add_argument("--g-grid", default=None, help="decreasing comma list of couplings")
    p.add_argument("--g", default="1,0.5,0.1,0.01", help="alias for --g-grid")
    p.add_argument("--mc-n", type=int, default=0,
                   help="if positive, add Monte Carlo columns with this many trials per g")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("discontinuity", help="dark-port occupation vs weak-value limit table")
    p.add_argument("--g-grid", default="0.5,0.1,0.01", help="decreasing comma list of couplings")
    common(p)
    p.set_defaults(func=cmd_discontinuity)

    p = sub.add_parser("danan", help="vibrating-mirror traces and spectral peaks")
    p.add_argument("--mode", choices=("weakvalue", "mean"), default="weakvalue")
    p.add_argument("--mirrors", default="M1,M2,M3", help="comma list of enabled mirrors")
    p.add_argument("--read", default=None,
                   help="series to report peaks for (D1/D2/D3/outer; default by mode)")
    p.add_argument("--g", type=float, default=1e-2, help="vibration amplitude g0")
    p.add_argument("--freqs", default="3,5,7", help="mirror frequencies (three values)")
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=256.0, help="samples per unit time")
    p.add_argument("--spectrum", action="store_true",
                   help="emit the power spectra instead of the time trace")
    common(p)
    p.set_defaults(func=cmd_danan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoPostselectedEventsError as exc:
        print(f"weaktrace: no postselected events: {exc}", file=sys.stderr)
        return EXIT_NO_EVENTS
    except (ValueError, UndefinedWeakValueError, OSError) as exc:
        print(f"weaktrace: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())

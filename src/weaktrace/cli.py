"""Scenario runner: every headline number reachable as one command.

Subcommands
-----------
weak-values     five-arm analytic weak-value table with TSVF cross-check
mean-values     non-postselected pointer means and their exact ratios
sweep           operational g-sweep of one arm's postselected pointer ratio
discontinuity   dark-port occupation vs pointer ratio table, g = 0 row last
danan           vibrating-mirror traces, spectra and readout-mode peaks

Output is CSV on stdout or to ``--out``, with ``#``-prefixed header
metadata (scenario, parameters, version) so files are self-describing.
One writer streams the lines, so danan's trace adds only one chunk of rows
to the memory its arrays take. ``--json`` writes one document with the
same ``meta`` and the same rows as records keyed by the CSV header:
weak-values and mean-values key them by arm, sweep and discontinuity list
them. danan's document holds its peak tables (its trace's ``lines``),
``times`` and ``series``. Zeros print unsigned. Reruns with identical
configuration and seed produce byte-identical bytes. Exit codes: 0
success, 2 invalid configuration, 3 no postselected events.

CSV column orders
-----------------
weak-values:    arm, weak_value_re, weak_value_im, tsvf_re, tsvf_im
mean-values:    arm, g, pointer_mean, ratio, limit
sweep:          g, ratio[, mc_estimate, mc_stderr]
discontinuity:  g, e_occupation, pointer_ratio, analogy_ratio
danan trace:    t, D1_mean, D1_prob, D2_mean, D2_prob, D3_mean, D3_prob,
                outer_mean, outer_prob (the order of ``TraceResult.series``)
danan spectrum: f, then power per series in the same order (--spectrum)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import __version__
from .criteria import (
    discontinuity_report,
    monte_carlo_weak_value,
    weak_mean_value,
    weak_value_analytic,
    weak_value_operational,
    weak_value_tsvf,
)
from .danan import OUTER, default_schedule, simulate_traces
from .meter import NoPostselectedEventsError
from .paths import DETECTORS

TABLE_ARMS = ("A", "D", "B", "C", "E")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_EVENTS = 3


def _fmt(x) -> str:
    # + 0.0 maps -0.0 to 0.0, whose sign only reflects the summation order
    return "" if x is None else f"{float(x) + 0.0:.17g}"


def _cell(x):
    """A JSON value: None, strings and bools as they are, numbers as unsigned-zero floats."""
    return x if x is None or isinstance(x, (str, bool)) else float(x) + 0.0


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}") from exc


def _sink(out: str | None):
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w")


def _write_json(doc: dict, out: str | None) -> int:
    with _sink(out) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _write(args, meta, header, rows, name, by_first=False, **scalars) -> int:
    """Write one table: ``#`` meta, header and rows as CSV, or one JSON document.

    The JSON table is the same rows keyed by the header, as a list, or with
    ``by_first`` as a dict keyed by each row's first cell. ``scalars`` join
    the JSON document's top level.
    """
    if args.json:
        table = [dict(zip(header, map(_cell, row))) for row in rows]
        if by_first:
            table = {record.pop(header[0]): record for record in table}
        scalars = {key: _cell(value) for key, value in scalars.items()}
        return _write_json({"meta": meta, name: table, **scalars}, args.out)
    with _sink(args.out) as fh:
        fh.writelines(f"# {key}: {value}\n" for key, value in meta.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join([c if isinstance(c, str) else _fmt(c) for c in row]) + "\n"
                      for row in rows)
    return EXIT_OK


def _columns(*columns, chunk: int = 4096):
    """Rows of equal-length arrays, converted to Python floats a chunk at a time."""
    for start in range(0, len(columns[0]), chunk):
        yield from zip(*(c[start:start + chunk].tolist() for c in columns))


def _meta(scenario: str, **params: object) -> dict[str, object]:
    return {"scenario": scenario, **params, "version": __version__}


def cmd_weak_values(args: argparse.Namespace) -> int:
    rows = []
    for arm in TABLE_ARMS:
        wv = weak_value_analytic(arm, detector=args.post)
        ts = weak_value_tsvf(arm, detector=args.post)
        rows.append([arm, wv.real, wv.imag, ts.real, ts.imag])
    meta = _meta("weak-values", preselection="N", detector=args.post)
    header = ["arm", "weak_value_re", "weak_value_im", "tsvf_re", "tsvf_im"]
    return _write(args, meta, header, rows, "weak_values", by_first=True)


def cmd_mean_values(args: argparse.Namespace) -> int:
    arms = args.arm.split(",") if args.arm else list(TABLE_ARMS)
    rows = []
    for arm in arms:
        rec = weak_mean_value(arm.strip(), g=args.g, delta=args.delta)
        rows.append([rec.arm, rec.g, rec.pointer_mean, rec.ratio, rec.limit])
    meta = _meta("mean-values", preselection="N", g=_fmt(args.g), delta=_fmt(args.delta))
    header = ["arm", "g", "pointer_mean", "ratio", "limit"]
    return _write(args, meta, header, rows, "mean_values", by_first=True)


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _parse_floats(args.g_grid if args.g_grid else args.g)
    record = weak_value_operational(args.arm, args.post, grid, args.delta)
    header = ["g", "ratio"]
    rows: list[list[object]] = [[g, r] for g, r in record.estimates]
    if args.mc_n:
        header += ["mc_estimate", "mc_stderr"]
        for i, (g, _) in enumerate(record.estimates):
            est = monte_carlo_weak_value(
                args.arm, args.post, g, args.delta, args.mc_n, args.seed + i
            )
            rows[i] += [est.value, est.stderr]
    meta = _meta("sweep", arm=args.arm, detector=args.post, delta=_fmt(args.delta),
                 analytic_weak_value=_fmt(record.analytic.real),
                 extrapolated_limit=_fmt(record.limit), mc_n=args.mc_n, seed=args.seed)
    return _write(args, meta, header, rows, "estimates",
                  analytic_weak_value=record.analytic.real, extrapolated_limit=record.limit)


def cmd_discontinuity(args: argparse.Namespace) -> int:
    grid = _parse_floats(args.g_grid)
    report = discontinuity_report(grid, args.delta)
    rows = [[r.g, r.e_occupation, r.pointer_ratio, r.analogy_ratio]
            for r in (*report.rows, report.zero_row)]
    meta = _meta("discontinuity", delta=_fmt(args.delta),
                 extrapolated_weak_value=_fmt(report.extrapolated_weak_value),
                 b_signal_via_e=report.b_signal_via_e, discontinuous=report.discontinuous)
    header = ["g", "e_occupation", "pointer_ratio", "analogy_ratio"]
    return _write(args, meta, header, rows, "rows",
                  extrapolated_weak_value=report.extrapolated_weak_value,
                  discontinuous=report.discontinuous)


def cmd_danan(args: argparse.Namespace) -> int:
    freqs = _parse_floats(args.freqs)
    enabled = tuple(tok.strip() for tok in args.mirrors.split(",") if tok.strip())
    schedule = default_schedule(args.g, tuple(freqs), enabled)
    read = args.read if args.read else ("D2" if args.mode == "weakvalue" else "D3")
    if read not in (*DETECTORS, OUTER):
        raise ValueError(f"--read must be D1, D2, D3 or outer, got {read!r}")
    trace = simulate_traces(schedule, args.duration, args.rate, args.delta)
    lines = trace.lines

    meta = _meta("danan", mode=args.mode, mirrors=",".join(enabled), read=read,
                 g0=_fmt(args.g), delta=_fmt(args.delta), duration=_fmt(args.duration),
                 sample_rate=_fmt(args.rate), frequencies=",".join(_fmt(f) for f in freqs))
    meta.update((f"peak_{m}", _fmt(amp)) for m, amp in sorted(lines[f"{read}_mean"].items()))

    order = list(trace.series)
    if args.json:
        return _write_json({
            "meta": meta,
            "peaks": {
                "weak_value_mode_D2": lines["D2_mean"],
                "mean_mode": {k: lines[k] for k in ("D3_mean", f"{OUTER}_mean")},
                "per_port_diagnostics": {k: lines[k] for k in ("D1_mean", "D2_mean")},
            },
            "times": trace.times.tolist(),
            "series": {k: (trace.series[k] + 0.0).tolist() for k in order},
        }, args.out)
    if args.spectrum:
        bins = trace.spectra[order[0]][0]
        rows = _columns(bins, *(trace.spectra[k][1] for k in order))
        return _write(args, meta, ["f", *order], rows, None)
    rows = _columns(trace.times, *(trace.series[k] for k in order))
    return _write(args, meta, ["t", *order], rows, None)


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
    p.add_argument("--g", type=float, default=1e-2,
                   help="vibration amplitude g0; peaks are separated from absent lines "
                        "up to g0/sqrt(delta) of about 1")
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
    except (ValueError, OSError) as exc:
        print(f"weaktrace: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())

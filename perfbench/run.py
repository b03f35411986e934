"""weaktrace benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload {danan-16k,sweep-mc,tables} \\
        --seed N --seconds S --trace {0,1} [--smoke]

One closed-loop caller (this process, no extra threads) drives
``weaktrace.cli.main(argv)`` in-process over the argv lists the workload
generates from the seed. A run times set-up in fresh child interpreters,
makes one untimed warm-up call, then runs whole passes over the argv lists
for ``--seconds``. The first timed pass goes through the correctness gate
(gate.py); every other output, and the same seed's output in an earlier run
of the same sources, must match it byte for byte. With ``--trace 1`` half
the time goes to plain passes (the untraced baseline) and half to passes
with every layer wrapped (layertrace.py), and the per-layer metrics are
reported instead of the end-to-end ones. ``--smoke`` shrinks every size for
the self-check (smoke.py).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A record
of each run (machine, argv, predictions, digests, per-pass walls) and the
spans of the last traced run (spans-<workload>.npz) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS/OpenMP thread here and in child processes, set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

import gate  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7

SETUP_CODE = """
import sys
sys.path.insert(0, {src!r})
import weaktrace, weaktrace.cli
if not weaktrace.__file__.startswith({src!r}):
    raise SystemExit("weaktrace imported from " + weaktrace.__file__)
weaktrace.cli.build_parser()
weaktrace.build_nested_mzi()
"""


def load_program():
    """Import weaktrace from this checkout's src/ and the test oracles."""
    if not (SRC / "weaktrace" / "__init__.py").is_file() or not ORACLES.is_file():
        raise SystemExit(f"perfbench: no weaktrace sources under {ROOT} (need src/ and tests/)")
    sys.path.insert(0, str(SRC))
    import weaktrace.cli

    if not Path(weaktrace.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: weaktrace imported from {weaktrace.__file__}, not {SRC}")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return weaktrace.cli, oracles


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds for fresh interpreters to import, build the parser and MZI."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    subprocess.run(cmd, check=True, cwd=ROOT)  # writes bytecode caches
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def run_op(cli, argv: list[str]) -> tuple[int | None, float, str, str]:
    """One closed-loop CLI call: exit code, seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a library crash fails this op; the run goes on
            rc = None
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
    return rc, t1 - t0, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Exit codes, latencies and output digests of one pass over the ops."""

    def __init__(self, cli, ops: list[list[str]], tracer=None, keep_text=False):
        self.rcs, self.latencies, self.texts, self.errors = [], [], [], []
        base = tracer.op + 1 if tracer is not None else 0
        t0 = time.perf_counter()
        for i, argv in enumerate(ops):
            if tracer is not None:
                tracer.op = base + i
            rc, dt, text, err = run_op(cli, argv)
            self.rcs.append(rc)
            self.latencies.append(dt)
            self.texts.append(text)
            self.errors.append(err)
        self.wall = time.perf_counter() - t0
        self.bytes_out = sum(len(t.encode()) for t in self.texts)
        self.digests = [digest(t) for t in self.texts]
        if not keep_text:
            self.texts = None


def timed_passes(cli, ops, seconds: float, tracer=None, keep_first=False) -> list[Pass]:
    """Whole passes until ``seconds`` is used up, to within half a pass."""
    passes = [Pass(cli, ops, tracer, keep_text=keep_first)]
    while sum(p.wall for p in passes) + passes[-1].wall / 2 < seconds:
        passes.append(Pass(cli, ops, tracer))
    return passes


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    Below 21 samples no percentile above the median has ten beyond it, so the
    median stands in and its percentile (50) is recorded.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weaktrace").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine_record() -> dict[str, object]:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def check_reference(ref: Pass, ops, oracles) -> list[tuple[int, str]]:
    """(op index, message) for every op of the gated pass that is not correct."""
    bad = []
    for i, argv in enumerate(ops):
        if ref.rcs[i] != 0:
            bad.append((i, f"exit code {ref.rcs[i]}: {ref.errors[i].strip()[-300:]}"))
            continue
        if ref.errors[i]:
            bad.append((i, f"unexpected stderr: {ref.errors[i].strip()[-300:]}"))
        for msg in gate.check(argv, ref.texts[i], oracles):
            bad.append((i, msg))
    return bad


def rerun_mismatches(ref: Pass, passes: list[Pass]) -> int:
    """Ops of later passes whose exit code or output digest differs."""
    return sum(
        rc != ref_rc or d != ref_d
        for p in passes
        for rc, d, ref_rc, ref_d in zip(p.rcs, p.digests, ref.rcs, ref.digests)
    )


def cross_run_mismatches(path: Path, ops: list[list[str]], digests: list[str]) -> int:
    """Ops whose digest differs from an earlier run of the same sources and argv.

    Digests are compared only when the sources and the argv lists are
    identical, so runs of different commits are never compared.
    """
    key = digest(json.dumps([src_digest(), ops]))
    try:
        prior = json.loads(path.read_text())
    except (OSError, ValueError):
        prior = {}
    mismatches = 0
    if prior.get("key") == key:
        mismatches = sum(a != b for a, b in zip(prior["digests"], digests))
    path.write_text(json.dumps({"key": key, "digests": digests}))
    return mismatches


def end_to_end(setup: list[float], untraced: list[Pass], peak_rss_mb: float) -> dict:
    latencies = [x for p in untraced for x in p.latencies]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": statistics.median(p.wall for p in untraced), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / sum(p.wall for p in untraced), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail(latencies)[1] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-check")
    args = parser.parse_args(argv)

    cli, oracles = load_program()
    wl = workloads.WORKLOADS[args.workload]
    ops = workloads.generate(args.workload, args.seed, args.smoke)
    setup = measure_setup(1 if args.smoke else SETUP_REPEATS)

    # first-call costs (lazy imports, caches) stay out of the timed passes
    warm_rc, _, warm_text, _ = run_op(cli, ops[0])
    # Full collections triggered by thousands of in-process calls would rescan
    # every import-time object, which one CLI call in its own process never
    # does; freezing them keeps that harness artefact out of the latencies.
    gc.collect()
    gc.freeze()
    untraced = timed_passes(cli, ops, args.seconds / 2 if args.trace else args.seconds,
                            keep_first=True)
    traced: list[Pass] = []
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced = timed_passes(cli, ops, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the first timed pass is gated; every other output must match it byte for byte
    ref = untraced[0]
    bad = check_reference(ref, ops, oracles)
    failed = len({i for i, _ in bad}) + rerun_mismatches(ref, untraced[1:] + traced)
    failed += int(warm_rc != ref.rcs[0] or digest(warm_text) != ref.digests[0])
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    failed += cross_run_mismatches(OUT / f"digests-{tag}.json", ops, ref.digests)
    attempted = 1 + len(ops) * (len(untraced) + len(traced))

    walls = [p.wall for p in untraced]
    latencies = [x for p in untraced for x in p.latencies]
    extra: dict[str, object] = {}
    if wl.unit_name is not None:
        extra[f"{wl.unit_name}_per_s"] = wl.units(ops) * len(untraced) / sum(walls)
    extra.update({
        "failed_ops_frac": failed / attempted,
        "op_tail_percentile": tail(latencies)[0],
        "op_latency_samples": len(latencies),
        "ops_per_pass": len(ops),
        "pass_walls_s": walls,
    })

    if args.trace:
        ks_calls = layertrace.ks_per_call(tracer)
        layer = layertrace.per_layer_metrics(
            tracer, len(ops), statistics.median(p.bytes_out for p in traced),
            [p.wall for p in traced], statistics.median(walls),
            max((c["ks"] for c in ks_calls), default=0.0),
        )
        shares = layertrace.layer_shares(tracer, sum(p.wall for p in traced))
        extra.update({
            "traced_pass_walls_s": [p.wall for p in traced],
            "layer_self_share": shares,
            "dominant_layer": max(shares, key=shares.get) if shares else None,
            "predicted_dominant_layer": wl.dominant_layer,
            "readout_ks_per_call": ks_calls,
            "missing_trace_targets": tracer.missing,
        })
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        layertrace.dump_spans(tracer, OUT / f"spans-{args.workload}.npz")
    else:
        metrics = end_to_end(setup, untraced, peak_rss_mb)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "generator": f"perfbench/workloads.py generate({args.workload!r}, {args.seed})",
        "argv": ops, "predictions": workloads.PREDICTIONS,
        "machine": machine_record(), "setup_s_samples": setup,
        "gate_failures": [[i, ops[i], msg] for i, msg in bad],
        "digests": ref.digests, "metrics": metrics, "extra": extra,
    }
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for i, msg in bad[:20]:
        print(f"FAIL op {i} {' '.join(ops[i])}: {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops/pass, "
          f"{len(untraced)} timed + {len(traced)} traced passes")
    for key, value in record["machine"].items():
        print(f"  machine.{key}: {value}")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    for key, value in extra.items():
        if key == "readout_ks_per_call":
            for c in {(tuple(c["shifts"]), c["delta"]): c for c in value}.values():
                print(f"  readout_ks shifts={c['shifts']} delta={c['delta']:g}: {c['ks']:.4g}")
        else:
            print(f"  {key}: {value}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

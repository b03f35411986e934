"""Self-check of the benchmark code at tiny sizes; takes a few seconds.

    python3 perfbench/smoke.py

1. Runs ``run.py --smoke`` on every workload with ``--trace 0`` and
   ``--trace 1`` and checks the last output line against BENCHMARK.json:
   exactly the keys correct/attempted/failed/metrics, every metric name with
   its unit, finite values, and correct=true with no failed operation.
2. Feeds the correctness gate every smoke output, then the same outputs
   with every decimal number scaled by 1 + 1e-6, and an op that exits 2;
   the gate must pass the first and reject the others.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/, where it must exit non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke-bare"

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

DECIMAL = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_schema(spec: dict, problems: list[str]) -> None:
    for name in sorted(workloads.WORKLOADS):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", name, "--seed", "7", "--seconds", "0.2",
                         "--trace", str(trace), "--smoke")
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                problems.append(f"{where}: attempted={result['attempted']!r}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metric names/units differ: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            for key, m in result["metrics"].items():
                if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{where}: {key} = {m['value']!r}")


def check_gate(problems: list[str]) -> None:
    cli, oracles = run.load_program()
    for name in sorted(workloads.WORKLOADS):
        ops = workloads.generate(name, 7, smoke=True)
        ref = run.Pass(cli, ops, keep_text=True)
        for i, (argv, text) in enumerate(zip(ops, ref.texts)):
            if msgs := run.gate.check(argv, text, oracles):
                problems.append(f"gate rejects good output of {argv}: {msgs[:2]}")
            scaled = DECIMAL.sub(lambda m: repr(float(m.group()) * (1 + 1e-6)), text)
            if not run.gate.check(argv, scaled, oracles):
                problems.append(f"gate accepts corrupted output of {argv}")
    bad_op = [["sweep", "--arm", "B", "--g", "0.1,0.5"]]  # increasing grid: exit 2
    if not run.check_reference(run.Pass(cli, bad_op, keep_text=True), bad_op, oracles):
        problems.append("an op that exits 2 passes the reference check")


def check_bare_directory(problems: list[str]) -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    shutil.copytree(HERE, SCRATCH / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    try:
        proc = bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=SCRATCH)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_schema(spec, problems)
    check_gate(problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

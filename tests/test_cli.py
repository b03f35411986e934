"""Command-line surface: payloads, determinism, exit codes."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktrace import (
    MeterAttachment,
    MeterConfig,
    PathSum,
    PhotonState,
    build_nested_mzi,
)
from weaktrace.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, header, rows = {}, None, []
    for line in text.strip().splitlines():
        if line.startswith("#"):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_weak_values_default_table(capsys):
    code, out, _ = run_cli(capsys, "weak-values")
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["scenario"] == "weak-values"
    assert header == ["arm", "weak_value_re", "weak_value_im", "tsvf_re", "tsvf_im"]
    table = {r[0]: float(r[1]) for r in rows}
    expected = {"A": 1.0, "D": 0.0, "B": 0.5, "C": -0.5, "E": 0.0}
    for arm, value in expected.items():
        assert abs(table[arm] - value) < 1e-12
    for r in rows:  # TSVF column agrees
        assert abs(float(r[1]) - float(r[3])) < 1e-12


def test_weak_values_json(capsys):
    code, out, _ = run_cli(capsys, "weak-values", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["weak_values"]["B"]["weak_value_re"] - 0.5) < 1e-12
    assert abs(payload["weak_values"]["B"]["tsvf_re"] - 0.5) < 1e-12


def test_weak_values_detector_d1_regression(capsys):
    code, out, _ = run_cli(capsys, "weak-values", "--post", "D1")
    assert code == 0
    _, _, rows = parse_csv(out)
    table = {r[0]: float(r[1]) for r in rows}
    # frozen from the dense-matrix oracle; sum rules hold
    expected = {"A": 1.0, "B": -0.5, "C": 0.5, "D": 0.0, "E": 0.0}
    for arm, value in expected.items():
        assert abs(table[arm] - value) < 1e-12
    assert abs(table["A"] + table["B"] + table["C"] - 1.0) < 1e-12


def test_mean_values_table(capsys):
    code, out, _ = run_cli(capsys, "mean-values", "--g", "0.4")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["arm", "g", "pointer_mean", "ratio", "limit"]
    ratios = {r[0]: float(r[3]) for r in rows}
    for arm, value in {"A": 0.5, "D": 0.5, "B": 0.25, "C": 0.25, "E": 0.0}.items():
        assert abs(ratios[arm] - value) < 1e-12


def test_sweep_converges_to_weak_value(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--arm", "C", "--post", "D2", "--g", "1,0.5,0.1,0.01"
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["g", "ratio"]
    assert abs(float(rows[-1][1]) - (-0.5)) < 1e-3
    assert abs(float(meta["extrapolated_limit"]) - (-0.5)) < 1e-3


def test_sweep_with_monte_carlo(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--arm", "B", "--g-grid", "0.5,0.2", "--mc-n", "20000",
        "--seed", "5",
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["g", "ratio", "mc_estimate", "mc_stderr"]
    for row in rows:
        assert abs(float(row[2]) - 0.5) < 5 * float(row[3])


def test_discontinuity_rows(capsys):
    # the second grid reaches g = 1e-8, where the leakage is ~6e-18; in the
    # third the coupled shift g lies within 1e-12 of the uncoupled shift 0
    for grid in ("0.5,0.1,0.01", "1e-3,1e-6,1e-8", "1e-13,1e-14,1e-15"):
        code, out, _ = run_cli(capsys, "discontinuity", "--g-grid", grid)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert header == ["g", "e_occupation", "pointer_ratio", "analogy_ratio"]
        *finite, zero = rows
        for row in finite:
            g = float(row[0])
            closed = -0.25 * math.expm1(-g * g / 4.0)
            assert abs(float(row[1]) - closed) <= 1e-12 * closed
            assert abs(float(row[2]) - 0.5) < 1e-12
        assert float(zero[0]) == 0.0
        assert float(zero[1]) == 0.0
        assert zero[2] == ""  # ratio undefined at g = 0
        assert meta["discontinuous"] == "True"
        assert meta["b_signal_via_e"] == "True"


def test_discontinuity_subnormal_distances(capsys):
    # g^2 is subnormal at g = 1e-160: the exponent is formed as -(g / 2 sqrt(delta))^2
    code, out, _ = run_cli(capsys, "discontinuity", "--g-grid=1e-150,1e-155,1e-160",
                           "--delta=1e-300")
    assert code == 0
    _, _, rows = parse_csv(out)
    *finite, zero = rows
    for row in finite:
        closed = -0.25 * math.expm1(-((float(row[0]) / 2e-150) ** 2))
        assert abs(float(row[1]) - closed) <= 1e-12 * closed
    assert float(zero[1]) == 0.0


def test_discontinuity_json(capsys):
    code, out, _ = run_cli(capsys, "discontinuity", "--g-grid", "0.5,0.1,0.01", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["discontinuous"] is True
    assert payload["meta"]["b_signal_via_e"] is True
    assert payload["rows"][-1]["e_occupation"] == 0.0


def test_danan_mean_mode_single_peak(capsys):
    code, out, _ = run_cli(
        capsys, "danan", "--mode", "mean", "--mirrors", "M2", "--read", "D3"
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["read"] == "D3"
    assert "peak_M2" in meta
    assert abs(float(meta["peak_M2"]) - 0.005) < 1e-9
    assert header[0] == "t"
    assert len(rows) == 256


def test_danan_spectrum_export(capsys):
    code, out, _ = run_cli(
        capsys, "danan", "--mirrors", "M2", "--spectrum", "--rate", "128"
    )
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header[0] == "f"
    assert len(rows) == 65  # one-sided bins for 128 samples
    col = header.index("D3_mean")
    f2_row = next(r for r in rows if float(r[0]) == 5.0)
    others = [float(r[col]) for r in rows if float(r[0]) != 5.0]
    assert float(f2_row[col]) > 1e6 * max(others)


def test_danan_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "danan", "--mirrors", "M1,M2,M3", "--json", "--rate", "128",
    )
    assert code == 0
    payload = json.loads(out)
    peaks = payload["peaks"]["weak_value_mode_D2"]
    assert peaks["M1"] / peaks["M2"] == pytest.approx(2.0, rel=0.02)
    assert len(payload["times"]) == 128


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main([
            "sweep", "--arm", "B", "--g-grid", "0.5,0.1", "--mc-n", "5000",
            "--seed", "11", "--out", str(path),
        ])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("WEAKTRACE_SEED", "11")
    code = main(["sweep", "--arm", "B", "--g-grid", "0.5,0.1", "--mc-n", "5000",
                 "--out", str(a)])
    assert code == 0
    monkeypatch.delenv("WEAKTRACE_SEED")
    code = main(["sweep", "--arm", "B", "--g-grid", "0.5,0.1", "--mc-n", "5000",
                 "--seed", "11", "--out", str(b)])
    assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_invalid_configuration_exit_code(capsys):
    code, _, err = run_cli(capsys, "sweep", "--arm", "Q")
    assert code == 2
    assert err.strip()  # one-line diagnostic
    code, _, _ = run_cli(capsys, "sweep", "--arm", "B", "--g-grid", "0.1,0.5")
    assert code == 2
    code, _, _ = run_cli(capsys, "danan", "--mirrors", "M9")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # --arm is required
    assert exc.value.code == 2
    for argv in (["mean-values", "--g", "nan"], ["mean-values", "--g", "inf"],
                 ["danan", "--g", "nan"], ["mean-values", "--delta", "inf"],
                 ["sweep", "--arm", "A", "--g", "1", "--mc-n", "100000000000000000000000"],
                 ["discontinuity", "--g-grid", "1e-160,1e-165,1e-170"],
                 ["sweep", "--arm", "B", "--g", "1e-200,1e-201"],
                 # the Monte Carlo mean or its stderr overflows double range
                 ["sweep", "--arm", "C", "--g=1e300", "--delta=1e-300", "--mc-n=100"],
                 ["sweep", "--arm", "C", "--g=1e-300", "--delta=1e300", "--mc-n=100"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "invalid configuration" in err
    capsys.readouterr()


def test_extreme_scales_warn_nothing(capsys):
    # a meter distance past double range is an overlap of exactly 0 and a gap
    # whose square underflows disqualifies the envelope: neither is a
    # floating-point warning, so stderr holds only the one-line diagnostic
    for argv in (["sweep", "--arm", "C", "--g=1e300", "--delta=1e-300", "--mc-n=100"],
                 ["sweep", "--arm", "C", "--g=1e-300", "--delta=1e300", "--mc-n=100"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1


def test_invalid_seed_env_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("WEAKTRACE_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["weak-values"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_no_postselected_events_exit_code(capsys):
    # find a seed whose single trial fails to postselect; the protocol then
    # has no events and the command must exit 3
    paths = PathSum.compile(
        build_nested_mzi(),
        PhotonState.source(),
        [MeterAttachment("probe", "B", 0.5, MeterConfig(1.0))],
    )
    p = paths.postselect([0.5], "D2").probability
    seed = next(s for s in range(100) if np.random.default_rng(s).binomial(1, p) == 0)
    code, _, err = run_cli(
        capsys, "sweep", "--arm", "B", "--g-grid", "0.5", "--mc-n", "1",
        "--seed", str(seed),
    )
    assert code == 3
    assert "no postselected events" in err


NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e3, 1e3).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "5e-324", "1e-170", "1e-200", "1e",
                     "abc", "", "0x10"]),
)
GRID = st.lists(NUMBER, min_size=1, max_size=4).map(",".join)
# never a large in-range trial count: 10**23 is out of range and must exit 2
MC_N = st.one_of(st.sampled_from([-1, 0, 10**23]), st.integers(1, 10**4)).map(str)
ARM = st.sampled_from(["A", "B", "C", "D", "E", "N", "Q", ""])
POST = st.sampled_from(["D1", "D2", "D3", "D4"])


def _options(**values):
    return [f"--{name.replace('_', '-')}={v}" for name, v in values.items() if v is not None]


ARGV = st.one_of(
    st.builds(lambda arm, post, g, delta, mc_n, seed: ["sweep", *_options(
        arm=arm, post=post, g=g, delta=delta, mc_n=mc_n, seed=seed)],
        ARM, POST, GRID, st.none() | NUMBER, st.none() | MC_N, st.none() | st.integers(-2, 2**40)),
    st.builds(lambda arm, g, delta: ["mean-values", *_options(arm=arm, g=g, delta=delta)],
              st.none() | st.lists(ARM, min_size=1, max_size=3).map(",".join),
              st.none() | NUMBER, st.none() | NUMBER),
    st.builds(lambda grid, delta: ["discontinuity", *_options(g_grid=grid, delta=delta)],
              st.none() | GRID, st.none() | NUMBER),
    st.builds(lambda post, delta: ["weak-values", *_options(post=post, delta=delta)],
              POST, st.none() | NUMBER),
)


@settings(max_examples=300, deadline=None)
@given(argv=ARGV, as_json=st.booleans())
def test_fuzzed_argv_exit_codes(argv, as_json):
    # malformed, non-finite and out-of-range input exits 2 (argparse's usage
    # errors arrive as SystemExit(2)); nothing may escape as a traceback
    argv = argv + ["--json"] if as_json else argv
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), argv

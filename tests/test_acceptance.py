"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on success as well as on failure.
"""

import math
import time

import numpy as np

from weaktrace import (
    ARMS,
    Circuit,
    MeterConfig,
    MeterWave,
    PathSum,
    PhotonState,
    arm_occupation,
    build_nested_mzi,
    discontinuity_report,
    monte_carlo_weak_value,
    simulate_traces,
    default_schedule,
    sinusoid_amplitude,
    wave_norm2,
    wave_pointer_mean,
    weak_mean_value,
    weak_value_analytic,
    weak_value_operational,
    weak_value_tsvf,
)

import oracles

SQ2 = math.sqrt(2.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_checkpoint_amplitudes():
    circuit = build_nested_mzi()
    src = PhotonState.source()
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        after_bs2 = PathSum.compile(circuit, src, (), 2).ket()
        after_bs3 = PathSum.compile(circuit, src, (), 3).ket()
        best = min(best, time.perf_counter() - t0)
    expected3 = {"A": -1j / SQ2, "B": -0.5j, "C": 0.5}
    expected4 = {"A": -1j / SQ2, "D3": -1j / SQ2}
    err = max(
        max(abs(after_bs2.amplitude(a) - expected3.get(a, 0.0)) for a in ARMS),
        max(abs(after_bs3.amplitude(a) - expected4.get(a, 0.0)) for a in ARMS),
    )
    report(
        "criterion 1 checkpoint amplitudes",
        err < 1e-12 and best < 1e-3,
        f"max err {err:.2e}, runtime {best * 1e6:.0f} us",
    )


def test_criterion_02_dark_port():
    after_bs3 = PathSum.compile(build_nested_mzi(), PhotonState.source(), (), 3).ket()
    p_e = abs(after_bs3.amplitude("E")) ** 2
    occ = arm_occupation(
        build_nested_mzi(), PhotonState.source(), [], [], MeterConfig(1.0), "E", 3
    )
    report("criterion 2 dark port", p_e < 1e-12 and occ < 1e-12, f"P(E)={p_e:.2e}")


def test_criterion_03_weak_value_table():
    t0 = time.perf_counter()
    expected = {"A": 1.0, "B": 0.5, "C": -0.5, "D": 0.0, "E": 0.0}
    wv = {arm: weak_value_analytic(arm, detector="D2") for arm in expected}
    ts = {arm: weak_value_tsvf(arm, detector="D2") for arm in expected}
    err_table = max(abs(wv[a] - expected[a]) for a in expected)
    err_tsvf = max(abs(wv[a] - ts[a]) for a in expected)
    sum_abc = abs(wv["A"] + wv["B"] + wv["C"] - 1.0)
    sum_ad = abs(wv["A"] + wv["D"] - 1.0)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 weak-value table",
        err_table < 1e-12 and err_tsvf < 1e-12 and sum_abc < 1e-12
        and sum_ad < 1e-12 and elapsed < 1.0,
        f"table err {err_table:.2e}, tsvf err {err_tsvf:.2e}, {elapsed:.3f}s",
    )


def test_criterion_04_operational_limit():
    grid = [1.0, 0.5, 0.1, 0.01]
    rec_b = weak_value_operational("B", "D2", grid, delta=1.0)
    err_b = max(abs(r - 0.5) for _, r in rec_b.estimates)
    rec_c = weak_value_operational("C", "D2", grid, delta=1.0)
    err_c = 0.0
    for g, r in rec_c.estimates:
        kappa = math.exp(-g * g / 4.0)
        err_c = max(err_c, abs(r - (1 - 3 * kappa) / (10 - 6 * kappa)))
    limit_err = abs(rec_c.limit - (-0.5))
    report(
        "criterion 4 operational limit",
        err_b < 1e-12 and err_c < 1e-12 and limit_err < 1e-3,
        f"B err {err_b:.2e}, C closed-form err {err_c:.2e}, C limit err {limit_err:.2e}",
    )


def test_criterion_05_discontinuity():
    rep = discontinuity_report([0.5, 0.1, 0.01], delta=1.0)
    err_pe = max(
        abs(row.e_occupation - 0.25 * (1 - math.exp(-row.g ** 2 / 4.0)))
        for row in rep.rows
    )
    positive = all(row.e_occupation > 0 for row in rep.rows)
    zero_exact = rep.zero_row.e_occupation == 0.0 and rep.zero_row.pointer_ratio is None
    wv_ok = abs(rep.extrapolated_weak_value - 0.5) < 1e-12
    report(
        "criterion 5 discontinuity",
        err_pe < 1e-12 and positive and zero_exact and wv_ok and rep.discontinuous,
        f"P_E err {err_pe:.2e}, extrapolated {rep.extrapolated_weak_value:.12f}",
    )


def test_criterion_06_mean_value_exactness():
    err = 0.0
    for g in (1e-3, 1e-1, 1.0, 2.0):
        paths = PathSum.compile(build_nested_mzi(), PhotonState.source(), ["B"])
        # unconditional pointer mean: every photon outcome kept
        stats = paths.statistics([[g]], None, MeterConfig(1.0)).values()
        mean = sum(float(m[0]) for _, m in stats) / sum(float(p[0]) for p, _ in stats)
        err = max(err, abs(mean / g - 0.25))
    report("criterion 6 exact unconditional mean", err < 1e-12, f"max err {err:.2e}")


def test_criterion_07_weak_mean_table():
    expected = {"A": 0.5, "D": 0.5, "B": 0.25, "C": 0.25, "E": 0.0}
    ratios = {arm: weak_mean_value(arm, g=0.3, delta=1.0).ratio for arm in expected}
    err = max(abs(ratios[a] - expected[a]) for a in expected)
    sum_abc = abs(ratios["A"] + ratios["B"] + ratios["C"] - 1.0)
    sum_ad = abs(ratios["A"] + ratios["D"] - 1.0)
    report(
        "criterion 7 weak-mean-value table",
        err < 1e-12 and sum_abc < 1e-12 and sum_ad < 1e-12,
        f"table err {err:.2e}",
    )


def test_criterion_08_monte_carlo_protocol():
    t0 = time.perf_counter()
    est = monte_carlo_weak_value("B", "D2", g=0.2, delta=1.0, n=1_000_000, seed=2024)
    elapsed = time.perf_counter() - t0
    again = monte_carlo_weak_value("B", "D2", g=0.2, delta=1.0, n=1_000_000, seed=2024)
    deterministic = again.value == est.value and again.n_postselected == est.n_postselected
    within = abs(est.value - 0.5) <= 5 * est.stderr
    report(
        "criterion 8 Monte Carlo protocol",
        within and deterministic and elapsed < 30.0,
        f"estimate {est.value:.5f} +- {est.stderr:.5f} "
        f"({est.n_postselected} events, {elapsed:.2f}s)",
    )


def test_criterion_09_danan_simulation():
    t0 = time.perf_counter()
    g0, rate, duration = 1e-2, 256.0, 1.0
    trace3 = simulate_traces(default_schedule(g0), duration, rate, delta=1.0)
    peaks = {
        name: sinusoid_amplitude(trace3.series["D2_mean"], rate, f)
        for name, f in (("M1", 3.0), ("M2", 5.0), ("M3", 7.0))
    }
    r12 = peaks["M1"] / peaks["M2"]
    r13 = peaks["M1"] / peaks["M3"]
    ratios_ok = abs(r12 - 2.0) < 0.04 and abs(r13 - 2.0) < 0.04  # 2% of 2.0

    trace_m2 = simulate_traces(default_schedule(g0, enabled=("M2",)), duration, rate, 1.0)
    expected = 0.5 * g0 * np.sin(2 * np.pi * 5.0 * trace_m2.times)
    d3_err = float(np.max(np.abs(trace_m2.series["D3_mean"] - expected)))
    outer_f2 = sinusoid_amplitude(trace_m2.series["outer_mean"], rate, 5.0)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 9 vibrating-mirror realization",
        ratios_ok and d3_err < 1e-12 and outer_f2 < g0**2 and elapsed < 10.0,
        f"D2 ratios {r12:.4f}/{r13:.4f}, D3 err {d3_err:.2e}, "
        f"outer f2 {outer_f2:.2e} < {g0**2:.0e}, {elapsed:.2f}s",
    )


def test_criterion_10_property_suites():
    rng = np.random.default_rng(99)
    circuit = build_nested_mzi()

    # unitarity: random stage inputs and random joint pipelines
    unitary_ok = True
    for _ in range(100):
        bs = circuit.stages[rng.integers(4)]
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        state = PhotonState({bs.inputs[0]: raw[0], bs.inputs[1]: raw[1]})
        out = PathSum.compile(Circuit((bs,)), state).ket()
        unitary_ok &= abs(out.norm2() - 1.0) < 1e-12
        arm = ("A", "D", "B", "C", "E")[rng.integers(5)]
        g = float(rng.uniform(-2, 2))
        config = MeterConfig(float(rng.uniform(0.25, 4.0)))
        paths = PathSum.compile(circuit, PhotonState.source(), [arm])
        norm2 = sum(float(p[0]) for p, _ in paths.statistics([[g]], None, config).values())
        unitary_ok &= abs(norm2 - 1.0) < 1e-12

    # postselection completeness
    complete_ok = True
    for _ in range(100):
        arm = ("A", "D", "B", "C", "E")[rng.integers(5)]
        g = float(rng.uniform(0, 2))
        config = MeterConfig(float(rng.uniform(0.25, 4.0)))
        paths = PathSum.compile(circuit, PhotonState.source(), [arm])
        total = sum(wave_norm2(paths.postselect([g], d, config)) for d in ("D1", "D2", "D3"))
        complete_ok &= abs(total - 1.0) < 1e-12

    # translation covariance and quadrature agreement
    translate_ok = True
    quad_ok = True
    for _ in range(100):
        n = rng.integers(1, 7)
        pairs = [
            (complex(rng.standard_normal(), rng.standard_normal()), rng.uniform(-3, 3))
            for _ in range(n)
        ]
        delta = float(rng.uniform(0.25, 4.0))
        wave = MeterWave([c for c, _ in pairs], [s for _, s in pairs], MeterConfig(delta))
        if wave_norm2(wave) < 1e-8:
            continue
        t = float(rng.uniform(-5, 5))
        shifted = MeterWave(wave.coefficients, wave.shifts + t, wave.config)
        translate_ok &= abs(wave_norm2(shifted) - wave_norm2(wave)) < 1e-12
        translate_ok &= abs(wave_pointer_mean(shifted) - wave_pointer_mean(wave) - t) < 1e-10
        qn2, qmean = oracles.quad_wave_stats(pairs, delta)
        quad_ok &= abs(wave_norm2(wave) - qn2) < 1e-8
        quad_ok &= abs(wave_pointer_mean(wave) - qmean) < 1e-8

    report(
        "criterion 10 property suites",
        unitary_ok and complete_ok and translate_ok and quad_ok,
        f"unitarity {unitary_ok}, completeness {complete_ok}, "
        f"translation {translate_ok}, quadrature {quad_ok}",
    )

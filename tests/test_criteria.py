"""Weak-value and weak-mean-value criteria against oracles and closed forms."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weaktrace import (
    ARMS,
    BeamSplitter,
    Circuit,
    MeterConfig,
    NESTED_MZI,
    NoPostselectedEventsError,
    PathSum,
    PhotonState,
    PipelineError,
    UndefinedWeakValueError,
    arm_occupation,
    build_nested_mzi,
    discontinuity_report,
    extrapolate_even_limit,
    monte_carlo_weak_value,
    tsvf_backward_state,
    wave_norm2,
    weak_mean_value,
    weak_value_analytic,
    weak_value_operational,
    weak_value_tsvf,
)

import oracles

TABLE_ARMS = ("A", "B", "C", "D", "E")

# analytic tables under the fixed convention, cross-checked below against
# the dense-matrix oracle
WEAK_VALUES = {
    "D1": {"A": 1.0, "B": -0.5, "C": 0.5, "D": 0.0, "E": 0.0},
    "D2": {"A": 1.0, "B": 0.5, "C": -0.5, "D": 0.0, "E": 0.0},
    "D3": {"A": 0.0, "B": 0.5, "C": 0.5, "D": 1.0, "E": 0.0},
}


@pytest.mark.parametrize("detector", ("D1", "D2", "D3"))
def test_weak_value_tables(detector):
    for arm in TABLE_ARMS:
        wv = weak_value_analytic(arm, detector=detector)
        assert abs(wv.imag) < 1e-12
        assert abs(wv - WEAK_VALUES[detector][arm]) < 1e-12
        assert abs(wv - oracles.oracle_weak_value(arm, detector)) < 1e-12


@pytest.mark.parametrize("detector", ("D1", "D2", "D3"))
def test_weak_value_sum_rules(detector):
    wv = {arm: weak_value_analytic(arm, detector=detector) for arm in TABLE_ARMS}
    assert abs(wv["A"] + wv["B"] + wv["C"] - 1.0) < 1e-12
    assert abs(wv["A"] + wv["D"] - 1.0) < 1e-12


@pytest.mark.parametrize("detector", ("D1", "D2", "D3"))
def test_tsvf_matches_forward_computation(detector):
    for arm in TABLE_ARMS:
        forward = weak_value_analytic(arm, detector=detector)
        backward = weak_value_tsvf(arm, detector=detector)
        assert abs(forward - backward) < 1e-12


@settings(max_examples=100, deadline=None)
@given(mix=st.floats(0.0, math.pi / 2), phase=st.floats(0.0, 2 * math.pi),
       arm=st.sampled_from(TABLE_ARMS), detector=st.sampled_from(("D1", "D2", "D3")))
def test_weak_value_random_preselection(mix, phase, arm, detector):
    # the path-sum weak value against dense matrix products, any preselection
    amplitudes = {"N": math.cos(mix), "N0": math.sin(mix) * cmath.exp(1j * phase)}
    assume(abs(oracles.evolve_vector(4, amplitudes)[oracles.IDX[detector]]) > 1e-3)
    expected = oracles.oracle_weak_value(arm, detector, amplitudes)
    wv = weak_value_analytic(arm, PhotonState(amplitudes), detector)
    assert abs(wv - expected) < 1e-12 * max(1.0, abs(expected))


def test_weak_value_unknown_labels():
    # E is not an arm of the two-stage circuit
    for arm, detector, circuit in (("Q", "D2", None), ("B", "Q", None), ("E", "D1", TWO_STAGE)):
        with pytest.raises(ValueError):
            weak_value_analytic(arm, detector=detector, circuit=circuit)


def test_weak_value_columns_reject_an_occupied_detector_port():
    # the TSVF forward sum for B stops before BS4, which outputs to D1;
    # the preparation is still invalid for the circuit, so every column raises
    bad = PhotonState({"N": 1, "D1": 1e-7})
    for arm in TABLE_ARMS:
        with pytest.raises(PipelineError, match="BS4"):
            weak_value_tsvf(arm, bad, "D1")
        with pytest.raises(PipelineError, match="BS4"):
            weak_value_analytic(arm, bad, "D1")
        with pytest.raises(PipelineError, match="BS4"):
            weak_mean_value(arm, bad)


def test_tsvf_backward_state_overlap():
    # <Phi|Psi> at any stage equals the full transition amplitude <D2|U...|N>
    circuit = build_nested_mzi()
    for stage in (0, 1, 2, 3, 4):
        phi = tsvf_backward_state("D2", stage, circuit)
        psi = PathSum.compile(circuit, PhotonState.source(), (), stage).ket()
        overlap = sum(
            phi.amplitude(a).conjugate() * c for a, c in psi.amplitudes.items()
        )
        assert abs(overlap - (-0.5)) < 1e-12


def test_weak_value_undefined_for_zero_overlap():
    a_n = oracles.evolve_vector(4)[oracles.IDX["D2"]]
    a_n0 = oracles.evolve_vector(4, {"N0": 1.0})[oracles.IDX["D2"]]
    dark = PhotonState({"N": a_n0, "N0": -a_n})
    with pytest.raises(UndefinedWeakValueError):
        weak_value_analytic("B", dark, "D2")
    with pytest.raises(UndefinedWeakValueError):
        weak_value_tsvf("B", dark, "D2")


def test_operational_sweep_arm_b_exact_at_every_g():
    record = weak_value_operational("B", "D2", [1.0, 0.5, 0.1, 0.01], delta=1.0)
    for _, ratio in record.estimates:
        assert abs(ratio - 0.5) < 1e-12
    assert abs(record.limit - 0.5) < 1e-12
    assert abs(record.analytic - 0.5) < 1e-12


def test_operational_sweep_arm_c_closed_form_and_limit():
    grid = [1.0, 0.5, 0.1, 0.01]
    record = weak_value_operational("C", "D2", grid, delta=1.0)
    for g, ratio in record.estimates:
        kappa = math.exp(-g * g / 4.0)
        assert abs(ratio - (1 - 3 * kappa) / (10 - 6 * kappa)) < 1e-12
    assert abs(record.limit - (-0.5)) < 1e-3
    # genuine limit-taking: the raw ratios differ from the limit at large g
    assert abs(record.estimates[0][1] - record.limit) > 0.2


@pytest.mark.parametrize("detector", ("D1", "D2", "D3"))
def test_operational_ratios_match_alpha_beta_closed_form(detector):
    # the conditional wave is alpha*G_g + beta*G_0, with alpha the amplitude
    # routed through the measured arm (dense oracle) and beta the rest
    full = oracles.evolve_vector(4)[oracles.IDX[detector]]
    for arm in TABLE_ARMS:
        alpha = oracles.projected_amplitude(arm, detector)
        beta = full - alpha
        for grid, delta in (([2.0, 1.0, 0.5, 0.1, 0.01], 1.0), ([0.7, 0.3], 0.2), ([50.0], 1e-4)):
            record = weak_value_operational(arm, detector, grid, delta)
            for g, ratio in record.estimates:
                cross = (alpha.conjugate() * beta).real * math.exp(-g * g / (4.0 * delta))
                closed = (abs(alpha) ** 2 + cross) / (abs(alpha) ** 2 + abs(beta) ** 2 + 2 * cross)
                assert abs(ratio - closed) < 1e-12


@pytest.mark.parametrize("arm", ("D", "E"))
def test_operational_sweep_dead_arms_zero_at_every_g(arm):
    record = weak_value_operational(arm, "D2", [1.0, 0.5, 0.1, 0.01], delta=1.0)
    for g, ratio in record.estimates:
        assert abs(ratio) < 1e-12
        sim = oracles.JointGridSim(1.0).run([(arm, g, oracles.ARM_STAGE[arm])])
        assert abs(sim.conditional_mean("D2")) < 1e-9
    assert abs(record.limit) < 1e-12


def test_operational_sweep_arm_a_unity():
    record = weak_value_operational("A", "D2", [1.0, 0.1], delta=1.0)
    for _, ratio in record.estimates:
        assert abs(ratio - 1.0) < 1e-12


def test_operational_error_towards_limit_shrinks():
    grid = [1.0, 0.5, 0.25, 0.1, 0.05, 0.01]
    for arm in TABLE_ARMS:
        record = weak_value_operational(arm, "D2", grid, delta=1.0)
        target = record.analytic.real
        errors = [abs(r - target) for _, r in record.estimates]
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-12


def test_operational_sweep_validation():
    with pytest.raises(ValueError):
        weak_value_operational("B", "D2", [], delta=1.0)
    with pytest.raises(ValueError):
        weak_value_operational("B", "D2", [0.1, 0.5], delta=1.0)
    with pytest.raises(ValueError):
        weak_value_operational("B", "D2", [0.5, -0.1], delta=1.0)


def test_operational_zero_postselection_probability():
    # |D0> input sends nothing to D3 (exact cancellation), so postselecting
    # there with an A-arm meter never fires
    with pytest.raises(NoPostselectedEventsError):
        weak_value_operational("A", "D3", [0.5, 0.1], 1.0, in_state=PhotonState.basis("D0"))


def test_extrapolation_recovers_even_polynomial():
    gs = [0.4, 0.2, 0.1]
    values = [0.3 + 0.2 * g**2 - 0.1 * g**4 for g in gs]
    assert abs(extrapolate_even_limit(gs, values) - 0.3) < 1e-12


def test_monte_carlo_protocol_b_arm():
    est = monte_carlo_weak_value("B", "D2", g=0.2, delta=1.0, n=100_000, seed=123)
    assert est.n_postselected > 20_000
    assert abs(est.value - 0.5) < 5 * est.stderr
    again = monte_carlo_weak_value("B", "D2", g=0.2, delta=1.0, n=100_000, seed=123)
    assert again.value == est.value and again.n_postselected == est.n_postselected


def test_monte_carlo_a_arm_matches_operational():
    # C post D2 is the anomalous (signed) wave, sampled by rejection; at
    # g = 5e-15, delta = 1e-30 the branches are 5 meter widths apart although
    # their shifts differ by less than 1e-14, and must not be merged
    for arm, g, delta in [("A", 0.2, 1.0), ("C", 0.2, 1.0), ("B", 5e-15, 1e-30),
                          ("C", 5e-15, 1e-30)]:
        record = weak_value_operational(arm, "D2", [g], delta=delta)
        est = monte_carlo_weak_value(arm, "D2", g=g, delta=delta, n=100_000, seed=7)
        assert abs(est.value - record.estimates[0][1]) < 5 * est.stderr


def test_monte_carlo_stderr_when_mean_dominates_spread():
    # A post D2 is one Gaussian at shift g: readout sd sqrt(delta/2) << mean g;
    # several chunks are merged, and the spread must survive the merge
    g, delta = 1e4, 1e-6
    est = monte_carlo_weak_value("A", "D2", g=g, delta=delta, n=1_000_000, seed=3)
    assert est.n_postselected > 200_000
    expected = math.sqrt(delta / 2.0) / math.sqrt(est.n_postselected) / g
    assert abs(est.stderr / expected - 1.0) < 0.05
    assert abs(est.value - 1.0) < 5 * est.stderr


def test_monte_carlo_signed_wave_keeps_per_draw_stream():
    # C post D2 (weak value -1/2) is rejection-sampled draw by draw; its
    # estimates are pinned to the chunked reduction's digits for these seeds
    for g, seed, value, stderr in [(1.0, 5, -0.25108459651557385, 0.0011049712715854013),
                                   (0.01, 6, -0.34772537573193596, 0.14127836682281805)]:
        est = monte_carlo_weak_value("C", "D2", g=g, delta=1.0, n=1_000_000, seed=seed)
        assert abs(est.value / value - 1.0) < 1e-12
        assert abs(est.stderr / stderr - 1.0) < 1e-12


def test_monte_carlo_trial_count_range():
    for n in (0, 2**63):
        with pytest.raises(ValueError):
            monte_carlo_weak_value("B", "D2", g=0.2, delta=1.0, n=n, seed=0)


def test_monte_carlo_nonpositive_coupling():
    # mean/g is undefined at g = 0, as MeanValueRecord.ratio is
    with pytest.raises(ValueError, match="undefined at g = 0"):
        monte_carlo_weak_value("B", "D2", g=0.0, delta=1.0, n=1000, seed=0)
    # a negative g flips the pointer mean and the divisor together, never the stderr
    est = monte_carlo_weak_value("B", "D2", g=-0.5, delta=1.0, n=100_000, seed=0)
    assert est.stderr > 0
    assert abs(est.value - weak_value_analytic("B").real) < 5 * est.stderr


def test_monte_carlo_single_trial():
    paths = PathSum.compile(build_nested_mzi(), PhotonState.source(), ["B"])
    p = wave_norm2(paths.postselect([0.2], "D2", MeterConfig(1.0)))
    seed = next(
        s for s in range(100) if np.random.default_rng(s).binomial(1, p) == 1
    )
    est = monte_carlo_weak_value("B", "D2", g=0.2, delta=1.0, n=1, seed=seed)
    assert est.n_postselected == 1
    assert math.isfinite(est.value)
    assert math.isnan(est.stderr)


def test_monte_carlo_no_postselections():
    with pytest.raises(NoPostselectedEventsError):
        monte_carlo_weak_value(
            "A", "D3", g=0.2, delta=1.0, n=100, seed=0, in_state=PhotonState.basis("D0")
        )


MEAN_TABLE = {"A": 0.5, "D": 0.5, "B": 0.25, "C": 0.25, "E": 0.0}


def test_weak_mean_value_table():
    for arm, expected in MEAN_TABLE.items():
        for g in (0.05, 0.7):
            rec = weak_mean_value(arm, g=g, delta=1.0)
            assert abs(rec.pointer_mean - g * expected) < 1e-12
            assert abs(rec.ratio - expected) < 1e-12
            assert abs(rec.limit - expected) < 1e-12


def test_weak_mean_value_ratio_independent_of_g():
    for g in (1e-3, 0.1, 1.0, 2.0):
        rec = weak_mean_value("B", g=g, delta=1.0)
        assert abs(rec.ratio - 0.25) < 1e-12
    for delta in (0.25, 4.0):
        rec = weak_mean_value("B", g=0.5, delta=delta)
        assert abs(rec.ratio - 0.25) < 1e-12


def test_weak_mean_value_sum_rules():
    ratios = {arm: weak_mean_value(arm, g=0.3, delta=1.0).ratio for arm in MEAN_TABLE}
    assert abs(ratios["A"] + ratios["B"] + ratios["C"] - 1.0) < 1e-12
    assert abs(ratios["A"] + ratios["D"] - 1.0) < 1e-12


def test_weak_mean_value_dark_arm_and_g_zero():
    rec = weak_mean_value("E", g=0.8, delta=1.0)
    assert abs(rec.pointer_mean) < 1e-12
    zero = weak_mean_value("B", g=0.0, delta=1.0)
    assert zero.pointer_mean == 0.0
    assert zero.ratio is None
    assert abs(zero.limit - 0.25) < 1e-12
    with pytest.raises(ValueError):
        weak_mean_value("B", g=-0.1, delta=1.0)


def test_discontinuity_report_contents():
    grid = [0.5, 0.1, 0.01]
    report = discontinuity_report(grid, delta=1.0)
    for row in report.rows:
        closed = 0.25 * (1.0 - math.exp(-row.g ** 2 / 4.0))
        assert abs(row.e_occupation - closed) < 1e-12
        assert row.e_occupation > 0.0
        assert abs(row.pointer_ratio - 0.5) < 1e-12
        assert abs(row.analogy_ratio - report.analogy_slope) < 1e-12
    assert report.zero_row.g == 0.0
    assert report.zero_row.e_occupation == 0.0
    assert report.zero_row.pointer_ratio is None
    assert abs(report.extrapolated_weak_value - 0.5) < 1e-12
    assert report.b_signal_via_e
    assert report.discontinuous


def test_discontinuity_grid_validation():
    with pytest.raises(ValueError):
        discontinuity_report([0.1, 0.5], delta=1.0)
    with pytest.raises(ValueError):
        discontinuity_report([], delta=1.0)
    with pytest.raises(ValueError):
        discontinuity_report([0.5, -0.1], delta=1.0)


# ------------------------------------------------------------- other circuits

_BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)

# a plain Mach-Zehnder interferometer, N -> (C, B) -> (D1, D2), D1 bright
TWO_STAGE = Circuit((
    BeamSplitter(1, ("N", "N0"), ("C", "B"), _BALANCED),
    BeamSplitter(2, ("B", "C"), ("D1", "D2"), _BALANCED),
))


def test_two_stage_mzi_reads_its_own_topology():
    assert dict(TWO_STAGE.live) == {"N": range(0, 1), "N0": range(0, 1), "B": range(1, 2),
                                    "C": range(1, 2), "D1": range(2, 3), "D2": range(2, 3)}
    assert TWO_STAGE.detectors == ("D1", "D2")
    assert abs(weak_value_analytic("B", detector="D1", circuit=TWO_STAGE) - 0.5) < 1e-12
    assert abs(weak_value_tsvf("B", detector="D1", circuit=TWO_STAGE) - 0.5) < 1e-12
    rec = weak_mean_value("B", circuit=TWO_STAGE)
    assert abs(rec.ratio - 0.5) < 1e-12
    assert abs(rec.limit - 0.5) < 1e-12
    occ = arm_occupation(TWO_STAGE, PhotonState.source(), (), (), MeterConfig(1.0), "B", 1)
    assert abs(occ - 0.5) < 1e-12


def test_postselect_checks_the_compiled_circuit_detectors():
    paths = PathSum.compile(TWO_STAGE, PhotonState.source(), [])
    config = MeterConfig(1.0)
    assert abs(wave_norm2(paths.postselect([], "D1", config)) - 1.0) < 1e-12
    with pytest.raises(ValueError):  # no D3 in this circuit
        paths.postselect([], "D3", config)
    with pytest.raises(ValueError):  # D1 is produced by the second stage
        PathSum.compile(TWO_STAGE, PhotonState.source(), [], upto=1).postselect([], "D1", config)


def test_tsvf_unknown_arm_is_value_error():
    with pytest.raises(ValueError):
        weak_value_tsvf("Q")
    with pytest.raises(ValueError):  # E is not an arm of the two-stage circuit
        weak_value_tsvf("E", detector="D1", circuit=TWO_STAGE)


def test_discontinuity_report_names_missing_arms():
    with pytest.raises(ValueError, match="lacks E$") as info:
        discontinuity_report([0.1, 0.01], delta=1.0, circuit=TWO_STAGE)
    assert not isinstance(info.value, NoPostselectedEventsError)
    no_b_e_d2 = Circuit((
        BeamSplitter(1, ("N", "N0"), ("A", "C"), _BALANCED),
        BeamSplitter(2, ("A", "C"), ("D1", "D3"), _BALANCED),
    ))
    with pytest.raises(ValueError, match="lacks B, E, D2$"):
        discontinuity_report([0.1, 0.01], delta=1.0, circuit=no_b_e_d2)


def test_b_signal_bypasses_e_when_d2_is_the_bright_inner_port():
    # D2 and D3 swapped: B reaches D2 directly through BS3, without E
    relabelled = Circuit((
        BeamSplitter(1, ("N", "N0"), ("D", "A"), _BALANCED),
        BeamSplitter(2, ("D", "D0"), ("C", "B"), _BALANCED),
        BeamSplitter(3, ("B", "C"), ("D2", "E"), _BALANCED),
        BeamSplitter(4, ("A", "E"), ("D1", "D3"), _BALANCED),
    ))
    report = discontinuity_report([0.1, 0.05, 0.01], delta=1.0, circuit=relabelled)
    assert not report.b_signal_via_e
    assert report.discontinuous


def _u2(alpha, theta, phi, chi):
    """e^{i alpha} [[cos t e^{i phi}, sin t e^{i chi}], [-sin t e^{-i chi}, cos t e^{-i phi}]]."""
    c, s = math.cos(theta), math.sin(theta)
    return cmath.exp(1j * alpha) * np.array([
        [c * cmath.exp(1j * phi), s * cmath.exp(1j * chi)],
        [-s * cmath.exp(-1j * chi), c * cmath.exp(-1j * phi)],
    ])


ANGLE = st.floats(0.0, 2 * math.pi)


@st.composite
def random_circuits(draw):
    """A random beamsplitter mesh with its detectors and a random preselection.

    Each stage takes two open arms or fresh labels and produces two fresh
    labels, so n stages need 2n + 2 distinct arms: ARMS (11 labels) allows
    2 to 4 stages. Every transfer is a random U(2) (any unitary is such a
    mesh, Reck et al., PRL 73, 58 (1994)). Returns the circuit, the arms no
    stage consumes, and normalized amplitudes on the arms no stage produces.
    """
    n = draw(st.integers(2, 4))
    fresh = list(draw(st.permutations(ARMS)))
    open_arms: list[str] = []
    sources: list[str] = []
    stages = []
    for ident in range(1, n + 1):
        inputs = []
        for _ in range(2):
            candidates = [a for a in open_arms if a not in inputs]
            if len(fresh) > 2 * (n - ident + 1):  # labels left over after every output
                candidates.append(fresh[0])
            arm = draw(st.sampled_from(candidates))
            if arm in open_arms:
                open_arms.remove(arm)
            else:
                fresh.remove(arm)
                sources.append(arm)
            inputs.append(arm)
        outputs = (fresh.pop(0), fresh.pop(0))
        open_arms.extend(outputs)
        transfer = _u2(*(draw(ANGLE) for _ in range(4)))
        stages.append(BeamSplitter(ident, tuple(inputs), outputs, transfer))
    raw = [complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))) for _ in sources]
    norm = math.sqrt(sum(abs(c) ** 2 for c in raw))
    assume(norm > 0.1)
    return Circuit(tuple(stages)), sorted(open_arms), {a: c / norm for a, c in zip(sources, raw)}


@settings(max_examples=100, deadline=None)
@given(drawn=random_circuits(), g=st.floats(0.05, 2.0), delta=st.floats(0.1, 4.0))
def test_random_circuits_against_dense_oracle(drawn, g, delta):
    circuit, detectors, amplitudes = drawn
    state = PhotonState(amplitudes)
    first = oracles.arm_stages(circuit)
    assert circuit.detectors == tuple(detectors)
    assert {arm: live.start for arm, live in circuit.live.items()} == first
    final = oracles.evolve_vector(len(circuit), amplitudes, circuit)
    for detector in detectors:
        if abs(final[oracles.IDX[detector]]) < 0.1:
            continue
        for arm in first:
            expected = oracles.oracle_weak_value(arm, detector, amplitudes, circuit)
            tol = 1e-12 * max(1.0, abs(expected))
            assert abs(weak_value_analytic(arm, state, detector, circuit) - expected) < tol
            assert abs(weak_value_tsvf(arm, state, detector, circuit) - expected) < tol
    for k in range(len(circuit) + 1):
        total = sum(arm_occupation(circuit, state, (), (), MeterConfig(delta), arm, k)
                    for arm, live in circuit.live.items() if k in live)
        assert abs(total - 1.0) < 1e-12
    for arm in first:
        rec = weak_mean_value(arm, state, g, delta, circuit)
        expected = oracles.occupation(arm, amplitudes, circuit)
        assert abs(rec.ratio - rec.limit) < 1e-12
        assert abs(rec.limit - expected) < 1e-12


@settings(max_examples=100, deadline=None)
@given(drawn=random_circuits())
def test_random_circuits_adjoint(drawn):
    circuit, detectors, amplitudes = drawn
    twice = circuit.adjoint.adjoint
    assert len(twice) == len(circuit)
    for bs, back in zip(circuit.stages, twice.stages):
        assert (back.ident, back.inputs, back.outputs) == (bs.ident, bs.inputs, bs.outputs)
        assert np.array_equal(back.transfer, bs.transfer)
    # the adjoint undoes the circuit
    final = PathSum.compile(circuit, PhotonState(amplitudes)).ket()
    restored = PathSum.compile(circuit.adjoint, final).ket()
    for arm in ARMS:
        assert abs(restored.amplitude(arm) - amplitudes.get(arm, 0.0)) < 1e-12
    # <Phi_k|Psi_k> is the transition amplitude at every cut k
    for detector in detectors:
        for k in range(len(circuit) + 1):
            phi = tsvf_backward_state(detector, k, circuit)
            psi = PathSum.compile(circuit, PhotonState(amplitudes), (), k).ket()
            overlap = sum(phi.amplitude(a).conjugate() * c for a, c in psi.amplitudes.items())
            assert abs(overlap - final.amplitude(detector)) < 1e-12


def test_adjoint_is_built_once():
    circuit = build_nested_mzi()
    assert circuit.adjoint is circuit.adjoint
    assert [bs.ident for bs in circuit.adjoint.stages] == [4, 3, 2, 1]


def test_shared_circuit_is_read_only():
    with pytest.raises(ValueError):
        NESTED_MZI.stages[0].transfer[0, 0] = 0.0
    own = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)
    bs = BeamSplitter(1, ("N", "N0"), ("D", "A"), own)
    own[0, 0] = 0.0  # the caller's array stays writable and is not the stage's
    assert bs.transfer[0, 0] == 1.0 / math.sqrt(2.0)


def test_oracle_is_independent_of_the_library():
    # every weak-value column reads the library's path enumeration, so the
    # dense oracle is the only independent route; it must not import weaktrace
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "numpy" in imported
    assert [m for m in imported if m.split(".")[0] == "weaktrace"] == []

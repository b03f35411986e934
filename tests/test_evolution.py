"""Joint photon-meter pipeline checks against the grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weaktrace import (
    DETECTORS,
    Circuit,
    MeterConfig,
    PathSum,
    PhotonState,
    PipelineError,
    arm_occupation,
    build_nested_mzi,
    wave_norm2,
    wave_pointer_mean,
)

import oracles

CFG = MeterConfig(1.0)
SQ2 = math.sqrt(2.0)


def total_norm2(paths, g_row, config=CFG):
    """Squared norm of the joint state at one coupling vector: every arm's probability summed."""
    stats = paths.statistics([g_row], None, config)
    return sum(float(prob[0]) for prob, _ in stats.values())


def conditional_mean(paths, g_row, detector, config=CFG):
    """<Q> given the detector fired: moment over probability."""
    prob, moment = paths.statistics([g_row], (detector,), config)[detector]
    return float(moment[0]) / float(prob[0])


def inner_arms(kicks, g_row):
    """Merged terms per arm after BS2 (arms A, B, C) at one coupling vector."""
    paths = PathSum.compile(build_nested_mzi(), PhotonState.source(), kicks, upto=2)
    return paths.merged([g_row])


def test_zero_coupling_is_identity():
    inner = PathSum.compile(build_nested_mzi(), PhotonState.source(), (), 2).ket()
    terms = inner_arms(["B"], [0.0])
    assert set(terms) == set(inner.amplitudes)
    for arm, (coeffs, shifts) in terms.items():
        (coefficient,) = coeffs
        assert shifts.tolist() == [[0.0]]
        assert coefficient == inner.amplitude(arm)


def test_coupling_splits_off_shifted_branch():
    terms = inner_arms(["B"], [0.4])
    (b_coefficient,), b_shifts = terms["B"]
    assert b_shifts.tolist() == [[0.4]]
    assert abs(b_coefficient - (-0.5j)) < 1e-12
    for arm in ("A", "C"):
        (_,), shifts = terms[arm]
        assert shifts.tolist() == [[0.0]]


def test_successive_couplings_compose():
    # two kicks on one arm add up to a single kick
    twice = inner_arms(["B", "B"], [0.1, 0.25])
    once = inner_arms(["B"], [0.35])
    assert twice["B"][1][0, 0] == pytest.approx(0.35, abs=1e-15)
    assert once["B"][1][0, 0] == pytest.approx(0.35, abs=1e-15)
    for arm in ("A", "C"):
        assert twice[arm][0] == once[arm][0]
        assert twice[arm][1].tolist() == once[arm][1].tolist()


def test_attachment_on_dead_arm_rejected():
    # a kick acts where its arm becomes live; an arm the circuit lacks never does
    first_two = Circuit(build_nested_mzi().stages[:2])
    for arm in ("E", "D1"):
        with pytest.raises(ValueError, match=f"arm {arm} is not in the circuit"):
            PathSum.compile(first_two, PhotonState.source(), [arm])
    with pytest.raises(ValueError, match="unknown arm label"):
        PathSum.compile(first_two, PhotonState.source(), ["Q"])


def test_pipeline_layout_checks():
    circuit = build_nested_mzi()
    with pytest.raises(PipelineError):  # D1 already occupied when BS4 fires
        PathSum.compile(circuit, PhotonState({"N": 1 / SQ2, "D1": 1 / SQ2}))
    # no tolerance: any nonzero amplitude on an output port is rejected
    with pytest.raises(PipelineError, match="BS4: nonzero amplitude already present on output "
                                            "port D1"):
        PathSum.compile(circuit, PhotonState({"N": 1, "D1": 1e-7}))
    # the preparation is checked against the whole circuit, not the cut
    with pytest.raises(PipelineError, match="BS4"):
        PathSum.compile(circuit, PhotonState({"N": 1, "D1": 1e-7}), upto=3)
    with pytest.raises(ValueError):
        PathSum.compile(circuit, PhotonState.source(), upto=5)


def test_routes_of_the_nested_interferometer():
    paths = PathSum.compile(build_nested_mzi(), PhotonState.source())
    assert sorted(paths.routes) == sorted([
        ("N", "A", "D1"), ("N", "A", "D2"),
        ("N", "D", "B", "D3"), ("N", "D", "B", "E", "D1"), ("N", "D", "B", "E", "D2"),
        ("N", "D", "C", "D3"), ("N", "D", "C", "E", "D1"), ("N", "D", "C", "E", "D2"),
    ])
    assert paths.arms == tuple(route[-1] for route in paths.routes)
    for route, amplitude in zip(paths.routes, paths.amplitudes):
        # each step enters an arm at the stage that produces it
        expected = 1.0
        for before, after in zip(route, route[1:]):
            u = oracles.STAGE_MATRICES[oracles.ARM_STAGE[after] - 1]
            expected *= u[oracles.IDX[after], oracles.IDX[before]]
        assert abs(amplitude - expected) < 1e-15, route


def test_pipeline_without_attachments_matches_pure_evolution():
    circuit = build_nested_mzi()
    paths = PathSum.compile(circuit, PhotonState.source(), [])
    final = PathSum.compile(circuit, PhotonState.source(), (), 4).ket()
    for arm, (coeffs, _) in paths.merged([[]]).items():
        assert len(coeffs) == 1
        assert abs(coeffs[0] - final.amplitude(arm)) < 1e-12
    assert abs(wave_norm2(paths.postselect([], "D2", CFG)) - 0.25) < 1e-12


def test_pipeline_g0_matches_no_attachment():
    circuit = build_nested_mzi()
    with_meter = PathSum.compile(circuit, PhotonState.source(), ["B"]).merged([[0.0]])
    bare = PathSum.compile(circuit, PhotonState.source(), []).merged([[]])
    for arm in bare:
        (cw,), shifts = with_meter[arm]
        (cb,), _ = bare[arm]
        assert abs(cw - cb) < 1e-12
        assert shifts.tolist() == [[0.0]]


def test_two_term_decomposition():
    # final = undisturbed x G_0  +  (U4 U3 Pi_B U2 U1|N>) x (G_g - G_0)
    circuit = build_nested_mzi()
    g = 0.6
    terms = PathSum.compile(circuit, PhotonState.source(), ["B"]).merged([[g]])
    undisturbed = PathSum.compile(circuit, PhotonState.source(), (), 4).ket()
    inner = PathSum.compile(circuit, PhotonState.source(), (), 2).ket()
    projected = PhotonState({"B": inner.amplitude("B")})
    projected = PathSum.compile(Circuit(circuit.stages[2:]), projected).ket()
    for arm, (coeffs, shifts) in terms.items():
        shifted = sum(c for c, s in zip(coeffs, shifts[:, 0]) if abs(s - g) < 1e-12)
        rest = sum(c for c, s in zip(coeffs, shifts[:, 0]) if abs(s) < 1e-12)
        assert abs(shifted - projected.amplitude(arm)) < 1e-12
        assert abs(rest - (undisturbed.amplitude(arm) - projected.amplitude(arm))) < 1e-12


def test_postselect_undisturbed_meter():
    circuit = build_nested_mzi()
    wave = PathSum.compile(circuit, PhotonState.source(), ["B"]).postselect([0.0], "D2", CFG)
    assert abs(wave_norm2(wave) - 0.25) < 1e-12
    assert wave.shifts.tolist() == [0.0]
    assert abs(abs(wave.coefficients[0]) - 0.5) < 1e-12


def test_postselect_b_meter_branch_coefficients():
    circuit = build_nested_mzi()
    g = 0.8
    paths = PathSum.compile(circuit, PhotonState.source(), ["B"])
    wave = paths.postselect([g], "D2", CFG)
    by_shift = {round(s, 9): c for s, c in zip(wave.shifts.tolist(), wave.coefficients)}
    assert abs(by_shift[0.0] - (-0.25)) < 1e-12
    assert abs(by_shift[round(g, 9)] - (-0.25)) < 1e-12

    wave3 = paths.postselect([g], "D3", CFG)
    mags = sorted(np.abs(wave3.coefficients))
    assert abs(mags[0] - mags[1]) < 1e-12
    assert abs(mags[0] - 1 / (2 * SQ2)) < 1e-12


def test_postselect_invalid_detector():
    paths = PathSum.compile(build_nested_mzi(), PhotonState.source(), [])
    with pytest.raises(ValueError):
        paths.postselect([], "E", CFG)


def test_joint_norm_unity_random_attachments():
    rng = np.random.default_rng(21)
    circuit = build_nested_mzi()
    arms = ("A", "D", "B", "C", "E")
    for _ in range(100):
        n_kicks = int(rng.integers(1, 4))
        kicks = [arms[rng.integers(len(arms))] for _ in range(n_kicks)]
        g_row = [float(rng.uniform(-1.5, 1.5)) for _ in range(n_kicks)]
        config = MeterConfig(float(rng.uniform(0.25, 4.0)))
        paths = PathSum.compile(circuit, PhotonState.source(), kicks)
        assert abs(total_norm2(paths, g_row, config) - 1.0) < 1e-12


def test_postselection_completeness_random():
    rng = np.random.default_rng(22)
    circuit = build_nested_mzi()
    arms = ("A", "D", "B", "C", "E")
    for _ in range(100):
        arm = arms[rng.integers(len(arms))]
        g = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(0.25, 4.0))
        paths = PathSum.compile(circuit, PhotonState.source(), [arm])
        config = MeterConfig(delta)
        total = sum(wave_norm2(paths.postselect([g], d, config)) for d in ("D1", "D2", "D3"))
        assert abs(total - 1.0) < 1e-12


def test_dark_port_occupation_without_meters():
    occ = arm_occupation(build_nested_mzi(), PhotonState.source(), [], [], CFG, "E", 3)
    assert occ < 1e-12


def test_e_occupation_with_b_meter_closed_form_and_oracle():
    circuit = build_nested_mzi()
    for g, delta in [(0.1, 1.0), (0.5, 1.0), (1.0, 0.5), (0.3, 2.0)]:
        occ = arm_occupation(circuit, PhotonState.source(), ["B"], [g], MeterConfig(delta), "E", 3)
        closed = 0.25 * (1.0 - math.exp(-g * g / (4.0 * delta)))
        assert abs(occ - closed) < 1e-12
        sim = oracles.JointGridSim(delta).run([("B", g, 2)], upto=3)
        assert abs(occ - sim.prob("E")) < 1e-9


def test_e_occupation_small_g_law():
    g, delta = 1e-4, 1.3
    occ = arm_occupation(build_nested_mzi(), PhotonState.source(), ["B"], [g], MeterConfig(delta),
                         "E", 3)
    assert occ / g**2 == pytest.approx(1.0 / (16.0 * delta), rel=1e-6)


def test_unconditional_pointer_mean_exact_in_g():
    circuit = build_nested_mzi()
    for g in (1e-3, 0.1, 1.0, 2.0):
        paths = PathSum.compile(circuit, PhotonState.source(), ["B"])
        # every photon outcome kept: the moments of all arms over the total norm
        stats = paths.statistics([[g]], None, CFG).values()
        mean = sum(float(m[0]) for _, m in stats) / total_norm2(paths, [g])
        assert abs(mean - g / 4.0) < 1e-12


def test_conditional_means_match_grid_oracle():
    circuit = build_nested_mzi()
    for arm, g, delta in [("B", 0.7, 1.0), ("C", 0.4, 0.5), ("A", 1.1, 2.0)]:
        config = MeterConfig(delta)
        paths = PathSum.compile(circuit, PhotonState.source(), [arm])
        sim = oracles.JointGridSim(delta).run([(arm, g, oracles.ARM_STAGE[arm])])
        for det in ("D1", "D2", "D3"):
            wave = paths.postselect([g], det, config)
            assert abs(wave_norm2(wave) - sim.prob(det)) < 1e-9
            mean = conditional_mean(paths, [g], det, config)
            assert abs(mean - sim.conditional_mean(det)) < 1e-9
            # the postselected wave carries the same conditional state
            assert abs(wave_pointer_mean(wave) - sim.conditional_mean(det)) < 1e-9


def test_shared_meter_shifts_add_along_paths():
    # one pointer kicked in A and in B: path shifts accumulate
    circuit = build_nested_mzi()
    paths = PathSum.compile(circuit, PhotonState.source(), ["A", "B"])
    sim = oracles.JointGridSim(1.0).run([("A", 0.2, 1), ("B", 0.5, 2)])
    for det in ("D1", "D2", "D3"):
        wave = paths.postselect([0.2, 0.5], det, CFG)
        assert abs(wave_norm2(wave) - sim.prob(det)) < 1e-9
        assert abs(conditional_mean(paths, [0.2, 0.5], det) - sim.conditional_mean(det)) < 1e-9


def test_arm_occupation_validation():
    circuit = build_nested_mzi()
    with pytest.raises(ValueError):
        arm_occupation(circuit, PhotonState.source(), [], [], CFG, "E", 1)  # E not live yet
    with pytest.raises(ValueError):
        arm_occupation(circuit, PhotonState.source(), [], [], CFG, "B", 5)


def test_non_finite_couplings_rejected():
    # couplings enter only at evaluation, and every entry point checks them
    circuit = build_nested_mzi()
    paths = PathSum.compile(circuit, PhotonState.source(), ["B"])
    for g in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="couplings must be finite"):
            paths.postselect([g], "D2", CFG)
        with pytest.raises(ValueError, match="couplings must be finite"):
            paths.statistics([[g]], DETECTORS, CFG)
        with pytest.raises(ValueError, match="couplings must be finite"):
            arm_occupation(circuit, PhotonState.source(), ["B"], [g], CFG, "E", 3)
    with pytest.raises(ValueError):
        paths.statistics([[0.1], [float("nan")]], DETECTORS, CFG)
    with pytest.raises(ValueError):
        paths.statistics([[0.1, 0.2]], DETECTORS, CFG)  # one column per kick


LIVE = [(arm, k) for arm, stages in build_nested_mzi().live.items() for k in stages]
COUPLING = st.floats(-3.0, 3.0)
WIDTH = st.floats(0.05, 5.0)


@st.composite
def layouts(draw):
    """One to three kicks on arms of the circuit; an arm may be kicked more than once."""
    return [draw(st.sampled_from(tuple(build_nested_mzi().live)))
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), delta=WIDTH, mix=st.floats(0.0, math.pi / 2),
       phase=st.floats(0.0, 2 * math.pi), data=st.data())
def test_path_sum_batch_properties(layout, delta, mix, phase, data):
    state = PhotonState({"N": math.cos(mix), "N0": math.sin(mix) * complex(math.cos(phase),
                                                                           math.sin(phase))})
    paths = PathSum.compile(build_nested_mzi(), state, layout)
    config = MeterConfig(delta)
    row = st.lists(COUPLING, min_size=len(layout), max_size=len(layout))
    couplings = np.array(data.draw(st.lists(row, min_size=1, max_size=5)))
    stats = paths.statistics(couplings, DETECTORS, config)
    total = sum(stats[d][0] for d in DETECTORS)
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
    for b in range(len(couplings)):
        single = paths.statistics(couplings[b:b + 1], DETECTORS, config)
        for d in DETECTORS:
            np.testing.assert_allclose(stats[d][0][b], single[d][0][0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(stats[d][1][b], single[d][1][0], rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(g=st.floats(1e-12, 1e3), delta=st.floats(1e-6, 1e4))
def test_e_occupation_closed_form_relative(g, delta):
    # the dark-port leakage keeps full relative precision down to g = 1e-12
    occ = arm_occupation(build_nested_mzi(), PhotonState.source(), ["B"], [g], MeterConfig(delta),
                         "E", 3)
    closed = -0.25 * math.expm1(-g * g / (4.0 * delta))
    assert abs(occ - closed) <= 1e-12 * closed


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), delta=WIDTH, mix=st.floats(0.0, math.pi / 2),
       phase=st.floats(0.0, 2 * math.pi), data=st.data())
def test_occupation_sum_rules(layout, delta, mix, phase, data):
    # A + D = 1 after BS1, A + B + C = 1 after BS2, and so on, meters marginalized
    state = PhotonState({"N": math.cos(mix), "N0": math.sin(mix) * complex(math.cos(phase),
                                                                           math.sin(phase))})
    g_row = [data.draw(COUPLING) for _ in layout]
    circuit = build_nested_mzi()
    for k in range(len(circuit) + 1):
        live = [arm for arm, stage in LIVE if stage == k]
        total = sum(arm_occupation(circuit, state, layout, g_row, MeterConfig(delta), arm, k)
                    for arm in live)
        assert abs(total - 1.0) < 1e-12

"""Joint photon-meter pipeline checks against the grid oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weaktrace import (
    ARMS,
    DETECTORS,
    EntangledMetersError,
    JointBranch,
    MeterAttachment,
    MeterConfig,
    PathSum,
    PhotonState,
    PipelineError,
    PostselectResult,
    apply_beamsplitter,
    arm_occupation,
    build_nested_mzi,
    evolve_to_stage,
    wave_norm2,
)
from weaktrace.paths import ARM_FIRST_STAGE, ARM_LAST_STAGE

import oracles

CFG = MeterConfig(1.0)
SQ2 = math.sqrt(2.0)


def b_meter(g, delta=1.0, meter_id="probe", insert_after=None):
    return MeterAttachment(meter_id, "B", g, MeterConfig(delta), insert_after)


def couplings(attachments):
    """The batch of one coupling vector that holds each attachment's own g."""
    return [[att.g for att in attachments]]


def total_norm2(paths, attachments):
    """Squared norm of the joint state: the probabilities of every arm summed."""
    stats = paths.statistics(couplings(attachments), None)
    return sum(float(prob[0]) for prob, _ in stats.values())


def inner_arms(attachments):
    """Merged terms per arm after BS2 (arms A, B, C) with the given couplings."""
    paths = PathSum.compile(build_nested_mzi(), PhotonState.source(), attachments, upto=2)
    return paths.merged(couplings(attachments))


def test_zero_coupling_is_identity():
    inner = evolve_to_stage(build_nested_mzi(), PhotonState.source(), 2)
    terms = inner_arms([b_meter(0.0, meter_id="m", insert_after=2)])
    assert set(terms) == set(inner.amplitudes)
    for arm, (coeffs, shifts) in terms.items():
        (coefficient,) = coeffs
        assert shifts.tolist() == [[[0.0]]]
        assert coefficient == inner.amplitude(arm)


def test_coupling_splits_off_shifted_branch():
    terms = inner_arms([b_meter(0.4, meter_id="m", insert_after=2)])
    (b_coefficient,), b_shifts = terms["B"]
    assert b_shifts.tolist() == [[[0.4]]]
    assert abs(b_coefficient - (-0.5j)) < 1e-12
    for arm in ("A", "C"):
        (_,), shifts = terms[arm]
        assert shifts.tolist() == [[[0.0]]]


def test_successive_couplings_compose():
    # two attachments on one meter and one arm add up to a single kick
    twice = inner_arms([b_meter(0.1, meter_id="m", insert_after=2),
                        b_meter(0.25, meter_id="m", insert_after=2)])
    once = inner_arms([b_meter(0.35, meter_id="m", insert_after=2)])
    assert twice["B"][1][0, 0, 0] == pytest.approx(0.35, abs=1e-15)
    assert once["B"][1][0, 0, 0] == pytest.approx(0.35, abs=1e-15)
    for arm in ("A", "C"):
        assert twice[arm][0] == once[arm][0]
        assert twice[arm][1].tolist() == once[arm][1].tolist()


def test_attachment_on_dead_arm_rejected():
    with pytest.raises(ValueError):
        inner_arms([b_meter(0.1, meter_id="m", insert_after=0)])  # B not live at stage 0
    with pytest.raises(ValueError):
        MeterAttachment("m", "B", 0.1, CFG, insert_after=4).validate()


def test_pipeline_layout_checks():
    circuit = build_nested_mzi()
    with pytest.raises(PipelineError):  # D1 already occupied when BS4 fires
        PathSum.compile(circuit, PhotonState({"N": 1 / SQ2, "D1": 1 / SQ2}))
    two_widths = [b_meter(0.1, 1.0, "m"), MeterAttachment("m", "A", 0.1, MeterConfig(2.0))]
    with pytest.raises(ValueError):
        PathSum.compile(circuit, PhotonState.source(), two_widths)
    with pytest.raises(ValueError):
        PathSum.compile(circuit, PhotonState.source(), upto=5)


def test_pipeline_without_attachments_matches_pure_evolution():
    circuit = build_nested_mzi()
    paths = PathSum.compile(circuit, PhotonState.source(), [])
    final = evolve_to_stage(circuit, PhotonState.source(), 4)
    for arm, (coeffs, _) in paths.merged([[]]).items():
        assert len(coeffs) == 1
        assert abs(coeffs[0] - final.amplitude(arm)) < 1e-12
    assert abs(paths.postselect([], "D2").probability - 0.25) < 1e-12


def test_pipeline_g0_matches_no_attachment():
    circuit = build_nested_mzi()
    with_meter = PathSum.compile(circuit, PhotonState.source(), [b_meter(0.0)]).merged([[0.0]])
    bare = PathSum.compile(circuit, PhotonState.source(), []).merged([[]])
    for arm in bare:
        (cw,), shifts = with_meter[arm]
        (cb,), _ = bare[arm]
        assert abs(cw - cb) < 1e-12
        assert shifts.tolist() == [[[0.0]]]


def test_two_term_decomposition():
    # final = undisturbed x G_0  +  (U4 U3 Pi_B U2 U1|N>) x (G_g - G_0)
    circuit = build_nested_mzi()
    g = 0.6
    terms = PathSum.compile(circuit, PhotonState.source(), [b_meter(g)]).merged([[g]])
    undisturbed = evolve_to_stage(circuit, PhotonState.source(), 4)
    inner = evolve_to_stage(circuit, PhotonState.source(), 2)
    projected = PhotonState({"B": inner.amplitude("B")})
    for bs in circuit.stages[2:]:
        projected = apply_beamsplitter(projected, bs)
    for arm, (coeffs, shifts) in terms.items():
        shifted = sum(c for c, s in zip(coeffs, shifts[:, 0, 0]) if abs(s - g) < 1e-12)
        rest = sum(c for c, s in zip(coeffs, shifts[:, 0, 0]) if abs(s) < 1e-12)
        assert abs(shifted - projected.amplitude(arm)) < 1e-12
        assert abs(rest - (undisturbed.amplitude(arm) - projected.amplitude(arm))) < 1e-12


def test_postselect_undisturbed_meter():
    circuit = build_nested_mzi()
    sel = PathSum.compile(circuit, PhotonState.source(), [b_meter(0.0)]).postselect([0.0], "D2")
    assert abs(sel.probability - 0.25) < 1e-12
    (wave,) = sel.meter_waves
    assert len(wave.branches) == 1
    assert wave.branches[0].shift == 0.0
    assert abs(abs(wave.branches[0].coefficient) - 0.5) < 1e-12


def test_postselect_b_meter_branch_coefficients():
    circuit = build_nested_mzi()
    g = 0.8
    paths = PathSum.compile(circuit, PhotonState.source(), [b_meter(g)])
    sel = paths.postselect([g], "D2")
    (wave,) = sel.meter_waves
    by_shift = {round(b.shift, 9): b.coefficient for b in wave.branches}
    assert abs(by_shift[0.0] - (-0.25)) < 1e-12
    assert abs(by_shift[round(g, 9)] - (-0.25)) < 1e-12

    d3 = paths.postselect([g], "D3")
    (wave3,) = d3.meter_waves
    mags = sorted(abs(b.coefficient) for b in wave3.branches)
    assert abs(mags[0] - mags[1]) < 1e-12
    assert abs(mags[0] - 1 / (2 * SQ2)) < 1e-12


def test_postselect_invalid_detector():
    paths = PathSum.compile(build_nested_mzi(), PhotonState.source(), [])
    with pytest.raises(ValueError):
        paths.postselect([], "E")


def test_joint_norm_unity_random_attachments():
    rng = np.random.default_rng(21)
    circuit = build_nested_mzi()
    arms = ("A", "D", "B", "C", "E")
    for _ in range(100):
        n_meters = int(rng.integers(1, 4))
        attachments = []
        for i in range(n_meters):
            arm = arms[rng.integers(len(arms))]
            shared = i > 0 and rng.random() < 0.3
            meter_id = attachments[0].meter_id if shared else f"m{i}"
            delta = attachments[0].config.delta if shared else float(rng.uniform(0.25, 4.0))
            attachments.append(
                MeterAttachment(meter_id, arm, float(rng.uniform(-1.5, 1.5)), MeterConfig(delta))
            )
        paths = PathSum.compile(circuit, PhotonState.source(), attachments)
        assert abs(total_norm2(paths, attachments) - 1.0) < 1e-12


def test_postselection_completeness_random():
    rng = np.random.default_rng(22)
    circuit = build_nested_mzi()
    arms = ("A", "D", "B", "C", "E")
    for _ in range(100):
        arm = arms[rng.integers(len(arms))]
        g = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(0.25, 4.0))
        paths = PathSum.compile(
            circuit, PhotonState.source(), [MeterAttachment("m", arm, g, MeterConfig(delta))]
        )
        total = sum(paths.postselect([g], d).probability for d in ("D1", "D2", "D3"))
        assert abs(total - 1.0) < 1e-12


def test_dark_port_occupation_without_meters():
    occ = arm_occupation(build_nested_mzi(), PhotonState.source(), [], "E", 3)
    assert occ < 1e-12


def test_e_occupation_with_b_meter_closed_form_and_oracle():
    circuit = build_nested_mzi()
    for g, delta in [(0.1, 1.0), (0.5, 1.0), (1.0, 0.5), (0.3, 2.0)]:
        occ = arm_occupation(circuit, PhotonState.source(), [b_meter(g, delta)], "E", 3)
        closed = 0.25 * (1.0 - math.exp(-g * g / (4.0 * delta)))
        assert abs(occ - closed) < 1e-12
        sim = oracles.JointGridSim(delta).run([("B", g, 2)], upto=3)
        assert abs(occ - sim.prob("E")) < 1e-9


def test_e_occupation_small_g_law():
    g, delta = 1e-4, 1.3
    occ = arm_occupation(build_nested_mzi(), PhotonState.source(), [b_meter(g, delta)], "E", 3)
    assert occ / g**2 == pytest.approx(1.0 / (16.0 * delta), rel=1e-6)


def test_unconditional_pointer_mean_exact_in_g():
    circuit = build_nested_mzi()
    for g in (1e-3, 0.1, 1.0, 2.0):
        attachments = [b_meter(g)]
        paths = PathSum.compile(circuit, PhotonState.source(), attachments)
        # every photon outcome kept: the moments of all arms over the total norm
        stats = paths.statistics(couplings(attachments), None).values()
        mean = sum(float(m[0, 0]) for _, m in stats) / total_norm2(paths, attachments)
        assert abs(mean - g / 4.0) < 1e-12


def test_conditional_means_match_grid_oracle():
    circuit = build_nested_mzi()
    for arm, g, delta in [("B", 0.7, 1.0), ("C", 0.4, 0.5), ("A", 1.1, 2.0)]:
        att = MeterAttachment("m", arm, g, MeterConfig(delta))
        paths = PathSum.compile(circuit, PhotonState.source(), [att])
        sim = oracles.JointGridSim(delta).run([(arm, g, att.insertion_stage)])
        for det in ("D1", "D2", "D3"):
            sel = paths.postselect([g], det)
            assert abs(sel.probability - sim.prob(det)) < 1e-9
            assert abs(sel.pointer_mean("m") - sim.conditional_mean(det)) < 1e-9


def test_two_private_meters_against_grid_oracle():
    circuit = build_nested_mzi()
    g1, g2, delta = 0.5, 0.3, 1.0
    attachments = [
        MeterAttachment("mb", "B", g1, MeterConfig(delta)),
        MeterAttachment("mc", "C", g2, MeterConfig(delta)),
    ]
    paths = PathSum.compile(circuit, PhotonState.source(), attachments)
    assert abs(total_norm2(paths, attachments) - 1.0) < 1e-12
    sim = oracles.JointGridSim(delta, axes=2, span=14.0).run(
        [("B", g1, 2, 0), ("C", g2, 2, 1)]
    )
    sel = paths.postselect([g1, g2], "D3")
    assert abs(sel.probability - sim.prob("D3")) < 1e-8
    assert abs(sel.pointer_mean("mb") - sim.conditional_mean("D3", axis=0)) < 1e-8
    assert abs(sel.pointer_mean("mc") - sim.conditional_mean("D3", axis=1)) < 1e-8
    with pytest.raises(EntangledMetersError):
        _ = sel.meter_waves  # D3 conditional state is meter-entangled


def test_two_meters_factorizable_waves():
    circuit = build_nested_mzi()
    attachments = [
        MeterAttachment("ma", "A", 0.6, MeterConfig(1.0)),
        MeterAttachment("me", "E", 0.9, MeterConfig(1.0)),
    ]
    sel = PathSum.compile(circuit, PhotonState.source(), attachments).postselect([0.6, 0.9], "D2")
    wa, we = sel.meter_waves
    assert len(wa.branches) == 1 and abs(wa.branches[0].shift - 0.6) < 1e-12
    assert len(we.branches) == 1 and abs(we.branches[0].shift) < 1e-12
    for w in (wa, we):
        assert abs(wave_norm2(w) - sel.probability) < 1e-12


def test_shared_meter_shifts_add_along_paths():
    # one pointer kicked in A and then (same id) in B: path shifts accumulate
    circuit = build_nested_mzi()
    attachments = [
        MeterAttachment("y", "A", 0.2, MeterConfig(1.0)),
        MeterAttachment("y", "B", 0.5, MeterConfig(1.0)),
    ]
    paths = PathSum.compile(circuit, PhotonState.source(), attachments)
    sim = oracles.JointGridSim(1.0).run([("A", 0.2, 1), ("B", 0.5, 2)])
    for det in ("D1", "D2", "D3"):
        sel = paths.postselect([0.2, 0.5], det)
        assert abs(sel.probability - sim.prob(det)) < 1e-9
        assert abs(sel.pointer_mean("y") - sim.conditional_mean(det)) < 1e-9


def test_arm_occupation_validation():
    circuit = build_nested_mzi()
    with pytest.raises(ValueError):
        arm_occupation(circuit, PhotonState.source(), [], "E", 1)  # E not live yet
    with pytest.raises(ValueError):
        arm_occupation(circuit, PhotonState.source(), [], "B", 5)


def test_non_finite_couplings_rejected():
    for g in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            b_meter(g)
    # batched couplings never build an attachment per row: checked at entry
    paths = PathSum.compile(build_nested_mzi(), PhotonState.source(), [b_meter(0.1)])
    with pytest.raises(ValueError):
        paths.statistics([[0.1], [float("nan")]], DETECTORS)
    with pytest.raises(ValueError):
        paths.statistics([[0.1, 0.2]], DETECTORS)  # one column per attachment


LIVE = [(arm, k) for arm in ARMS for k in range(ARM_FIRST_STAGE[arm], ARM_LAST_STAGE[arm] + 1)]
COUPLING = st.floats(-3.0, 3.0)


@st.composite
def layouts(draw):
    """One to three attachments on live arms; meters shared or separate."""
    widths = {}
    layout = []
    for i in range(draw(st.integers(1, 3))):
        arm, stage = draw(st.sampled_from(LIVE))
        meter = draw(st.sampled_from([f"m{j}" for j in range(i + 1)]))
        delta = widths.setdefault(meter, draw(st.floats(0.05, 5.0)))
        layout.append(MeterAttachment(meter, arm, 0.0, MeterConfig(delta), insert_after=stage))
    return layout


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), mix=st.floats(0.0, math.pi / 2), phase=st.floats(0.0, 2 * math.pi),
       data=st.data())
def test_path_sum_batch_properties(layout, mix, phase, data):
    state = PhotonState({"N": math.cos(mix), "N0": math.sin(mix) * complex(math.cos(phase),
                                                                           math.sin(phase))})
    paths = PathSum.compile(build_nested_mzi(), state, layout)
    row = st.lists(COUPLING, min_size=len(layout), max_size=len(layout))
    couplings = np.array(data.draw(st.lists(row, min_size=1, max_size=5)))
    stats = paths.statistics(couplings, DETECTORS)
    total = sum(stats[d][0] for d in DETECTORS)
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
    for b in range(len(couplings)):
        single = paths.statistics(couplings[b:b + 1], DETECTORS)
        for d in DETECTORS:
            np.testing.assert_allclose(stats[d][0][b], single[d][0][0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(stats[d][1][b], single[d][1][0], rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(g=st.floats(1e-12, 1e3), delta=st.floats(1e-6, 1e4))
def test_e_occupation_closed_form_relative(g, delta):
    # the dark-port leakage keeps full relative precision down to g = 1e-12
    occ = arm_occupation(build_nested_mzi(), PhotonState.source(), [b_meter(g, delta)], "E", 3)
    closed = -0.25 * math.expm1(-g * g / (4.0 * delta))
    assert abs(occ - closed) <= 1e-12 * closed


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), mix=st.floats(0.0, math.pi / 2), phase=st.floats(0.0, 2 * math.pi),
       data=st.data())
def test_occupation_sum_rules(layout, mix, phase, data):
    # A + D = 1 after BS1, A + B + C = 1 after BS2, and so on, meters marginalized
    state = PhotonState({"N": math.cos(mix), "N0": math.sin(mix) * complex(math.cos(phase),
                                                                           math.sin(phase))})
    layout = [dataclasses.replace(att, g=data.draw(COUPLING)) for att in layout]
    circuit = build_nested_mzi()
    for k in range(len(circuit) + 1):
        live = [arm for arm, stage in LIVE if stage == k]
        total = sum(arm_occupation(circuit, state, layout, arm, k) for arm in live)
        assert abs(total - 1.0) < 1e-12


AMPLITUDE = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
    lambda c: abs(c) > 0.1
)
SHIFTS = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3, unique=True)


def two_meter_result(matrix, shifts_a, shifts_b, deltas):
    """Conditional state sum_ij matrix[i][j] |G_{a_i}> x |G_{b_j}> of meters a and b."""
    branches = tuple(
        JointBranch(matrix[i][j], (a, b))
        for i, a in enumerate(shifts_a) for j, b in enumerate(shifts_b) if matrix[i][j] != 0
    )
    # squared norm sum conj(M_ij) M_kl <G_ai|G_ak> <G_bj|G_bl>, by dense overlaps
    overlap_a, overlap_b = (
        np.exp(-np.subtract.outer(s, s) ** 2 / (4.0 * d))
        for s, d in ((np.array(shifts_a), deltas[0]), (np.array(shifts_b), deltas[1]))
    )
    prob = float(np.sum(np.conj(matrix) * (overlap_a @ matrix @ overlap_b)).real)
    return PostselectResult(prob, branches, ("a", "b"), tuple(MeterConfig(d) for d in deltas))


@settings(max_examples=100, deadline=None)
@given(shifts_a=SHIFTS, shifts_b=SHIFTS,
       deltas=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)), data=st.data())
def test_factorizer_rebuilds_product_states(shifts_a, shifts_b, deltas, data):
    u = data.draw(st.lists(AMPLITUDE, min_size=len(shifts_a), max_size=len(shifts_a)))
    v = data.draw(st.lists(AMPLITUDE, min_size=len(shifts_b), max_size=len(shifts_b)))
    matrix = np.outer(u, v)
    sel = two_meter_result(matrix, shifts_a, shifts_b, deltas)
    wa, wb = sel.meter_waves
    for w in (wa, wb):
        assert abs(wave_norm2(w) - sel.probability) <= 1e-12 * sel.probability
    # the factors rebuild every term up to one global factor sqrt(p) e^{i phi}
    ca = {b.shift: b.coefficient for b in wa.branches}
    cb = {b.shift: b.coefficient for b in wb.branches}
    rebuilt = np.array([[ca[a] * cb[b] for b in shifts_b] for a in shifts_a])
    i0, j0 = np.unravel_index(np.argmax(np.abs(matrix)), matrix.shape)
    scale = rebuilt[i0, j0] / matrix[i0, j0]
    assert abs(abs(scale) - math.sqrt(sel.probability)) <= 1e-12 * abs(scale)
    assert np.abs(rebuilt / scale - matrix).max() <= 1e-12 * np.abs(matrix).max()


@settings(max_examples=100, deadline=None)
@given(shifts_a=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=3, unique=True),
       shifts_b=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=3, unique=True),
       data=st.data())
def test_factorizer_rejects_rank_two(shifts_a, shifts_b, data):
    u1, v1, u2, v2 = (data.draw(st.lists(AMPLITUDE, min_size=len(s), max_size=len(s)))
                      for s in (shifts_a, shifts_b, shifts_a, shifts_b))
    matrix = np.outer(u1, v1) + np.outer(u2, v2)
    # a 2 x 2 minor well away from singular makes the rank exactly two
    assume(abs(np.linalg.det(matrix[:2, :2])) > 0.1 * np.abs(matrix).max() ** 2)
    sel = two_meter_result(matrix, shifts_a, shifts_b, (1.0, 1.0))
    with pytest.raises(EntangledMetersError):
        _ = sel.meter_waves

"""Path-space checks: circuit construction, checkpoints, unitarity."""

import numpy as np
import pytest

from weaktrace import (
    ARMS,
    BeamSplitter,
    Circuit,
    PathSum,
    PhotonState,
    PipelineError,
    build_nested_mzi,
)

import oracles

SQ2 = np.sqrt(2.0)

AFTER_BS2 = {"A": -1j / SQ2, "B": -0.5j, "C": 0.5}
AFTER_BS3 = {"A": -1j / SQ2, "D3": -1j / SQ2}
FINAL = {"D1": -0.5j, "D2": -0.5, "D3": -1j / SQ2}


def ket_at(circuit, state, k):
    """The photon state after the first ``k`` stages."""
    return PathSum.compile(circuit, state, (), k).ket()


def through(bs, state):
    """The photon state after the single stage ``bs``."""
    return ket_at(Circuit((bs,)), state, 1)


def assert_state(state, expected, atol=1e-12):
    for arm in ARMS:
        assert abs(state.amplitude(arm) - expected.get(arm, 0.0)) < atol, arm


def test_build_nested_mzi_layout():
    circuit = build_nested_mzi()
    assert [bs.ident for bs in circuit.stages] == [1, 2, 3, 4]
    bs3 = circuit.stages[2]
    assert bs3.inputs == ("B", "C")
    assert bs3.outputs == ("D3", "E")
    printed = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / SQ2
    np.testing.assert_allclose(bs3.transfer, printed, atol=1e-15)


def test_stage_unitarity():
    for bs in build_nested_mzi().stages:
        gram = bs.transfer.conj().T @ bs.transfer
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)


def test_checkpoint_after_bs2():
    state = ket_at(build_nested_mzi(), PhotonState.source(), 2)
    assert_state(state, AFTER_BS2)
    oracle = oracles.evolve_vector(2)
    for arm in ARMS:
        assert abs(state.amplitude(arm) - oracle[oracles.IDX[arm]]) < 1e-12


def test_checkpoint_after_bs3_dark_port():
    state = ket_at(build_nested_mzi(), PhotonState.source(), 3)
    assert_state(state, AFTER_BS3)
    assert abs(state.amplitude("E")) < 1e-12


def test_final_state_and_detection_probabilities():
    state = ket_at(build_nested_mzi(), PhotonState.source(), 4)
    assert_state(state, FINAL)
    probs = [abs(state.amplitude(d)) ** 2 for d in ("D1", "D2", "D3")]
    np.testing.assert_allclose(probs, [0.25, 0.25, 0.5], atol=1e-12)
    oracle = oracles.evolve_vector(4)
    for arm in ARMS:
        assert abs(state.amplitude(arm) - oracle[oracles.IDX[arm]]) < 1e-12


def test_vacuum_port_input_stays_normalized():
    circuit = build_nested_mzi()
    out = through(circuit.stages[0], PhotonState.basis("N0"))
    assert abs(out.norm2() - 1.0) < 1e-12


def test_evolve_to_stage_identity_and_range():
    circuit = build_nested_mzi()
    src = PhotonState.source()
    assert ket_at(circuit, src, 0).amplitudes == src.amplitudes
    with pytest.raises(ValueError):
        ket_at(circuit, src, 5)
    with pytest.raises(ValueError):
        ket_at(circuit, src, -1)


def test_occupied_output_port_rejected():
    circuit = build_nested_mzi()
    bad = PhotonState({"N": 1 / SQ2, "A": 1 / SQ2})
    with pytest.raises(PipelineError):
        through(circuit.stages[0], bad)


def test_projector_expectation_examples():
    circuit = build_nested_mzi()
    mid = ket_at(circuit, PhotonState.source(), 2)
    assert abs(abs(mid.amplitude("B")) ** 2 - 0.25) < 1e-12
    dark = ket_at(circuit, PhotonState.source(), 3)
    assert abs(dark.amplitude("E")) ** 2 < 1e-12
    assert abs(abs(PhotonState.source().amplitude("N")) ** 2 - 1.0) < 1e-12


def test_completeness_at_each_stage():
    circuit = build_nested_mzi()
    resolutions = {1: ("A", "D"), 2: ("A", "B", "C"), 3: ("A", "D3", "E"),
                   4: ("D1", "D2", "D3")}
    for stage, arms in resolutions.items():
        state = ket_at(circuit, PhotonState.source(), stage)
        total = sum(abs(state.amplitude(a)) ** 2 for a in arms)
        assert abs(total - 1.0) < 1e-12


def test_norm_preserved_for_random_inputs():
    rng = np.random.default_rng(7)
    circuit = build_nested_mzi()
    for _ in range(100):
        for bs in circuit.stages:
            raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            raw /= np.linalg.norm(raw)
            state = PhotonState({bs.inputs[0]: raw[0], bs.inputs[1]: raw[1]})
            out = through(bs, state)
            assert abs(out.norm2() - 1.0) < 1e-12


def test_beamsplitter_inverse_roundtrip():
    rng = np.random.default_rng(11)
    circuit = build_nested_mzi()
    for bs in circuit.stages:
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        raw /= np.linalg.norm(raw)
        state = PhotonState({bs.inputs[0]: raw[0], bs.inputs[1]: raw[1]})
        back = ket_at(Circuit((bs,)).adjoint, through(bs, state), 1)
        for arm in ARMS:
            assert abs(back.amplitude(arm) - state.amplitude(arm)) < 1e-12


def test_invalid_constructions_rejected():
    with pytest.raises(ValueError):
        PhotonState({"Q": 1.0})
    with pytest.raises(ValueError):
        BeamSplitter(9, ("N", "N0"), ("N", "A"), np.eye(2))  # overlapping ports
    with pytest.raises(ValueError):
        BeamSplitter(9, ("N", "N0"), ("D", "A"), np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        BeamSplitter(9, ("N", "N0"), ("D", "A"), np.full((2, 2), np.nan))  # NaN residual
    b = build_nested_mzi().stages
    with pytest.raises(ValueError):
        Circuit((b[0], b[0]))  # D and A produced twice
    cycle = BeamSplitter(9, ("D", "A"), ("N", "E"), np.eye(2))
    with pytest.raises(ValueError):
        Circuit((b[0], cycle))  # N consumed by BS1, then produced again

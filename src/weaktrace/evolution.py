"""Joint photon-pointer evolution through the interferometer, exact in g.

A coupling exp(-i g Pi_arm x P) kicks the pointer of the component on one
arm rigidly by g and leaves every other component alone. There is one
pointer: the probe of a single arm, or the transverse-deviation pointer
that every vibrating mirror kicks. Following one photon path through the
stages, its amplitude is the input amplitude times the beamsplitter
entries it picks up, and the pointer ends shifted by the sum of the kicks
the path crosses. The joint state is therefore a finite path sum: per
final arm, sum_p c_p |arm> x |G_{s_p}>. No weak-coupling expansion is made
anywhere; "weak" enters only when a caller chooses a small g.

``PathSum.compile`` builds that sum once per circuit, input state, kick
layout and stage count: the paths (at most 2^4 here), their routes (the
arms each passes) and amplitudes, and a path x kick incidence matrix: a
kick reaches every path through its arm. The couplings enter only at
evaluation, as a batch G of coupling vectors (one row per set of g
values, one column per kick), so a whole g-sweep or every quasi-static
sample of a vibrating-mirror trace is one evaluation. Path shifts are G
times the incidence rows, so kicks add up along each path; probabilities
and pointer moments come from the closed-form Gram sums of
``meter.gram_sums`` for the pointer's ``MeterConfig``, which is supplied
with the couplings. Paths that end in the same arm with exactly equal
shifts over the batch are merged by ``meter.merge_equal_shifts``, the rule
every ``MeterWave`` follows: amplitudes are summed and exact cancellations
drop out, so the undisturbed dark port stays exactly empty. No tolerance
decides a merge: shifts that differ in any bit stay separate terms,
however small g is against the pointer width.

The compiled ``PathSum`` is the only joint-state representation: its
merged terms per arm are the joint state, ``statistics`` reads
probabilities and pointer moments from them, and ``postselect`` keeps one
detector's terms at one coupling vector as the un-normalized conditional
``MeterWave``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .meter import MeterConfig, MeterWave, gram_sums, merge_equal_shifts
from .paths import Circuit, PhotonState, PipelineError


@dataclass(frozen=True)
class PathSum:
    """Photon paths through the first ``stage`` stages, compiled for one layout.

    Path p passes the arms ``routes[p]``, from its input arm to its final
    arm ``arms[p]``, with amplitude ``amplitudes[p]``: the input amplitude
    times the beamsplitter entries along the route. ``incidence[p, k]`` is
    1 iff the arm of kick k is in ``routes[p]``. Couplings are supplied per
    evaluation, so one compiled sum serves any batch of coupling vectors.
    ``circuit`` is the circuit it was compiled from.
    """

    routes: tuple[tuple[str, ...], ...]
    amplitudes: tuple[complex, ...]
    incidence: np.ndarray
    stage: int
    circuit: Circuit = field(repr=False, compare=False)

    @classmethod
    def compile(
        cls,
        circuit: Circuit,
        input_state: PhotonState,
        kicks: list[str] | tuple[str, ...] = (),
        upto: int | None = None,
    ) -> "PathSum":
        """Enumerate the paths of ``input_state`` through ``upto`` stages.

        ``kicks`` lists the arm of each coupling column; an arm may repeat,
        and one the circuit lacks raises ValueError. Nonzero input amplitude
        on an output port of any stage of the circuit raises PipelineError,
        wherever the sum is cut.
        """
        upto = len(circuit) if upto is None else upto
        if not 0 <= upto <= len(circuit):
            raise ValueError(f"stage index {upto} out of range 0..{len(circuit)}")
        for arm in kicks:
            circuit.live_stages(arm)

        # an arm is produced by at most one stage and never consumed before
        # it, so only the input can occupy a stage's output port
        for bs in circuit.stages:
            for out in bs.outputs:
                if input_state.amplitudes.get(out, 0) != 0:
                    raise PipelineError(
                        f"BS{bs.ident}: nonzero amplitude already present on output port {out}"
                    )
        # a path is (route, amplitude)
        paths = [((arm,), complex(c)) for arm, c in input_state.amplitudes.items() if c != 0]
        for bs in circuit.stages[:upto]:
            m = bs.amplitude_matrix.tolist()
            moved = []
            for route, c in paths:
                if route[-1] not in bs.inputs:
                    moved.append((route, c))
                    continue
                col = bs.inputs.index(route[-1])
                for row, out in enumerate(bs.outputs):
                    amp = c * m[row][col]
                    if amp != 0:
                        moved.append((route + (out,), amp))
            paths = moved
        incidence = np.array(
            [[float(arm in route) for arm in kicks] for route, _ in paths]
        ).reshape(len(paths), len(kicks))
        return cls(
            routes=tuple(route for route, _ in paths),
            amplitudes=tuple(c for _, c in paths),
            incidence=incidence,
            stage=upto,
            circuit=circuit,
        )

    @property
    def arms(self) -> tuple[str, ...]:
        """The final arm of each path."""
        return tuple(route[-1] for route in self.routes)

    def ket(self) -> PhotonState:
        """The photon state the paths reach, pointer left out.

        Per final arm, the amplitudes of its paths summed in path order;
        arms in order of their first path.
        """
        amps: dict[str, complex] = {}
        for arm, c in zip(self.arms, self.amplitudes):
            amps[arm] = amps[arm] + c if arm in amps else c
        return PhotonState(amps)

    def merged(self, couplings, arms=None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per final arm: merged amplitudes (K,) and pointer shifts (K, B).

        ``couplings`` is the batch G, shape (B, number of kicks); path p's
        shift is G times ``incidence[p]``. The paths of one arm are merged
        by ``merge_equal_shifts``: paths whose shifts are equal over the
        whole batch become one term. With ``arms`` given, exactly those arms
        are returned (no terms if unreached); otherwise every arm that keeps
        a term, in order of the arm's first path.
        """
        g = np.asarray(couplings, dtype=float)
        n_kicks = self.incidence.shape[1]
        if g.ndim != 2 or g.shape[1] != n_kicks:
            raise ValueError(f"couplings must have shape (batch, {n_kicks}), got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("couplings must be finite")
        shifts = self.incidence @ g.T  # (P, B)
        terms = {}
        for arm in dict.fromkeys(self.arms if arms is None else arms):
            paths = [p for p, a in enumerate(self.arms) if a == arm]
            term = merge_equal_shifts([self.amplitudes[p] for p in paths], shifts[paths])
            if arms is not None or term[0].size:
                terms[arm] = term
        return terms

    def statistics(
        self, couplings, arms, config: MeterConfig
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per requested arm: probability and un-normalized moment, each (B,).

        The moment is the probability times the conditional pointer mean
        <Q> given the photon is in that arm, for a pointer of ``config``.
        """
        return {
            arm: gram_sums(coeffs, shifts, config.delta)
            for arm, (coeffs, shifts) in self.merged(couplings, arms).items()
        }

    def postselect(self, couplings, detector: str, config: MeterConfig) -> MeterWave:
        """Project onto a detector arm at one coupling vector (one g per kick).

        Returns the detector's merged terms as the un-normalized conditional
        pointer wave; its ``wave_norm2`` is the detection probability. The
        detector must be live at the sum's stage.
        """
        self.circuit.require_detector(detector)
        if self.stage not in self.circuit.live[detector]:
            raise ValueError(f"detector {detector} is not live after stage {self.stage}")
        coeffs, shifts = self.merged([couplings], (detector,))[detector]
        return MeterWave(coeffs, shifts[:, 0], config)


def arm_occupation(
    circuit: Circuit,
    input_state: PhotonState,
    kicks: list[str] | tuple[str, ...],
    couplings,
    config: MeterConfig,
    arm: str,
    stage: int,
) -> float:
    """Probability of finding the photon in ``arm`` after ``stage`` stages.

    ``couplings`` holds one g per kick. The pointer is marginalized; exact
    at any coupling strength.
    """
    if stage not in circuit.live_stages(arm):
        raise ValueError(f"arm {arm} is not live at stage {stage}")
    paths = PathSum.compile(circuit, input_state, kicks, upto=stage)
    prob, _ = paths.statistics([couplings], (arm,), config)[arm]
    return float(prob[0])

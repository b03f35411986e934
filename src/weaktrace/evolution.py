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
arms each passes) and amplitudes, and the terms of the joint state. A kick
reaches every path through its arm, so paths of one final arm that cross
the same kicks (equal 0/1 rows over the kicks) carry equal shifts at every
coupling; ``compile`` merges them into one term, summing their amplitudes
in path order and dropping exact cancellations, so the undisturbed dark
port stays exactly empty. No tolerance decides a merge, and no coupling
does. Couplings enter only at evaluation, as a batch G of coupling
vectors (one row per set of g values, one column per kick), so a whole
g-sweep or every quasi-static sample of a vibrating-mirror trace is one
evaluation. Term shifts are the rows times G, so kicks add up along each
path; probabilities and pointer moments come from the closed-form Gram
sums of ``meter.gram_sums`` for the pointer's ``MeterConfig``, which is
supplied with the couplings.

The compiled ``PathSum`` is the only joint-state representation: its
terms per arm are the joint state, ``statistics`` reads
probabilities and pointer moments from them, and ``postselect`` keeps one
arm's terms at one coupling vector as the un-normalized conditional
``MeterWave``. Every evaluation passes through ``merged``, the one check
of the requested arms: each must be live at the sum's stage, so an arm
that does not exist there raises instead of reading as empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .meter import MeterConfig, MeterWave, gram_sums
from .paths import Circuit, PhotonState, PipelineError


@dataclass(frozen=True, eq=False)
class PathSum:
    """Photon paths through the first ``stage`` stages, compiled for one layout.

    Path p passes the arms ``routes[p]``, from its input arm to its final
    arm ``arms[p]``, with amplitude ``amplitudes[p]``: the input amplitude
    times the beamsplitter entries along the route. ``kicks`` lists the arm
    of each coupling column. ``terms[arm]`` holds coefficients (K,) and 0/1
    rows (K, kicks), row[k] = 1 iff a route crosses kick k's arm: per
    distinct row of the arm's paths, in order of its first path, their
    amplitudes summed in path order; exact-zero sums, and arms left empty,
    are dropped. ``circuit`` is the circuit the sum was compiled from.
    """

    routes: tuple[tuple[str, ...], ...]
    amplitudes: tuple[complex, ...]
    kicks: tuple[str, ...]
    terms: dict[str, tuple[np.ndarray, np.ndarray]]
    stage: int
    circuit: Circuit = field(repr=False)

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
        kicks = tuple(kicks)
        sums: dict[str, dict[tuple[float, ...], complex]] = {}
        for route, c in paths:
            by_row = sums.setdefault(route[-1], {})
            row = tuple(float(arm in route) for arm in kicks)
            by_row[row] = by_row.get(row, 0j) + c
        terms = {}
        for arm, by_row in sums.items():
            if kept := {row: c for row, c in by_row.items() if c != 0}:
                rows = np.array(list(kept), dtype=float).reshape(len(kept), len(kicks))
                terms[arm] = (np.array(list(kept.values()), dtype=complex), rows)
        routes = tuple(route for route, _ in paths)
        return cls(routes, tuple(c for _, c in paths), kicks, terms, upto, circuit)

    @property
    def arms(self) -> tuple[str, ...]:
        """The final arm of each path."""
        return tuple(route[-1] for route in self.routes)

    def ket(self) -> PhotonState:
        """The photon state the paths reach, pointer left out.

        The one compiled amplitude of each arm of a kick-free sum, arms in
        order of their first path; an arm whose paths cancel exactly is
        absent. A sum with kicks has no photon ket: ValueError.
        """
        if self.kicks:
            raise ValueError("only a kick-free sum has a ket: kicks entangle the pointer")
        return PhotonState({arm: complex(coeffs[0]) for arm, (coeffs, _) in self.terms.items()})

    def merged(self, couplings, arms=None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per final arm: the compiled coefficients (K,) and pointer shifts (K, B).

        ``couplings`` is the batch G, shape (B, number of kicks); a term's
        shifts are its row times G, so the terms and their count are the
        same for every batch. With ``arms`` given, exactly those arms are
        returned (no terms if unreached); otherwise every arm of ``terms``.
        Each given arm must be live at the sum's stage; ValueError otherwise.
        """
        for arm in arms or ():
            if self.stage not in self.circuit.live_stages(arm):
                raise ValueError(f"arm {arm} is not live at stage {self.stage}")
        g = np.asarray(couplings, dtype=float)
        n_kicks = len(self.kicks)
        if g.ndim != 2 or g.shape[1] != n_kicks:
            raise ValueError(f"couplings must have shape (batch, {n_kicks}), got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("couplings must be finite")
        empty = (np.zeros(0, dtype=complex), np.zeros((0, n_kicks)))
        chosen = self.terms if arms is None else {arm: self.terms.get(arm, empty) for arm in arms}
        return {arm: (coeffs, rows @ g.T) for arm, (coeffs, rows) in chosen.items()}

    def statistics(
        self, couplings, arms, config: MeterConfig
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per requested arm: probability and un-normalized moment, each (B,).

        The moment is the probability times the conditional pointer mean
        <Q> given the photon is in that arm, for a pointer of ``config``.
        ``arms`` is as for ``merged``: None for every arm with terms.
        """
        return {
            arm: gram_sums(coeffs, shifts, config.delta)
            for arm, (coeffs, shifts) in self.merged(couplings, arms).items()
        }

    def postselect(self, couplings, arm: str, config: MeterConfig) -> MeterWave:
        """Project onto an arm live at the sum's stage, at one coupling vector.

        Returns the arm's terms as the un-normalized conditional pointer
        wave; its ``wave_norm2`` is the arm's probability. At the full
        stage the live arms are exactly the circuit's detectors.
        """
        coeffs, shifts = self.merged([couplings], (arm,))[arm]
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
    at any coupling strength. The arm must be live at ``stage``.
    """
    paths = PathSum.compile(circuit, input_state, kicks, upto=stage)
    prob, _ = paths.statistics([couplings], (arm,), config)[arm]
    return float(prob[0])

"""Joint photon-meter evolution through the interferometer, exact in g.

A coupling exp(-i g Pi_arm x P_M) shifts the meter attached to one arm's
component rigidly by g and leaves every other component alone. Following
one photon path through the stages, its amplitude is the input amplitude
times the beamsplitter entries it picks up, and each meter ends shifted
by the sum of the couplings the path crosses. The joint state is
therefore a finite path sum: per final arm, sum_p c_p |arm> x |G_{s_p}>.
No weak-coupling expansion is made anywhere; "weak" enters only when a
caller chooses a small g.

``PathSum.compile`` builds that sum once per circuit, input state,
attachment layout and stage count: the paths (at most 2^4 here), their
routes (the arms each passes) and amplitudes, and a path x attachment
incidence matrix: an attachment kicks every path through its arm. The
couplings enter only at evaluation, as a batch G of coupling vectors (one
row per set of g values, one column per attachment), so a whole g-sweep or
every quasi-static sample of a vibrating-mirror trace is one evaluation.
Path shifts are G times the incidence rows; probabilities and pointer
moments come from the closed-form Gram sums of ``meter.gram_sums``. Paths
that end in the same arm with exactly equal shifts over the batch are
merged by ``meter.merge_equal_shifts``, the rule every ``MeterWave``
follows: amplitudes are summed and exact cancellations drop out, so the
undisturbed dark port stays exactly empty. No tolerance decides a merge:
shifts that differ in any bit stay separate terms, however small g is
against the meter width.

Several attachments may share a ``meter_id``: they then kick the same
pointer (the shared transverse-deviation meter of the vibrating-mirror
realization), with shifts adding up along each photon path.
The compiled ``PathSum`` is the only joint-state representation: its
merged terms per arm are the joint state, ``statistics`` reads
probabilities and pointer moments from them, and ``postselect`` keeps one
detector's terms at one coupling vector as a ``PostselectResult``: arrays of
coefficients (K,) and shifts (K, M), factored into one ``MeterWave`` per
meter exactly, by grouping equal shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .meter import MeterConfig, MeterWave, gram_sums, merge_equal_shifts, wave_norm2
from .paths import Circuit, PhotonState, PipelineError, _check_arm


class EntangledMetersError(ValueError):
    """A single-meter wave was requested from a meter-entangled component."""


@dataclass(frozen=True)
class MeterAttachment:
    """One coupling site: meter ``meter_id`` measures the projector onto ``arm``.

    It is pure layout: it kicks every path that passes through its arm, and
    its strength g is supplied per evaluation.
    """

    meter_id: str
    arm: str
    config: MeterConfig

    def __post_init__(self) -> None:
        _check_arm(self.arm)


@dataclass(frozen=True)
class PathSum:
    """Photon paths through the first ``stage`` stages, compiled for one layout.

    Path p passes the arms ``routes[p]``, from its input arm to its final
    arm ``arms[p]``, with amplitude ``amplitudes[p]``: the input amplitude
    times the beamsplitter entries along the route. ``incidence[p, a, m]``
    is 1 iff attachment a kicks meter m and its arm is in ``routes[p]``.
    Couplings are supplied per evaluation, so one compiled sum serves any
    batch of coupling vectors. ``circuit`` is the circuit it was compiled
    from.
    """

    routes: tuple[tuple[str, ...], ...]
    amplitudes: tuple[complex, ...]
    incidence: np.ndarray
    meter_ids: tuple[str, ...]
    configs: tuple[MeterConfig, ...]
    stage: int
    circuit: Circuit = field(repr=False, compare=False)

    @classmethod
    def compile(
        cls,
        circuit: Circuit,
        input_state: PhotonState,
        attachments: list[MeterAttachment] | tuple[MeterAttachment, ...] = (),
        upto: int | None = None,
    ) -> "PathSum":
        """Enumerate the paths of ``input_state`` through ``upto`` stages.

        The attachments fix the layout (meter, arm, delta); each kicks the
        paths through its arm, and an arm the circuit lacks raises ValueError.
        Nonzero input amplitude on an output port of any stage of the
        circuit raises PipelineError, wherever the sum is cut.
        """
        upto = len(circuit) if upto is None else upto
        if not 0 <= upto <= len(circuit):
            raise ValueError(f"stage index {upto} out of range 0..{len(circuit)}")
        meter_ids: list[str] = []
        configs: list[MeterConfig] = []
        slots = []
        for att in attachments:
            circuit.live_stages(att.arm)
            if att.meter_id not in meter_ids:
                meter_ids.append(att.meter_id)
                configs.append(att.config)
            slot = meter_ids.index(att.meter_id)
            if configs[slot].delta != att.config.delta:
                raise ValueError(f"meter {att.meter_id!r} attached twice with different delta")
            slots.append(slot)

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
        incidence = np.zeros((len(paths), len(attachments), len(meter_ids)))
        for p, (route, _) in enumerate(paths):
            for a, att in enumerate(attachments):
                if att.arm in route:
                    incidence[p, a, slots[a]] = 1.0
        return cls(
            routes=tuple(route for route, _ in paths),
            amplitudes=tuple(c for _, c in paths),
            incidence=incidence,
            meter_ids=tuple(meter_ids),
            configs=tuple(configs),
            stage=upto,
            circuit=circuit,
        )

    @property
    def arms(self) -> tuple[str, ...]:
        """The final arm of each path."""
        return tuple(route[-1] for route in self.routes)

    def ket(self) -> PhotonState:
        """The photon state the paths reach, meters left out.

        Per final arm, the amplitudes of its paths summed in path order;
        arms in order of their first path.
        """
        amps: dict[str, complex] = {}
        for arm, c in zip(self.arms, self.amplitudes):
            amps[arm] = amps[arm] + c if arm in amps else c
        return PhotonState(amps)

    def merged(self, couplings, arms=None) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per final arm: merged amplitudes (K,) and meter shifts (K, B, M).

        ``couplings`` is the batch G, shape (B, number of attachments); path
        p's shift of meter m is G times ``incidence[p, :, m]``. The paths of
        one arm are merged by ``merge_equal_shifts``: paths whose shifts are
        equal over the whole batch become one term. With ``arms`` given,
        exactly those arms are returned (no terms if unreached); otherwise
        every arm that keeps a term, in order of the arm's first path.
        """
        g = np.asarray(couplings, dtype=float)
        n_att = self.incidence.shape[1]
        if g.ndim != 2 or g.shape[1] != n_att:
            raise ValueError(f"couplings must have shape (batch, {n_att}), got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("couplings must be finite")
        shifts = g @ self.incidence  # (P, B, M)
        terms = {}
        for arm in dict.fromkeys(self.arms if arms is None else arms):
            paths = [p for p, a in enumerate(self.arms) if a == arm]
            term = merge_equal_shifts([self.amplitudes[p] for p in paths], shifts[paths])
            if arms is not None or term[0].size:
                terms[arm] = term
        return terms

    def statistics(self, couplings, arms) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per requested arm: probability (B,) and un-normalized moments (B, M).

        The moment of meter m is the probability times the conditional
        pointer mean <Q_m> given the photon is in that arm.
        """
        deltas = [cfg.delta for cfg in self.configs]
        return {
            arm: gram_sums(coeffs, shifts, deltas)
            for arm, (coeffs, shifts) in self.merged(couplings, arms).items()
        }

    def postselect(self, couplings, detector: str) -> "PostselectResult":
        """Project onto a detector arm at one coupling vector (one g per attachment).

        Returns the detection probability and the detector's merged terms as
        the un-normalized conditional meter state. The detector must be live
        at the sum's stage.
        """
        self.circuit.require_detector(detector)
        if self.stage not in self.circuit.live[detector]:
            raise ValueError(f"detector {detector} is not live after stage {self.stage}")
        coeffs, shifts = self.merged([couplings], (detector,))[detector]
        prob, _ = gram_sums(coeffs, shifts, [cfg.delta for cfg in self.configs])
        return PostselectResult(float(prob[0]), coeffs, shifts[:, 0], self.meter_ids, self.configs)


@dataclass(frozen=True, eq=False)
class PostselectResult:
    """Un-normalized conditional meter state after projecting onto a detector.

    The state is sum_k coefficients[k] prod_m |G_{shifts[k, m]}> over the
    meters ``meter_ids``, shifts of shape (K, M).
    """

    probability: float
    coefficients: np.ndarray
    shifts: np.ndarray
    meter_ids: tuple[str, ...]
    configs: tuple[MeterConfig, ...]

    @property
    def meter_waves(self) -> tuple[MeterWave, ...]:
        """One un-normalized MeterWave per meter.

        Exact for a single meter. With several meters the conditional state
        must factorize across them: its coefficient matrix M (one meter's
        shifts against the other meters' shifts, grouped by exact value) is
        factored as u v^T through its largest entry M[i0, j0], u_i = M[i, j0],
        v_j = M[i0, j] / M[i0, j0], and EntangledMetersError is raised when
        max |M - u v^T| exceeds 1e-10 |M[i0, j0]|. Each factor is returned
        scaled so its squared norm equals the postselection probability,
        with an arbitrary global phase.
        """
        if len(self.meter_ids) == 1:
            return (MeterWave(self.coefficients, self.shifts[:, 0], self.configs[0]),)
        return tuple(self._factor_slot(k) for k in range(len(self.meter_ids)))

    def _factor_slot(self, slot: int) -> MeterWave:
        config = self.configs[slot]
        if not self.coefficients.size:
            return MeterWave([], [], config)
        # row and column indices in order of first appearance; float keys
        # compare by value, so equal shifts share an index
        rows: dict[float, int] = {}
        cols: dict[tuple[float, ...], int] = {}
        i = [rows.setdefault(s, len(rows)) for s in self.shifts[:, slot].tolist()]
        others = np.delete(self.shifts, slot, axis=1).tolist()
        j = [cols.setdefault(tuple(s), len(cols)) for s in others]
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        np.add.at(mat, (i, j), self.coefficients)
        i0, j0 = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
        u = mat[:, j0]
        residual = mat - np.outer(u, mat[i0] / mat[i0, j0])
        if np.abs(residual).max() > 1e-10 * abs(mat[i0, j0]):
            raise EntangledMetersError(
                f"meter {self.meter_ids[slot]!r}: conditional state is entangled across meters"
            )
        raw = MeterWave(u, list(rows), config)
        n2 = wave_norm2(raw)
        scale = np.sqrt(self.probability / n2) if n2 > 0 else 0.0
        return MeterWave(raw.coefficients * scale, raw.shifts, config)


def arm_occupation(
    circuit: Circuit,
    input_state: PhotonState,
    attachments: list[MeterAttachment] | tuple[MeterAttachment, ...],
    couplings,
    arm: str,
    stage: int,
) -> float:
    """Probability of finding the photon in ``arm`` after ``stage`` stages.

    ``couplings`` holds one g per attachment. Meters are marginalized;
    exact at any coupling strength.
    """
    if stage not in circuit.live_stages(arm):
        raise ValueError(f"arm {arm} is not live at stage {stage}")
    paths = PathSum.compile(circuit, input_state, attachments, upto=stage)
    prob, _ = paths.statistics([couplings], (arm,))[arm]
    return float(prob[0])

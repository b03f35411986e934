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
final arms and amplitudes, and a path x attachment incidence matrix. The
couplings enter only at evaluation, as a batch G of coupling vectors (one
row per set of g values, one column per attachment), so a whole g-sweep or
every quasi-static sample of a vibrating-mirror trace is one evaluation.
Path shifts are G times the incidence rows; probabilities and pointer
moments come from the closed-form Gram sums of ``meter.gram_sums``. Paths
that end in the same arm with exactly equal shifts over the batch are
merged by summing their amplitudes, and exact cancellations drop out, so
the undisturbed dark port stays exactly empty. No tolerance decides a
merge: shifts that differ in any bit stay separate terms, however small g
is against the meter width.

Several attachments may share a ``meter_id``: they then kick the same
pointer (the shared transverse-deviation meter of the vibrating-mirror
realization), with shifts adding up along each photon path.
The compiled ``PathSum`` is the only joint-state representation: its
merged terms per arm are the joint state, ``statistics`` reads
probabilities and pointer moments from them, and ``postselect`` keeps one
detector's terms at one coupling vector as a ``PostselectResult``, which
factors a multi-meter conditional state exactly, by grouping equal shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meter import (
    NORM2_FLOOR,
    GaussianBranch,
    MeterConfig,
    MeterWave,
    NoPostselectedEventsError,
    gram_sums,
    wave_norm2,
)
from .paths import (
    ARM_FIRST_STAGE,
    ARM_LAST_STAGE,
    ATOL,
    Circuit,
    PhotonState,
    PipelineError,
    _check_arm,
    _check_detector,
)


class EntangledMetersError(ValueError):
    """A single-meter wave was requested from a meter-entangled component."""


@dataclass(frozen=True)
class MeterAttachment:
    """One coupling: meter ``meter_id`` measures the projector onto ``arm``.

    ``insert_after`` is the number of stages applied before the coupling
    acts; by default the first stage at which the arm is live (B after BS2,
    E after BS3, and so on).
    """

    meter_id: str
    arm: str
    g: float
    config: MeterConfig
    insert_after: int | None = None

    def __post_init__(self) -> None:
        _check_arm(self.arm)
        if not math.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g}")

    @property
    def insertion_stage(self) -> int:
        if self.insert_after is None:
            return ARM_FIRST_STAGE[self.arm]
        return self.insert_after

    def validate(self) -> None:
        k = self.insertion_stage
        if not ARM_FIRST_STAGE[self.arm] <= k <= ARM_LAST_STAGE[self.arm]:
            raise ValueError(
                f"arm {self.arm} is not live after stage {k} "
                f"(live {ARM_FIRST_STAGE[self.arm]}..{ARM_LAST_STAGE[self.arm]})"
            )


@dataclass(frozen=True)
class JointBranch:
    """Complex coefficient with one accumulated pointer shift per meter."""

    coefficient: complex
    shifts: tuple[float, ...]


@dataclass(frozen=True)
class PathSum:
    """Photon paths through the first ``stage`` stages, compiled for one layout.

    Path p ends in ``arms[p]`` with amplitude ``amplitudes[p]``: the input
    amplitude times the beamsplitter entries along the path.
    ``incidence[p, a, m]`` is 1 iff path p crosses attachment a and that
    attachment kicks meter m. Couplings are supplied per evaluation, so one
    compiled sum serves any batch of coupling vectors.
    """

    arms: tuple[str, ...]
    amplitudes: tuple[complex, ...]
    incidence: np.ndarray
    meter_ids: tuple[str, ...]
    configs: tuple[MeterConfig, ...]
    stage: int

    @classmethod
    def compile(
        cls,
        circuit: Circuit,
        input_state: PhotonState,
        attachments: list[MeterAttachment] | tuple[MeterAttachment, ...] = (),
        upto: int | None = None,
    ) -> "PathSum":
        """Enumerate the paths of ``input_state`` through ``upto`` stages.

        The attachments fix the layout (meter, arm, insertion stage, delta);
        their ``g`` values are not used here.
        """
        upto = len(circuit) if upto is None else upto
        if not 0 <= upto <= len(circuit):
            raise ValueError(f"stage index {upto} out of range 0..{len(circuit)}")
        meter_ids: list[str] = []
        configs: list[MeterConfig] = []
        slots = []
        # attachment indices by (insertion stage, arm)
        acting: dict[tuple[int, str], tuple[int, ...]] = {}
        for a, att in enumerate(attachments):
            att.validate()
            if att.meter_id not in meter_ids:
                meter_ids.append(att.meter_id)
                configs.append(att.config)
            slot = meter_ids.index(att.meter_id)
            if configs[slot].delta != att.config.delta:
                raise ValueError(f"meter {att.meter_id!r} attached twice with different delta")
            slots.append(slot)
            key = (att.insertion_stage, att.arm)
            acting[key] = acting.get(key, ()) + (a,)

        # a path is (current arm, amplitude, indices of the attachments crossed)
        paths = [
            (arm, complex(c), acting.get((0, arm), ()))
            for arm, c in input_state.amplitudes.items()
            if c != 0
        ]
        for k, bs in enumerate(circuit.stages[:upto], start=1):
            for out in bs.outputs:
                if sum(abs(c) ** 2 for arm, c, _ in paths if arm == out) > ATOL:
                    raise PipelineError(
                        f"BS{bs.ident}: nonzero amplitude already present on output port {out}"
                    )
            m = bs.amplitude_matrix.tolist()
            moved = []
            for arm, c, hit in paths:
                if arm not in bs.inputs:
                    moved.append((arm, c, hit + acting.get((k, arm), ())))
                    continue
                col = bs.inputs.index(arm)
                for row, out in enumerate(bs.outputs):
                    amp = c * m[row][col]
                    if amp != 0:
                        moved.append((out, amp, hit + acting.get((k, out), ())))
            paths = moved
        incidence = np.zeros((len(paths), len(attachments), len(meter_ids)))
        for p, (_, _, hit) in enumerate(paths):
            for a in hit:
                incidence[p, a, slots[a]] = 1.0
        return cls(
            arms=tuple(arm for arm, _, _ in paths),
            amplitudes=tuple(c for _, c, _ in paths),
            incidence=incidence,
            meter_ids=tuple(meter_ids),
            configs=tuple(configs),
            stage=upto,
        )

    def merged(self, couplings, arms=None) -> dict[str, tuple[list[complex], np.ndarray]]:
        """Per final arm: merged amplitudes (K,) and meter shifts (K, B, M).

        ``couplings`` is the batch G, shape (B, number of attachments); path
        p's shift of meter m is G times ``incidence[p, :, m]``. Paths of one
        arm whose shifts are equal over the whole batch merge into one term
        by summing amplitudes; exact-zero sums are dropped. With ``arms``
        given, exactly those arms are returned (no terms if unreached);
        otherwise every arm that keeps a term.
        """
        g = np.asarray(couplings, dtype=float)
        n_att = self.incidence.shape[1]
        if g.ndim != 2 or g.shape[1] != n_att:
            raise ValueError(f"couplings must have shape (batch, {n_att}), got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("couplings must be finite")
        # adding 0.0 turns -0.0 into 0.0, so equal bytes mean equal shifts
        shifts = g @ self.incidence + 0.0  # (P, B, M)
        groups: dict[tuple[str, bytes], list] = {}
        for p, (arm, c) in enumerate(zip(self.arms, self.amplitudes)):
            if arms is None or arm in arms:
                group = groups.setdefault((arm, shifts[p].tobytes()), [0j, p])
                group[0] += c
        terms: dict[str, tuple[list[complex], list[int]]] = {arm: ([], []) for arm in arms or ()}
        for (arm, _), (c, p) in groups.items():
            if c != 0:
                coeffs, rows = terms.setdefault(arm, ([], []))
                coeffs.append(c)
                rows.append(p)
        return {arm: (coeffs, shifts[rows]) for arm, (coeffs, rows) in terms.items()}

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
        the un-normalized conditional meter state.
        """
        _check_detector(detector)
        coeffs, shifts = self.merged([couplings], (detector,))[detector]
        prob, _ = gram_sums(coeffs, shifts, [cfg.delta for cfg in self.configs])
        branches = tuple(JointBranch(c, tuple(s)) for c, (s,) in zip(coeffs, shifts.tolist()))
        return PostselectResult(float(prob[0]), branches, self.meter_ids, self.configs)


@dataclass(frozen=True)
class PostselectResult:
    """Un-normalized conditional meter state after projecting onto a detector."""

    probability: float
    branches: tuple[JointBranch, ...]
    meter_ids: tuple[str, ...]
    configs: tuple[MeterConfig, ...]

    def pointer_mean(self, meter_id: str) -> float:
        """Conditional <Q> of one meter given the detector fired."""
        if self.probability <= NORM2_FLOOR:
            raise NoPostselectedEventsError("postselection probability is zero")
        slot = self.meter_ids.index(meter_id)
        shifts = np.array([b.shifts for b in self.branches], dtype=float)
        _, moment = gram_sums(
            [b.coefficient for b in self.branches],
            shifts.reshape(len(self.branches), 1, len(self.configs)),
            [cfg.delta for cfg in self.configs],
        )
        return float(moment[0, slot]) / self.probability

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
            return (
                MeterWave(
                    tuple(GaussianBranch(b.coefficient, b.shifts[0]) for b in self.branches),
                    self.configs[0],
                ),
            )
        return tuple(self._factor_slot(k) for k in range(len(self.meter_ids)))

    def _factor_slot(self, slot: int) -> MeterWave:
        if not self.branches:
            return MeterWave((), self.configs[slot])
        # row and column indices in order of first appearance; float keys
        # compare by value, so equal shifts share an index
        rows: dict[float, int] = {}
        cols: dict[tuple[float, ...], int] = {}
        cells = []
        for b in self.branches:
            i = rows.setdefault(b.shifts[slot], len(rows))
            j = cols.setdefault(b.shifts[:slot] + b.shifts[slot + 1:], len(cols))
            cells.append((i, j, b.coefficient))
        mat = np.zeros((len(rows), len(cols)), dtype=complex)
        for i, j, c in cells:
            mat[i, j] += c
        i0, j0 = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
        u = mat[:, j0]
        residual = mat - np.outer(u, mat[i0] / mat[i0, j0])
        if np.abs(residual).max() > 1e-10 * abs(mat[i0, j0]):
            raise EntangledMetersError(
                f"meter {self.meter_ids[slot]!r}: conditional state is entangled across meters"
            )
        raw = MeterWave(tuple(map(GaussianBranch, u, rows)), self.configs[slot])
        n2 = wave_norm2(raw)
        scale = np.sqrt(self.probability / n2) if n2 > 0 else 0.0
        return MeterWave(
            tuple(GaussianBranch(b.coefficient * scale, b.shift) for b in raw.branches),
            self.configs[slot],
        )


def arm_occupation(
    circuit: Circuit,
    input_state: PhotonState,
    attachments: list[MeterAttachment] | tuple[MeterAttachment, ...],
    arm: str,
    stage: int,
) -> float:
    """Probability of finding the photon in ``arm`` after ``stage`` stages.

    Meters are marginalized; exact at any coupling strength.
    """
    _check_arm(arm)
    if not 0 <= stage <= len(circuit):
        raise ValueError(f"stage index {stage} out of range 0..{len(circuit)}")
    if not ARM_FIRST_STAGE[arm] <= stage <= ARM_LAST_STAGE[arm]:
        raise ValueError(f"arm {arm} is not live at stage {stage}")
    paths = PathSum.compile(circuit, input_state, attachments, upto=stage)
    prob, _ = paths.statistics([[att.g for att in attachments]], (arm,))[arm]
    return float(prob[0])

"""The two competing weak-trace diagnostics and their comparison.

For a preselected photon |N> and a postselecting detector, the weak value
of an arm projector is the ratio of the projector-inserted transition
amplitude to the plain one. Operationally it is the g -> 0 limit of the
postselected pointer mean divided by g. That limit is discontinuous here:
at every g > 0 part of the inner-arm state leaks through the dark port E
into the outer detectors, while at g = 0 exactly nothing does.

The non-postselected alternative reads the *unconditional* pointer mean,
which equals g times the plain projector expectation at the arm's stage,
exactly, at every coupling strength; its g -> 0 limit is continuous.

Both are read off compiled ``PathSum``s, whose paths carry their routes.
The probe on an arm kicks every path that passes through it. The weak
value is the summed amplitude of the detector-bound routes through the
arm over that of all detector-bound paths; pointer means, postselection
and arm occupations come from the sum's merged terms and Gram statistics.
``weak_value_tsvf`` pairs two path sums at the cut where the probed arm
becomes live: the forward ket of the circuit up to the cut and the
backward ket of the detector through the circuit's adjoint back to it.
It shares the path enumeration with the other columns; the independent
check is the dense matrix oracle of the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import PathSum, arm_occupation
from .meter import (
    NORM2_FLOOR,
    MeterConfig,
    NoPostselectedEventsError,
    _readout_moments,
    wave_norm2,
)
from .paths import NESTED_MZI, Circuit, PhotonState

_DENOM_FLOOR = 1e-15

#: Largest trial count: numpy's binomial sampler takes a signed 64-bit count.
_MAX_TRIALS = 2**63 - 1


class UndefinedWeakValueError(ValueError):
    """Weak value requested for a pre/post pair with vanishing overlap."""


def _default_circuit(circuit: Circuit | None) -> Circuit:
    return NESTED_MZI if circuit is None else circuit


def _default_input(state: PhotonState | None) -> PhotonState:
    return PhotonState.source() if state is None else state


def _coupling_grid(values, noun: str) -> list[float]:
    """``values`` as floats; ValueError unless non-empty, positive and strictly decreasing."""
    grid = [float(g) for g in values]
    if not grid or any(g <= 0 for g in grid):
        raise ValueError(f"{noun} must be non-empty and strictly positive")
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{noun} must be strictly decreasing")
    return grid


def _path_weak_value(paths: PathSum, arm: str, detector: str) -> complex:
    """Weak value of the projector onto ``arm``, read off the routes of a path sum.

    The plain transition amplitude <detector|U|in> sums the amplitudes of
    the paths that end at the detector; the projector-inserted one keeps
    only those among them whose routes pass through ``arm``.
    """
    paths.circuit.require_detector(detector)
    ending = [p for p, end in enumerate(paths.arms) if end == detector]
    den = sum(paths.amplitudes[p] for p in ending)
    if abs(den) < _DENOM_FLOOR:
        raise UndefinedWeakValueError(
            f"postselection on {detector} has zero amplitude; weak value undefined"
        )
    return sum(paths.amplitudes[p] for p in ending if arm in paths.routes[p]) / den


def weak_value_analytic(
    arm: str,
    in_state: PhotonState | None = None,
    detector: str = "D2",
    circuit: Circuit | None = None,
) -> complex:
    """Weak value of the arm projector for the given pre/postselection."""
    circuit = _default_circuit(circuit)
    in_state = _default_input(in_state)
    circuit.live_stages(arm)
    return _path_weak_value(PathSum.compile(circuit, in_state), arm, detector)


def tsvf_backward_state(
    detector: str, stage: int, circuit: Circuit | None = None
) -> PhotonState:
    """Backward-evolved ket at ``stage``: |detector> through the adjoint circuit.

    The first ``len(circuit) - stage`` stages of ``circuit.adjoint`` undo
    the circuit's stages past ``stage``, last first. The bra of the
    two-state description is this state's conjugate; pairing it with the
    forward ket at the same stage reproduces transition amplitudes without
    ever evolving past the stage.
    """
    circuit = _default_circuit(circuit)
    circuit.require_detector(detector)
    if not 0 <= stage <= len(circuit):
        raise ValueError(f"stage index {stage} out of range 0..{len(circuit)}")
    basis = PhotonState.basis(detector)
    return PathSum.compile(circuit.adjoint, basis, (), len(circuit) - stage).ket()


def weak_value_tsvf(
    arm: str,
    in_state: PhotonState | None = None,
    detector: str = "D2",
    circuit: Circuit | None = None,
) -> complex:
    """Weak value from the two-state pairing <Phi|Pi_arm|Psi> / <Phi|Psi>."""
    circuit = _default_circuit(circuit)
    in_state = _default_input(in_state)
    k = circuit.live_stages(arm).start
    forward = PathSum.compile(circuit, in_state, (), k).ket()
    backward = tsvf_backward_state(detector, k, circuit)
    den = sum(
        backward.amplitude(a).conjugate() * c for a, c in forward.amplitudes.items()
    )
    if abs(den) < _DENOM_FLOOR:
        raise UndefinedWeakValueError(
            f"two-state overlap for {detector} vanishes; weak value undefined"
        )
    num = backward.amplitude(arm).conjugate() * forward.amplitude(arm)
    return num / den


def extrapolate_even_limit(g_values, ratios) -> float:
    """Richardson-style limit estimate at g = 0.

    Fits the polynomial in x = g^2 through the three smallest-g points
    (corrections to the pointer mean are even in g for the real weak
    values arising here) and evaluates it at x = 0.
    """
    pts = sorted(zip(g_values, ratios))[:3]
    xs = [g * g for g, _ in pts]
    if len(set(xs)) < len(xs):
        # e.g. couplings below 1e-162, whose squares all underflow to 0
        raise ValueError("the three smallest couplings have equal squares in double precision")
    ys = [r for _, r in pts]
    limit = 0.0
    for i, yi in enumerate(ys):
        term = yi
        for j, xj in enumerate(xs):
            if j != i:
                term *= xj / (xj - xs[i])
        limit += term
    return limit


@dataclass(frozen=True)
class WeakValueRecord:
    """Analytic weak value next to its operational finite-g estimates."""

    arm: str
    detector: str
    analytic: complex
    estimates: tuple[tuple[float, float], ...]  # (g, pointer_mean / g)
    limit: float


def weak_value_operational(
    arm: str,
    detector: str,
    g_list,
    delta: float,
    in_state: PhotonState | None = None,
    circuit: Circuit | None = None,
) -> WeakValueRecord:
    """Pointer-mean readout of the weak value over a decreasing g sweep.

    The whole sweep is one batch of the compiled path sum: per g, the
    detector postselects and the conditional pointer mean divided by g is
    recorded; the g -> 0 limit is extrapolated in g^2 from the three
    smallest couplings.
    """
    g_list = _coupling_grid(g_list, "g sweep")
    circuit = _default_circuit(circuit)
    in_state = _default_input(in_state)
    circuit.require_detector(detector)
    config = MeterConfig(delta)
    paths = PathSum.compile(circuit, in_state, (arm,))
    prob, moment = paths.statistics([[g] for g in g_list], (detector,), config)[detector]
    for g, p in zip(g_list, prob):
        if p <= NORM2_FLOOR:
            raise NoPostselectedEventsError(
                f"postselection on {detector} has zero probability at g={g}"
            )
    estimates = [(g, float(m / p) / g) for g, p, m in zip(g_list, prob, moment)]
    limit = extrapolate_even_limit(*zip(*estimates))
    analytic = _path_weak_value(paths, arm, detector)
    return WeakValueRecord(arm, detector, analytic, tuple(estimates), limit)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Protocol simulation result: (sample mean of q)/g with its standard error."""

    value: float
    stderr: float
    g: float
    n_trials: int
    n_postselected: int


def monte_carlo_weak_value(
    arm: str,
    detector: str,
    g: float,
    delta: float,
    n: int,
    seed: int,
    in_state: PhotonState | None = None,
    circuit: Circuit | None = None,
) -> MonteCarloEstimate:
    """Simulate the full operational protocol over ``n`` identical trials.

    Each trial either postselects (with the detector probability) and then
    yields one projective pointer readout, or is discarded. The number of
    successes is drawn binomially, then the readouts' mean and M2 from their
    exact law given the conditional density, which is distributionally
    identical to looping over trials one by one. When the density is a
    non-negative Gaussian mixture (arms A and B, separated waves) these
    sufficient statistics are drawn per component in O(components) work,
    whatever ``n``; a signed wave (arm C) keeps per-draw rejection, reduced
    in fixed-size chunks. Groups are merged by Chan's pairwise update, so
    memory is O(chunk) for any ``n`` and the standard error stays accurate
    when the mean is large against the spread. An estimate or (for more
    than one postselected trial) a standard error that is not finite in
    double precision raises ValueError, and so does g = 0, where mean/g is
    undefined. A negative g divides the standard error by |g|.
    """
    if not 1 <= n <= _MAX_TRIALS:
        raise ValueError(f"trial count must be in 1..{_MAX_TRIALS}, got {n}")
    if g == 0:
        raise ValueError("the pointer ratio mean/g is undefined at g = 0")
    circuit = _default_circuit(circuit)
    in_state = _default_input(in_state)
    config = MeterConfig(delta)
    wave = PathSum.compile(circuit, in_state, (arm,)).postselect([g], detector, config)
    probability = wave_norm2(wave)
    if probability <= NORM2_FLOOR:
        raise NoPostselectedEventsError(f"postselection on {detector} has zero probability")
    rng = np.random.default_rng(seed)
    n_sel = int(rng.binomial(n, min(probability, 1.0)))
    if n_sel == 0:
        raise NoPostselectedEventsError(f"no successful postselections in {n} trials")
    _, mean, m2 = _readout_moments(wave, n_sel, rng)
    value = mean / g
    stderr = math.sqrt(m2 / (n_sel - 1) / n_sel) / abs(g) if n_sel > 1 else float("nan")
    if not (math.isfinite(value) and (math.isfinite(stderr) or n_sel == 1)):
        raise ValueError(f"Monte Carlo estimate at g={g}, delta={delta} is out of double range")
    return MonteCarloEstimate(value, stderr, g, n, n_sel)


@dataclass(frozen=True)
class MeanValueRecord:
    """Non-postselected pointer readout for one arm at one coupling."""

    arm: str
    g: float
    pointer_mean: float
    ratio: float | None  # pointer_mean / g, undefined at g = 0
    limit: float  # projector expectation at the arm's stage (the exact g->0 value)


def weak_mean_value(
    arm: str,
    in_state: PhotonState | None = None,
    g: float = 0.1,
    delta: float = 1.0,
    circuit: Circuit | None = None,
) -> MeanValueRecord:
    """Unconditional pointer mean of a single meter on ``arm``.

    The ratio pointer_mean/g equals the projector expectation at the arm's
    stage for every g, with no weak-coupling approximation; that exactness
    is what makes the non-postselected criterion continuous at g = 0.
    """
    if g < 0:
        raise ValueError("coupling strength must be nonnegative")
    circuit = _default_circuit(circuit)
    in_state = _default_input(in_state)
    config = MeterConfig(delta)
    stats = PathSum.compile(circuit, in_state, (arm,)).statistics([[g]], None, config)
    norm2 = sum(float(prob[0]) for prob, _ in stats.values())
    if norm2 <= NORM2_FLOOR:
        raise NoPostselectedEventsError("state has zero norm")
    mean = sum(float(moment[0]) for _, moment in stats.values()) / norm2
    limit = arm_occupation(circuit, in_state, (), (), config, arm, circuit.live_stages(arm).start)
    ratio = mean / g if g > 0 else None
    return MeanValueRecord(arm, g, mean, ratio, limit)


@dataclass(frozen=True)
class DiscontinuityRow:
    """One coupling strength of the dark-port bookkeeping table."""

    g: float
    e_occupation: float  # P(photon in E from the stage that produces it), B-meter attached
    pointer_ratio: float | None  # D2-postselected <Q>/g; None at g = 0
    analogy_ratio: float | None  # f(g)/g for the scalar analogy f(x) = a x


@dataclass(frozen=True)
class DiscontinuityReport:
    """Finite-g rows against the untouched g = 0 configuration.

    ``rows`` all carry a strictly positive E-arm occupation and a pointer
    ratio near the extrapolated weak value; ``zero_row`` has no E-arm
    state and no defined ratio at all. ``b_signal_via_e`` records that the
    coupled (shift-g) part of the postselected D2 wave all arrives through
    the dark arm E: every D2-bound route through B that avoids E cancels.
    """

    delta: float
    rows: tuple[DiscontinuityRow, ...]
    zero_row: DiscontinuityRow
    extrapolated_weak_value: float
    analogy_slope: float
    b_signal_via_e: bool

    @property
    def discontinuous(self) -> bool:
        return bool(
            all(r.e_occupation > 0.0 for r in self.rows)
            and self.zero_row.e_occupation == 0.0
            and abs(self.extrapolated_weak_value) > 1e-9
        )


def discontinuity_report(
    g_grid,
    delta: float,
    in_state: PhotonState | None = None,
    circuit: Circuit | None = None,
) -> DiscontinuityReport:
    """Contrast the g -> 0 weak-value limit with the undisturbed setup.

    Per grid coupling: the E-arm occupation created by the B-arm meter and
    the D2-postselected pointer ratio; then the g = 0 row, where the E
    occupation is identically zero and the ratio does not exist. The
    scalar analogy column mirrors f(x) = a x, whose ratio f(x)/x holds the
    limit a at every x > 0 yet is undefined at x = 0.
    """
    g_grid = _coupling_grid(g_grid, "g grid")
    circuit = _default_circuit(circuit)
    in_state = _default_input(in_state)
    missing = [arm for arm in ("B", "E") if arm not in circuit.live]
    if "D2" not in circuit.detectors:
        missing.append("D2")
    if missing:
        raise ValueError(f"the discontinuity report needs arms B, E and detector D2; "
                         f"the circuit lacks {', '.join(missing)}")

    record = weak_value_operational("B", "D2", g_grid, delta, in_state, circuit)
    slope = record.limit
    config = MeterConfig(delta)
    inner = PathSum.compile(circuit, in_state, ("B",), upto=circuit.live["E"].start)
    p_e, _ = inner.statistics([[g] for g in g_grid], ("E",), config)["E"]
    rows = tuple(
        DiscontinuityRow(g, float(p), ratio, slope) for (g, ratio), p in zip(record.estimates, p_e)
    )
    # its own batch, so that the undisturbed B and C paths merge and cancel exactly
    p_e_zero, _ = inner.statistics([[0.0]], ("E",), config)["E"]
    zero_row = DiscontinuityRow(0.0, float(p_e_zero[0]), None, None)

    # the B meter shifts exactly the D2-bound paths through B, so its whole
    # coupled part arrives via E iff those of them that avoid E cancel
    paths = PathSum.compile(circuit, in_state)
    direct = sum(
        c for route, c in zip(paths.routes, paths.amplitudes)
        if route[-1] == "D2" and "B" in route and "E" not in route
    )
    b_signal_via_e = bool(abs(direct) < 1e-12)

    return DiscontinuityReport(
        delta=delta,
        rows=rows,
        zero_row=zero_row,
        extrapolated_weak_value=record.limit,
        analogy_slope=slope,
        b_signal_via_e=b_signal_via_e,
    )

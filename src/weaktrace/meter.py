"""Exact von Neumann meter algebra on superpositions of shifted Gaussians.

The meter starts in a Gaussian wavefunction

    phi_s(q) = (pi * delta)^(-1/4) * exp(-(q - s)^2 / (2 * delta)),  s = 0,

where ``delta`` is the squared width of the *wavefunction* (the position
probability density then has variance delta/2). A measurement coupling
translates the wavefunction rigidly, so every wave reachable in this
simulator is a finite complex combination of shifted Gaussians, and all
inner products have closed forms:

    <G_a | G_b>     = exp(-(a - b)^2 / (4 delta))
    <G_a | Q | G_b> = (a + b)/2 * exp(-(a - b)^2 / (4 delta)).

Keeping the branch representation exact (instead of discretizing on a
grid) removes every source of numerical error except double rounding;
grids appear only in the readout sampler and in test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Branch shifts closer than this are the same physical displacement.
SHIFT_MERGE_TOL = 1e-14

#: Below this squared norm a conditional wave has no postselected events.
NORM2_FLOOR = 1e-30


class NoPostselectedEventsError(ValueError):
    """Conditional meter statistics requested for a vanishing-norm wave."""


@dataclass(frozen=True)
class MeterConfig:
    """Initial-Gaussian squared width plus grid parameters for quadrature.

    ``grid_span_sigmas`` and ``grid_points`` only drive the readout sampler
    and the test-side quadrature oracle; the analytic algebra never uses them.
    """

    delta: float
    grid_span_sigmas: float = 10.0
    grid_points: int = 4096

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.grid_points < 16:
            raise ValueError("grid_points must be at least 16")


@dataclass(frozen=True)
class GaussianBranch:
    """One shifted Gaussian: complex coefficient and accumulated displacement."""

    coefficient: complex
    shift: float


def _merge_branches(branches) -> tuple[GaussianBranch, ...]:
    merged: list[GaussianBranch] = []
    for b in branches:
        for i, m in enumerate(merged):
            if abs(b.shift - m.shift) < SHIFT_MERGE_TOL:
                merged[i] = GaussianBranch(m.coefficient + b.coefficient, m.shift)
                break
        else:
            merged.append(GaussianBranch(complex(b.coefficient), float(b.shift)))
    # exact cancellations (destructive interference) leave no branch behind
    return tuple(b for b in merged if b.coefficient != 0)


@dataclass(frozen=True)
class MeterWave:
    """Finite combination of shifted Gaussians sharing one MeterConfig.

    Branches with coincident shifts are merged on construction.
    """

    branches: tuple[GaussianBranch, ...]
    config: MeterConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", _merge_branches(self.branches))

    @classmethod
    def initial(cls, config: MeterConfig) -> "MeterWave":
        return cls((GaussianBranch(1.0 + 0.0j, 0.0),), config)

    def translated(self, t: float) -> "MeterWave":
        """Rigidly displace the whole wave by ``t``."""
        return MeterWave(
            tuple(GaussianBranch(b.coefficient, b.shift + t) for b in self.branches),
            self.config,
        )

    def wavefunction(self, q: np.ndarray) -> np.ndarray:
        """Evaluate the (possibly un-normalized) wavefunction on a grid."""
        d = self.config.delta
        norm = (math.pi * d) ** -0.25
        out = np.zeros_like(q, dtype=complex)
        for b in self.branches:
            out += b.coefficient * norm * np.exp(-((q - b.shift) ** 2) / (2.0 * d))
        return out


def branch_overlap(a: float, b: float, delta: float) -> float:
    """<G_a|G_b> for unit-normalized Gaussians of squared width ``delta``."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return math.exp(-((a - b) ** 2) / (4.0 * delta))


def pointer_first_moment(a: float, b: float, delta: float) -> float:
    """<G_a|Q|G_b>: the overlap weighted by the midpoint of the two shifts."""
    return 0.5 * (a + b) * branch_overlap(a, b, delta)


def gram_sums(coefficients, shifts, deltas) -> tuple[np.ndarray, np.ndarray]:
    """Squared norm and first pointer moments of sum_p c_p |G_{s_p}>, batched.

    ``shifts`` has shape (P, B, M): P branches, a batch of B shift sets and
    M meters with squared widths ``deltas``. The meters' Gaussians multiply,
    so a pair overlap is the product of per-meter overlaps. Returns the
    squared norms, shape (B,), and the un-normalized moments norm2 * <Q_m>,
    shape (B, M). The loop runs over the P(P+1)/2 branch pairs with
    length-B vectors, so memory stays O(P B M).
    """
    c = [complex(x) for x in coefficients]
    s = np.asarray(shifts, dtype=float)
    neg_inv4d = -0.25 / np.asarray(deltas, dtype=float)
    norm2 = np.zeros(s.shape[1])
    moment = np.zeros(s.shape[1:])
    for p, cp in enumerate(c):
        weight = abs(cp) ** 2
        norm2 += weight
        moment += weight * s[p]
        for q in range(p + 1, len(c)):
            d = s[p] - s[q]
            overlap = np.exp((d * d) @ neg_inv4d)
            cross = 2.0 * (cp.conjugate() * c[q]).real
            norm2 += cross * overlap
            moment += (0.5 * cross * overlap)[:, None] * (s[p] + s[q])
    return norm2, moment


def _wave_gram(w: MeterWave) -> tuple[float, float]:
    shifts = np.array([b.shift for b in w.branches], dtype=float).reshape(-1, 1, 1)
    norm2, moment = gram_sums([b.coefficient for b in w.branches], shifts, [w.config.delta])
    return float(norm2[0]), float(moment[0, 0])


def wave_norm2(w: MeterWave) -> float:
    """Squared norm sum_ij conj(c_i) c_j <G_i|G_j>; real and nonnegative."""
    return _wave_gram(w)[0]


def wave_pointer_mean(w: MeterWave) -> float:
    """Mean pointer position <Q> of the normalized wave.

    Raises NoPostselectedEventsError when the wave has (numerically) zero
    norm, i.e. the conditioning event never occurs.
    """
    n2, moment = _wave_gram(w)
    if n2 <= NORM2_FLOOR:
        raise NoPostselectedEventsError("pointer mean undefined: wave norm is zero")
    return moment / n2


def _readout_grid(w: MeterWave) -> tuple[np.ndarray, np.ndarray]:
    """Position grid spanning all branches plus the configured tail margin."""
    cfg = w.config
    span = cfg.grid_span_sigmas * math.sqrt(cfg.delta)
    shifts = [b.shift for b in w.branches]
    lo, hi = min(shifts) - span, max(shifts) + span
    # resolution matters more than the configured floor for inverse-CDF draws
    n = max(cfg.grid_points, 4096)
    q = np.linspace(lo, hi, n)
    density = np.abs(w.wavefunction(q)) ** 2
    return q, density


def readout_cdf(w: MeterWave) -> tuple[np.ndarray, np.ndarray]:
    """Grid and normalized cumulative distribution of the pointer readout."""
    n2 = wave_norm2(w)
    if n2 <= NORM2_FLOOR:
        raise NoPostselectedEventsError("readout undefined: wave norm is zero")
    q, density = _readout_grid(w)
    dq = q[1] - q[0]
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * dq)))
    cdf /= cdf[-1]
    return q, cdf


def sample_with_rng(w: MeterWave, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from |wave|^2 / norm2 using an existing generator."""
    if n < 1:
        raise ValueError("sample count must be at least 1")
    q, cdf = readout_cdf(w)
    u = rng.random(n)
    return np.interp(u, cdf, q)


def sample_pointer_readout(w: MeterWave, n: int, seed: int) -> np.ndarray:
    """``n`` independent projective pointer readouts, deterministic per seed."""
    return sample_with_rng(w, n, np.random.default_rng(seed))

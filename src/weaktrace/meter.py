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

The readout density is a finite mixture of the same kind,

    |sum_i c_i G_{a_i}|^2 = sum_{i<=j} w_ij N(q; (a_i + a_j)/2, delta/2),
    w_ij = (2 - [i = j]) Re(conj(c_i) c_j) exp(-(a_i - a_j)^2 / (4 delta)),

so pointer readouts are drawn from it exactly, by rejection where some w_ij
is negative. When every w_ij >= 0 the mixture's components are Gaussians of
one variance, so the count, mean and M2 of n readouts are drawn from their
exact joint law in O(components) work, whatever n; a signed wave keeps
per-draw rejection. A ``MeterWave`` merges only branches whose shifts are
exactly equal, so two branches far closer than the meter width stay two
branches; the Gram sums and the signed sampler's envelope ratio contain no
1/(a_i - a_j) and stay accurate for them. No quantity is ever discretized
on a grid and no tolerance merges branches; the only error left is double
rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

#: Below this squared norm a conditional wave has no postselected events.
NORM2_FLOOR = 1e-30

#: Largest readout chunk the sampler holds in memory at once. Its 64 KiB
#: arrays stay in cache and under glibc's mmap threshold; larger chunks
#: measured slower per draw.
_CHUNK = 1 << 13

#: Variance inflations eps of the Gaussian envelope N(mean, (delta/2)(1 + eps))
#: tried for a signed two-branch density; the one with the smallest bound wins.
_ENVELOPE_WIDENINGS = (0.1, 0.2, 0.4, 0.8)

#: Step cap of the bracketing and bisection in ``_envelope_log_bound``:
#: doubles span 2^-1074..2^1024, so no bracket needs more halvings or doublings.
_MAX_STEPS = 2200


class NoPostselectedEventsError(ValueError):
    """Conditional meter statistics requested for a vanishing-norm wave."""


@dataclass(frozen=True)
class MeterConfig:
    """Squared width of the initial meter Gaussian."""

    delta: float

    def __post_init__(self) -> None:
        # a subnormal delta overflows 1/(4 delta), and the overlaps turn to NaN
        if not (math.isfinite(self.delta) and self.delta >= sys.float_info.min):
            raise ValueError(f"delta must be positive, finite and normal, got {self.delta}")


@dataclass(frozen=True)
class GaussianBranch:
    """One shifted Gaussian: complex coefficient and accumulated displacement."""

    coefficient: complex
    shift: float


@dataclass(frozen=True)
class MeterWave:
    """Finite combination of shifted Gaussians sharing one MeterConfig.

    Branches with exactly equal shifts are merged on construction by summing
    their coefficients, and exact-zero sums (destructive interference) are
    dropped. Shifts that differ in any bit stay separate branches.
    """

    branches: tuple[GaussianBranch, ...]
    config: MeterConfig

    def __post_init__(self) -> None:
        merged: dict[float, complex] = {}
        for b in self.branches:
            # adding 0.0 turns -0.0 into 0.0, as in PathSum.merged
            shift = float(b.shift) + 0.0
            merged[shift] = merged.get(shift, 0j) + complex(b.coefficient)
        branches = tuple(GaussianBranch(c, s) for s, c in merged.items() if c != 0)
        object.__setattr__(self, "branches", branches)

    def translated(self, t: float) -> "MeterWave":
        """Rigidly displace the whole wave by ``t``."""
        return MeterWave(
            tuple(GaussianBranch(b.coefficient, b.shift + t) for b in self.branches),
            self.config,
        )


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

    The sums are compensated: with C = sum_p c_p and every overlap written
    as 1 + expm1(...), the norm is |C|^2 + sum_{p<q} 2 Re(conj(c_p) c_q)
    expm1(-sum_m (d_pqm / 2 sqrt(delta_m))^2). A dark port, where C = 0
    and the overlaps are 1 - O(g^2), then keeps full relative precision at
    any small g instead of cancelling to zero.
    """
    c = [complex(x) for x in coefficients]
    s = np.asarray(shifts, dtype=float)
    # scaling each distance before squaring keeps a subnormal d^2 out of it
    inv_2sd = 0.5 / np.sqrt(np.asarray(deltas, dtype=float))
    total = sum(c, 0j)
    norm2 = np.full(s.shape[1], abs(total) ** 2)
    moment = np.zeros(s.shape[1:])
    for p, cp in enumerate(c):
        moment += (cp.conjugate() * total).real * s[p]
        for q in range(p + 1, len(c)):
            # a scaled distance past double range is an overlap of exactly 0,
            # and expm1(-inf) = -1 gives it: the overflow is not an error
            with np.errstate(over="ignore"):
                excess = np.expm1(-np.square((s[p] - s[q]) * inv_2sd).sum(axis=-1))  # overlap - 1
            cross = 2.0 * (cp.conjugate() * c[q]).real
            norm2 += cross * excess
            moment += (0.5 * cross * excess)[:, None] * (s[p] + s[q])
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


def _envelope_terms(alpha, beta, a0, a1, delta, mean, eps):
    """Coefficients of log sqrt(f/h) for f = (alpha G_a0 - beta G_a1)^2.

    h is the normal density N(mean, (delta/2)(1 + eps)) and alpha, beta > 0.
    With t = ln(beta G_a1 / (alpha G_a0)) = slope * q + offset, affine in q,

        log sqrt(f/h) = const - k (t - t_a)^2 + log|expm1(t)|,  k > 0,

    which is concave on either side of the zero t = 0 of f. Returns
    (slope, offset, k, t_a, const).
    """
    gap = a1 - a0
    ell = math.log(alpha / beta)
    slope = gap / delta
    offset = -slope * 0.5 * (a0 + a1) - ell
    # a gap whose square underflows gives k = inf, which disqualifies the envelope
    k = eps * delta / (2.0 * (1.0 + eps) * gap * gap) if gap * gap > 0 else math.inf
    t_a = slope * ((a0 - mean) / eps - 0.5 * gap) - ell
    const = 0.25 * math.log1p(eps) + (a0 - mean) ** 2 / (2.0 * eps * delta) + math.log(alpha)
    return slope, offset, k, t_a, const


def _envelope_log_bound(alpha, beta, a0, a1, delta, mean, eps) -> float:
    """log M with M >= sup_q f(q)/h(q), in the setting of ``_envelope_terms``.

    On each side of t = 0 the concave log sqrt(f/h) has one maximum; its
    derivative is bracketed and bisected down to adjacent doubles, and the
    maximum is bounded from above by the tangent lines at the two ends of
    the final bracket. Returns inf when the bracket cannot be found (the
    coefficients are out of double range), which disqualifies the envelope.
    """
    _, _, k, t_a, const = _envelope_terms(alpha, beta, a0, a1, delta, mean, eps)
    if not (k > 0.0 and math.isfinite(k * t_a) and math.isfinite(const)):
        return math.inf

    def value(t):
        log_abs = math.log(-math.expm1(t)) if t < 0 else t + math.log(-math.expm1(-t))
        return const - k * (t - t_a) ** 2 + log_abs

    def slope(t):
        d_log_abs = math.exp(t) / math.expm1(t) if t < 0 else -1.0 / math.expm1(-t)
        return -2.0 * k * (t - t_a) + d_log_abs

    best = -math.inf
    for side in (-1.0, 1.0):
        # "inner" lies between 0 and the maximum, "outer" beyond it
        inner = outer = side
        for _ in range(_MAX_STEPS):
            if slope(inner) * side > 0:
                break
            inner *= 0.5
        else:
            return math.inf
        for _ in range(_MAX_STEPS):
            if slope(outer) * side < 0:
                break
            outer *= 2.0
        else:
            return math.inf
        for _ in range(_MAX_STEPS):
            mid = 0.5 * (inner + outer)
            if mid in (inner, outer):
                break
            if slope(mid) * side > 0:
                inner = mid
            else:
                outer = mid
        lo, hi = min(inner, outer), max(inner, outer)
        width = hi - lo
        best = max(best, min(value(lo) + slope(lo) * width, value(hi) - slope(hi) * width))
    return 2.0 * best


def _mixture_terms(w: MeterWave):
    """Coefficients c, shifts a, and the weights w_ij and means of |w|^2."""
    c = np.array([b.coefficient for b in w.branches], dtype=complex)
    a = np.array([b.shift for b in w.branches], dtype=float)
    i, j = np.triu_indices(len(c))
    weights = np.where(i == j, 1.0, 2.0) * (c[i].conjugate() * c[j]).real
    # as in gram_sums, a distance past double range is an overlap of exactly 0
    with np.errstate(over="ignore"):
        weights *= np.exp(-((a[i] - a[j]) ** 2) / (4.0 * w.config.delta))
    return c, a, weights, 0.5 * (a[i] + a[j])


def _live_gram(w: MeterWave) -> tuple[float, float]:
    n2, moment = _wave_gram(w)
    if n2 <= NORM2_FLOOR:
        raise NoPostselectedEventsError("readout undefined: wave norm is zero")
    return n2, moment


def _readout_chunks(w: MeterWave, n: int, rng: np.random.Generator):
    """Yield ``n`` i.i.d. readouts from |w|^2 / norm2, in chunks of <= _CHUNK.

    With every mixture weight w_ij >= 0 the draws are exact mixture draws:
    multinomial component counts plus normal noise, so within a chunk they
    come grouped by component. A two-branch wave with a complex relative
    phase is split into a real signed wave plus one exact Gaussian. Otherwise
    proposals are accepted with probability f/(M h) under an envelope
    M h >= f: the positive-weight part of the mixture (M = 1), or, for two
    branches, a single widened Gaussian whenever it accepts more. The last
    chunk keeps a uniformly random subset of its accepted draws, never a
    prefix, so the grouping cannot bias it.
    """
    n2, moment = _live_gram(w)
    delta = w.config.delta
    c, a, weights, means = _mixture_terms(w)
    sd = math.sqrt(0.5 * delta)
    positive = weights > 0
    pos_weights, pos_means = weights[positive], means[positive]
    p = pos_weights / pos_weights.sum()

    def mixture(size):
        """Exact draws from the positive-weight part of the mixture."""
        return sd * rng.standard_normal(size) + np.repeat(pos_means, rng.multinomial(size, p))

    if (weights >= 0).all():
        while n > 0:
            size = min(n, _CHUNK)
            yield mixture(size)
            n -= size
        return

    if len(c) == 2 and (cross := c[0].conjugate() * c[1]).imag != 0:
        # up to a global phase c0 = alpha, c1 = -beta e^{i phi} with cos phi > 0:
        # |w|^2 = (alpha G_a0 - beta G_a1)^2 + 2 alpha beta (1 - cos phi) G_a0 G_a1,
        # and the second part is overlap * N((a0 + a1)/2, delta/2)
        real = MeterWave(
            (GaussianBranch(abs(c[0]), a[0]), GaussianBranch(-abs(c[1]), a[1])), w.config
        )
        real_n2 = _wave_gram(real)[0]
        # 2 alpha beta (1 - cos phi) = 2 Im^2 / (|cross| - Re), free of cancellation
        overlap = math.exp(-((a[0] - a[1]) ** 2) / (4.0 * delta))
        extra = 2.0 * cross.imag**2 / (abs(cross) - cross.real) * overlap
        n_real = int(rng.binomial(n, real_n2 / (real_n2 + extra))) if real_n2 > NORM2_FLOOR else 0
        if n_real:
            yield from _readout_chunks(real, n_real, rng)
        n -= n_real
        while n > 0:
            size = min(n, _CHUNK)
            yield 0.5 * (a[0] + a[1]) + sd * rng.standard_normal(size)
            n -= size
        return

    acceptance = n2 / pos_weights.sum()
    envelope = None
    if len(c) == 2:
        mean = moment / n2
        alpha, beta = abs(c[0]), abs(c[1])
        for eps in _ENVELOPE_WIDENINGS:
            log_m = _envelope_log_bound(alpha, beta, a[0], a[1], delta, mean, eps)
            if n2 * math.exp(-log_m) > acceptance:
                acceptance = n2 * math.exp(-log_m)
                envelope = (eps, log_m)
    if envelope is not None:
        eps, log_m = envelope
        slope, offset, _, _, const = _envelope_terms(alpha, beta, a[0], a[1], delta, mean, eps)
        sd_h = sd * math.sqrt(1.0 + eps)
        # 2 k (t - t_a)^2 = (q - q_a)^2 eps / ((1 + eps) delta) has no gap in
        # it, so it keeps its precision when the branches nearly coincide and
        # t varies by less than an ulp over the density
        q_a = a[0] + (a[0] - mean) / eps
        curvature = eps / ((1.0 + eps) * delta)

    while n > 0:
        size = min(_CHUNK, math.ceil(n / acceptance))
        if envelope is None:
            x = mixture(size)
            # f / positive part; normal constants cancel, shift keeps exp finite
            e = (x[:, None] - means) ** 2 / delta
            e -= e[:, positive].min(axis=1, keepdims=True)
            np.exp(-e, out=e)
            ratio = (e @ weights) / (e[:, positive] @ pos_weights)
        else:
            x = mean + sd_h * rng.standard_normal(size)
            ratio = np.expm1(slope * x + offset) ** 2 * np.exp(
                2.0 * const - log_m - curvature * (x - q_a) ** 2
            )
        x = np.compress(rng.random(size) < ratio, x)
        if x.size > n:
            x = x[rng.choice(x.size, n, replace=False)]
        if x.size:
            yield x
            n -= x.size


def _chan_merge(acc, count_b: int, mean_b: float, m2_b: float):
    """Chan's pairwise update of (count, mean, M2) with a second group's statistics."""
    count, mean, m2 = acc
    total = count + count_b
    step = mean_b - mean
    return total, mean + step * count_b / total, m2 + (m2_b + step * step * count * count_b / total)


def _readout_moments(w: MeterWave, n: int, rng: np.random.Generator):
    """(count, mean, M2) of ``n`` i.i.d. readouts from |w|^2 / norm2.

    The statistics have exactly the law they would have if the readouts
    were drawn and summed. With every mixture weight w_ij >= 0 the readouts
    never exist: one multinomial gives the component counts n_k, and each
    component's readouts are N(mu_k, sigma^2), sigma^2 = delta/2, whose
    sample mean ~ N(mu_k, sigma^2/n_k) and within-component sum of squares
    ~ sigma^2 chi^2(n_k - 1) are independent (Cochran's theorem), so the
    cost is O(components) for any ``n``. A signed wave is drawn and reduced
    chunk by chunk. Either way the groups are merged by Chan's update.
    """
    _, _, weights, means = _mixture_terms(w)
    acc = (0, 0.0, 0.0)
    if (weights < 0).any():
        for x in _readout_chunks(w, n, rng):
            x_mean = float(x.mean())
            x -= x_mean
            acc = _chan_merge(acc, x.size, x_mean, float(np.square(x, out=x).sum()))
        return acc
    _live_gram(w)
    counts = rng.multinomial(n, weights / weights.sum())
    live = counts > 0
    k, delta = counts[live], w.config.delta
    sample_means = means[live] + math.sqrt(0.5 * delta) * rng.standard_normal(k.size) / np.sqrt(k)
    # sigma^2 chi^2(k - 1) = 2 sigma^2 Gamma((k - 1)/2); shape 0 (k = 1) gives 0
    sums_of_squares = delta * rng.gamma(0.5 * (k - 1))
    for group in zip(k.tolist(), sample_means.tolist(), sums_of_squares.tolist()):
        acc = _chan_merge(acc, *group)
    return acc


def sample_with_rng(w: MeterWave, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` exact i.i.d. draws from |wave|^2 / norm2 using an existing generator.

    The draws come in a uniformly random order, so any prefix is itself an
    i.i.d. sample.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1")
    draws = np.concatenate(list(_readout_chunks(w, n, rng)))
    rng.shuffle(draws)
    return draws


def sample_pointer_readout(w: MeterWave, n: int, seed: int) -> np.ndarray:
    """``n`` independent projective pointer readouts, deterministic per seed."""
    return sample_with_rng(w, n, np.random.default_rng(seed))

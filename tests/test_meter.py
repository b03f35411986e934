"""Meter algebra vs quadrature, plus readout-sampler checks against the exact CDF."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from weaktrace import (
    GaussianBranch,
    MeterConfig,
    MeterWave,
    NoPostselectedEventsError,
    branch_overlap,
    pointer_first_moment,
    sample_pointer_readout,
    wave_norm2,
    wave_pointer_mean,
)
from weaktrace import meter

import oracles


def make_wave(pairs, delta=1.0):
    return MeterWave(tuple(GaussianBranch(c, s) for c, s in pairs), MeterConfig(delta))


def test_overlap_normalization_and_symmetry():
    assert abs(branch_overlap(0.7, 0.7, 2.3) - 1.0) < 1e-15
    assert branch_overlap(0.1, 0.9, 1.7) == branch_overlap(0.9, 0.1, 1.7)


def test_overlap_closed_form_vs_quadrature():
    # frozen via the quadrature oracle: exp(-1/4)
    assert abs(branch_overlap(0.0, 1.0, 1.0) - 0.7788007830714049) < 1e-12
    for a, b, d in [(0.0, 1.0, 1.0), (-0.6, 1.3, 0.5), (2.0, -2.0, 3.0)]:
        assert abs(branch_overlap(a, b, d) - oracles.quad_overlap(a, b, d)) < 1e-10


def test_overlap_scale_symmetry():
    for g, d in [(0.5, 1.0), (1.2, 0.3)]:
        assert abs(branch_overlap(0, g, d) - branch_overlap(0, 2 * g, 4 * d)) < 1e-15


def test_overlap_rejects_bad_delta():
    with pytest.raises(ValueError):
        branch_overlap(0.0, 1.0, 0.0)
    for delta in (-1.0, float("inf"), float("nan"), 5e-324):
        with pytest.raises(ValueError):
            MeterConfig(delta)


def test_first_moment_examples():
    assert pointer_first_moment(0.0, 0.0, 1.7) == 0.0
    assert abs(pointer_first_moment(0.9, 0.9, 0.4) - 0.9) < 1e-15
    # frozen via the quadrature oracle: 0.5 * exp(-1/4)
    assert abs(pointer_first_moment(0.0, 1.0, 1.0) - 0.38940039153570244) < 1e-12
    for a, b, d in [(0.0, 1.0, 1.0), (-0.4, 0.9, 2.0)]:
        assert abs(pointer_first_moment(a, b, d) - oracles.quad_first_moment(a, b, d)) < 1e-10


def test_single_branch_wave():
    w = make_wave([(1.0, 0.37)])
    assert abs(wave_norm2(w) - 1.0) < 1e-15
    assert abs(wave_pointer_mean(w) - 0.37) < 1e-15


def test_postselected_b_wave_mean_is_half_g():
    # equal coefficients on shifts 0 and g make the mean exactly g/2
    for g in (0.05, 0.3, 1.0, 2.0):
        for delta in (0.25, 1.0, 4.0):
            w = make_wave([(-0.25, 0.0), (-0.25, g)], delta)
            assert abs(wave_pointer_mean(w) - g / 2) < 1e-12


def test_unequal_coefficient_wave_frozen_value():
    w = make_wave([(-0.75, 0.0), (0.25, 1.0)])
    kappa = math.exp(-0.25)
    closed = (1 - 3 * kappa) / (10 - 6 * kappa)
    assert abs(wave_pointer_mean(w) - closed) < 1e-14
    # frozen from the quadrature oracle
    assert abs(wave_pointer_mean(w) - (-0.2508641552563248)) < 1e-12


def test_coincident_branches_merge():
    w = make_wave([(0.4, 0.2), (0.1, 0.2)])
    assert len(w.branches) == 1
    assert abs(w.branches[0].coefficient - 0.5) < 1e-15
    assert make_wave([(0.5, 0.0), (0.25, -0.0)]).branches == (GaussianBranch(0.75, 0.0),)
    # merging is exact: distinct shifts stay distinct however close they are
    near = make_wave([(0.4, 0.2), (0.1, 0.2 + 1e-15)])
    assert len(near.branches) == 2
    assert abs(wave_norm2(near) - wave_norm2(w)) < 1e-15


def test_zero_norm_wave_raises():
    w = make_wave([(0.5, 0.0), (-0.5, 0.0)])
    assert wave_norm2(w) < 1e-30
    with pytest.raises(NoPostselectedEventsError):
        wave_pointer_mean(w)


def test_translation_covariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 7)
        pairs = [
            (complex(rng.standard_normal(), rng.standard_normal()), rng.uniform(-3, 3))
            for _ in range(n)
        ]
        delta = rng.uniform(0.25, 4.0)
        w = make_wave(pairs, delta)
        if wave_norm2(w) < 1e-12:
            continue
        t = rng.uniform(-5, 5)
        shifted = w.translated(t)
        assert abs(wave_norm2(shifted) - wave_norm2(w)) < 1e-12
        assert abs(wave_pointer_mean(shifted) - wave_pointer_mean(w) - t) < 1e-10


def test_quadrature_oracle_agreement():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.integers(1, 7)
        pairs = [
            (complex(rng.standard_normal(), rng.standard_normal()), rng.uniform(-3, 3))
            for _ in range(n)
        ]
        delta = rng.uniform(0.25, 4.0)
        w = make_wave(pairs, delta)
        n2 = wave_norm2(w)
        if n2 < 1e-8:
            continue
        qn2, qmean = oracles.quad_wave_stats(pairs, delta)
        assert abs(n2 - qn2) < 1e-8
        assert abs(wave_pointer_mean(w) - qmean) < 1e-8


def test_sampling_single_gaussian():
    w = make_wave([(1.0, 0.8)], 1.0)
    draws = sample_pointer_readout(w, 100_000, seed=42)
    se = math.sqrt(0.5) / math.sqrt(draws.size)  # density variance delta/2
    assert abs(draws.mean() - 0.8) < 5 * se


def test_sampling_postselected_wave():
    g, delta = 0.3, 1.0
    w = make_wave([(-0.25, 0.0), (-0.25, g)], delta)
    draws = sample_pointer_readout(w, 1_000_000, seed=9)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.15) < 5 * se


def test_sampling_seed_contract():
    w = make_wave([(-0.25, 0.0), (-0.25, 0.5)], 1.0)
    a = sample_pointer_readout(w, 2000, seed=1)
    b = sample_pointer_readout(w, 2000, seed=1)
    c = sample_pointer_readout(w, 2000, seed=2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # different seeds still agree distributionally
    assert abs(a.mean() - c.mean()) < 6 * a.std() / math.sqrt(a.size)


def test_sampling_kolmogorov_smirnov():
    pairs = [(-0.75, 0.0), (0.25, 1.4)]
    delta = 0.8
    w = make_wave(pairs, delta)
    draws = sample_pointer_readout(w, 100_000, seed=12)
    result = stats.kstest(draws, lambda x: oracles.exact_readout_cdf(pairs, delta, x))
    assert result.pvalue > 1e-3


def test_sampling_dipole_limit():
    # equal and opposite branches 1e-14 meter widths apart: |w|^2 is the dipole
    # density (q - mid)^2 N(q; mid, delta/2), so (q - mid)^2 / (delta/2) ~ chi2(3)
    pairs, delta = [(0.5, 0.0), (-0.5, 1e-14)], 1.0
    draws = sample_pointer_readout(make_wave(pairs, delta), 20_000, seed=7)
    scaled = (draws - 0.5e-14) ** 2 / (0.5 * delta)
    assert stats.kstest(scaled, stats.chi2(3).cdf).pvalue > 1e-3


def b_post_d2(g):
    """D2-postselected B-arm meter wave: equal weights, nonnegative mixture."""
    return [(-0.25, 0.0), (-0.25, g)]


def c_post_d2(g):
    """D2-postselected C-arm meter wave (weak value -1/2): negative cross term."""
    return [(-0.75, 0.0), (0.25, g)]


@pytest.mark.parametrize(
    "pairs, delta",
    [(b_post_d2(50.0), 1e-4), (b_post_d2(1e4), 1.0),
     (c_post_d2(1.0), 1.0), (c_post_d2(0.5), 1.0), (c_post_d2(0.01), 1.0),
     ([(1.0, 0.0), (-0.6 + 0.3j, 0.8), (0.4j, 2.0)], 1.0),
     ([(1.0, 0.0), (-cmath.exp(0.01j), 0.001)], 1.0),
     ([(0.75, 0.0), (-0.25 * cmath.exp(1.2j), 0.3)], 1.0),
     (c_post_d2(1e-17), 1.0), ([(0.5, 0.2), (-0.25, math.nextafter(0.2, 1.0))], 1.0)],
    ids=["B-g50-d1e-4", "B-g1e4-d1", "C-g1", "C-g0.5", "C-g0.01", "complex-3",
         "phase-0.01", "phase-1.2", "C-g1e-17", "one-ulp"],
)
def test_sampling_matches_exact_cdf(pairs, delta):
    # separated modes (B) and signed densities (C) against the erf closed form;
    # complex phases over three branches take the positive-part envelope, two
    # branches with a complex relative phase a real signed part plus a Gaussian;
    # signed branches 1e-17 meter widths or one ulp apart stay two branches
    draws = sample_pointer_readout(make_wave(pairs, delta), 100_000, seed=31)
    result = stats.kstest(draws, lambda x: oracles.exact_readout_cdf(pairs, delta, x))
    assert result.pvalue > 1e-3


def test_sampling_order_is_random():
    # two separated modes of equal weight: any prefix must hit both evenly
    draws = sample_pointer_readout(make_wave(b_post_d2(50.0), 1e-4), 10_000, seed=4)
    upper = np.mean(draws[:1000] > 25.0)
    assert abs(upper - 0.5) < 5 * math.sqrt(0.25 / 1000)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(1e-3, 1.0),
    beta=st.floats(1e-3, 1.0),
    separation=st.floats(1e-4, 50.0),
    delta=st.floats(1e-6, 1e4),
    eps=st.sampled_from(meter._ENVELOPE_WIDENINGS),
    extra=st.lists(st.floats(-1e4, 1e4), max_size=20),
)
def test_envelope_bound_dominates_density(alpha, beta, separation, delta, eps, extra):
    # f = (alpha G_0 - beta G_g)^2 <= M N(mean, (delta/2)(1 + eps)) at every q
    g = separation * math.sqrt(delta)
    n2, moment = oracles.gaussian_gram([(alpha, 0.0), (-beta, g)], delta)
    mean = moment / n2
    log_m = meter._envelope_log_bound(alpha, beta, 0.0, g, delta, mean, eps)
    var = 0.5 * delta * (1.0 + eps)
    # f/h can peak far out in h's tail: offsets up to 1e4 standard deviations
    far = np.geomspace(60.0, 1e4, 2000)
    offsets = np.concatenate([-far, np.linspace(-60.0, 60.0, 4001), far, extra])
    q = mean + math.sqrt(var) * offsets
    # log |alpha G_0 - beta G_g| from the larger branch, free of cancellation
    l0 = math.log(alpha) - q**2 / (2.0 * delta)
    l1 = math.log(beta) - (q - g) ** 2 / (2.0 * delta)
    with np.errstate(divide="ignore"):
        log_f = 2.0 * (np.maximum(l0, l1) + np.log(-np.expm1(-np.abs(l0 - l1))))
    log_f -= 0.5 * math.log(math.pi * delta)
    log_h = -((q - mean) ** 2) / (2.0 * var) - 0.5 * math.log(2.0 * math.pi * var)
    assert np.all(log_f <= log_m + log_h + 1e-12)


def a_post_d2(g):
    """D2-postselected A-arm meter wave: a single Gaussian at shift g."""
    return [(0.5, g)]


def test_readout_moments_single_component_law():
    # one Gaussian: sqrt(n)(mean - mu)/sigma ~ N(0, 1) and M2/sigma^2 ~ chi2(n - 1)
    g, delta, n = 1.0, 1.0, 10
    w = make_wave(a_post_d2(g), delta)
    sigma = math.sqrt(delta / 2.0)
    moments = [meter._readout_moments(w, n, np.random.default_rng(s)) for s in range(2000)]
    assert all(count == n for count, _, _ in moments)
    z = [(mean - g) * math.sqrt(n) / sigma for _, mean, _ in moments]
    chi2 = [m2 / sigma**2 for _, _, m2 in moments]
    assert stats.kstest(z, "norm").pvalue > 1e-3
    assert stats.kstest(chi2, stats.chi2(n - 1).cdf).pvalue > 1e-3


@pytest.mark.parametrize(
    "pairs, delta", [(b_post_d2(1.0), 1.0), (b_post_d2(50.0), 1e-4)], ids=["B-g1", "B-g50-d1e-4"]
)
def test_readout_moments_match_materialised_draws(pairs, delta):
    # (mean, M2) drawn per component against the same statistics of real draws
    n = 10
    w = make_wave(pairs, delta)
    drawn = np.array([meter._readout_moments(w, n, np.random.default_rng(s))[1:]
                      for s in range(2000)])
    direct = []
    for s in range(2000):
        x = meter.sample_with_rng(w, n, np.random.default_rng(10**6 + s))
        direct.append((x.mean(), np.sum((x - x.mean()) ** 2)))
    direct = np.array(direct)
    for column in range(2):
        assert stats.ks_2samp(drawn[:, column], direct[:, column]).pvalue > 1e-3


@pytest.mark.parametrize(
    "pairs, delta", [(a_post_d2(1.0), 1.0), (b_post_d2(1.0), 1.0), (b_post_d2(50.0), 1e-4)]
)
def test_readout_moments_single_draw(pairs, delta):
    for seed in range(20):
        count, mean, m2 = meter._readout_moments(
            make_wave(pairs, delta), 1, np.random.default_rng(seed)
        )
        assert count == 1 and math.isfinite(mean) and m2 == 0.0


def test_readout_moments_zero_norm_raises():
    with pytest.raises(NoPostselectedEventsError):
        meter._readout_moments(make_wave([(0.5, 0.0), (-0.5, 0.0)]), 10, np.random.default_rng(0))

"""Vibrating-mirror traces, spectra and the line tables of both readout modes."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ive

import oracles

from weaktrace import (
    DETECTORS,
    BeamSplitter,
    Circuit,
    Mirror,
    MirrorSchedule,
    default_schedule,
    power_spectrum,
    simulate_traces,
    sinusoid_amplitude,
)
from weaktrace import danan

DELTA = 1.0
RATE = 256.0
DURATION = 1.0


def test_all_mirrors_disabled_flat():
    # a schedule holds only the mirrors that vibrate: empty is the undisturbed run
    schedule = MirrorSchedule(())
    assert default_schedule(1e-2, enabled=()) == schedule
    trace = simulate_traces(schedule, DURATION, RATE, DELTA)
    for key in ("D1_mean", "D2_mean", "D3_mean", "outer_mean"):
        assert np.all(trace.series[key] == 0.0)
        _, power = trace.spectra[key]
        assert np.all(power == 0.0)
    np.testing.assert_allclose(trace.series["D3_prob"], 0.5, atol=1e-12)


def test_three_mirror_traces_match_dense_oracle():
    # large, unequal couplings on one shared pointer: far from the weak
    # regime, every sample is a three-path Gram sum at each outer port
    delta = 0.5
    schedule = MirrorSchedule((
        Mirror("M1", "A", 3.0, 0.8), Mirror("M2", "B", 5.0, -0.5), Mirror("M3", "C", 7.0, 1.3),
    ))
    trace = simulate_traces(schedule, 1.0, 64.0, delta)
    couplings = {
        m.arm: m.amplitude * np.sin(2 * np.pi * m.frequency * trace.times)
        for m in schedule.mirrors
    }
    outer_prob = outer_moment = 0.0
    for det in ("D1", "D2", "D3"):
        terms = [(oracles.projected_amplitude(arm, det), g) for arm, g in couplings.items()]
        prob, moment = oracles.gaussian_gram(terms, delta)
        np.testing.assert_allclose(trace.series[f"{det}_prob"], prob, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.series[f"{det}_mean"], moment / prob, rtol=0, atol=1e-12)
        if det != "D3":
            outer_prob, outer_moment = outer_prob + prob, outer_moment + moment
    np.testing.assert_allclose(trace.series["outer_prob"], outer_prob, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        trace.series["outer_mean"], outer_moment / outer_prob, rtol=0, atol=1e-12
    )


def test_m2_only_d3_signal_exact():
    g0, f2 = 1e-2, 5.0
    schedule = default_schedule(g0, enabled=("M2",))
    trace = simulate_traces(schedule, DURATION, RATE, DELTA)
    expected = 0.5 * g0 * np.sin(2 * np.pi * f2 * trace.times)
    np.testing.assert_allclose(trace.series["D3_mean"], expected, atol=1e-12)
    # single spectral line at f2
    amp = sinusoid_amplitude(trace.series["D3_mean"], RATE, f2)
    assert amp == pytest.approx(g0 / 2, rel=1e-9)
    freqs, power = trace.spectra["D3_mean"]
    others = power[(freqs != f2)]
    assert np.max(others) < 1e-12 * np.max(power)


def test_m2_only_spectrum_normalization():
    g0, f2 = 1e-2, 5.0
    schedule = default_schedule(g0, enabled=("M2",))
    trace = simulate_traces(schedule, DURATION, RATE, DELTA)
    freqs, power = trace.spectra["D3_mean"]
    n = trace.times.size
    peak = power[freqs == f2][0]
    assert peak == pytest.approx((g0 / 2) ** 2 * n**2 / 4.0, rel=1e-9)


def test_weak_value_mode_peak_ratios():
    trace = simulate_traces(default_schedule(1e-2), DURATION, RATE, DELTA)
    peaks = trace.lines["D2_mean"]
    assert set(peaks) == {"M1", "M2", "M3"}
    assert peaks["M1"] / peaks["M2"] == pytest.approx(2.0, rel=0.02)
    assert peaks["M1"] / peaks["M3"] == pytest.approx(2.0, rel=0.02)


def test_mean_mode_m2_only_all_signal_at_d3():
    g0 = 1e-2
    trace = simulate_traces(default_schedule(g0, enabled=("M2",)), DURATION, RATE, DELTA)
    assert set(trace.lines["D3_mean"]) == {"M2"}
    assert trace.lines["D3_mean"]["M2"] == pytest.approx(g0 / 2, rel=1e-9)
    # the weak-value readout at D2 still shows the f2 line, as in the
    # postselected experiment
    assert trace.lines["D2_mean"]["M2"] == pytest.approx(g0 / 2, rel=0.01)
    # pooled outer output: nothing above the quadratic floor
    assert trace.lines["outer_mean"] == {}
    outer_amp = sinusoid_amplitude(trace.series["outer_mean"], RATE, 5.0)
    assert outer_amp < g0**2
    # the per-port conditional means do show the interference line ~ g0/2
    assert trace.lines["D1_mean"]["M2"] == pytest.approx(g0 / 2, rel=0.01)


def test_two_mirrors_on_one_arm_are_two_columns():
    # kicks are coupling columns, not arms: each mirror on B keeps its own line
    p, q = Mirror("P", "B", 3.0, 1e-2), Mirror("Q", "B", 5.0, 1e-2)
    both = simulate_traces(MirrorSchedule((p, q)), DURATION, RATE, DELTA)
    for mirror in (p, q):
        alone = simulate_traces(MirrorSchedule((mirror,)), DURATION, RATE, DELTA)
        for key in ("D2_mean", "D3_mean"):
            line = alone.lines[key][mirror.name]
            assert both.lines[key][mirror.name] == pytest.approx(line, rel=1e-3)


def test_mean_mode_m1_signal_at_outer_not_d3():
    g0, f1 = 1e-2, 3.0
    trace = simulate_traces(default_schedule(g0, enabled=("M1",)), DURATION, RATE, DELTA)
    assert trace.lines["outer_mean"]["M1"] == pytest.approx(g0, rel=1e-9)
    assert trace.lines["D3_mean"] == {}
    assert np.max(np.abs(trace.series["D3_mean"])) < 1e-12


def test_linearity_peaks_scale_with_g0():
    base = simulate_traces(default_schedule(1e-2), DURATION, RATE, DELTA)
    half = simulate_traces(default_schedule(5e-3), DURATION, RATE, DELTA)
    for series in ("D2_mean", "D3_mean"):
        for mirror, amp in base.lines[series].items():
            assert half.lines[series][mirror] == pytest.approx(amp / 2, rel=0.01)


def test_mode_compare_all_off_empty_tables():
    trace = simulate_traces(default_schedule(1e-2, enabled=()), DURATION, RATE, DELTA)
    assert trace.lines == {"D1_mean": {}, "D2_mean": {}, "D3_mean": {}, "outer_mean": {}}


@pytest.mark.parametrize("g0", [0.5, 1.0])
def test_line_floor_separates_lines_up_to_g0_1(g0):
    # present lines scale as g0 Re(w), absent ones as g0^3; at g0 = 1 D1's
    # M2 line (0.215) is below g0^2 / (4 g0) = 0.25 but above g0 / 8
    trace = simulate_traces(default_schedule(g0), DURATION, 64.0, DELTA)
    assert trace.floor == pytest.approx(g0 / 8, rel=1e-15)
    assert set(trace.lines["D2_mean"]) == {"M1", "M2", "M3"}
    assert set(trace.lines["D1_mean"]) == {"M1", "M2", "M3"}
    assert set(trace.lines["D3_mean"]) == {"M2", "M3"}
    assert set(trace.lines["outer_mean"]) == {"M1"}
    # D3's mean-mode lines are g0/2 exactly at every g0
    for amp in trace.lines["D3_mean"].values():
        assert amp == pytest.approx(g0 / 2, rel=1e-9)


@pytest.mark.parametrize("g0, delta, k", [
    (0.5, 1.0, -10), (0.5, 1.0, 10), (0.005, 1e-4, -3), (1.0, 0.5, 60), (0.02, 3.0, -60),
])
def test_line_tables_scale_covariant(g0, delta, k):
    # the lines depend on (g0, delta) only through g0/sqrt(delta), up to a
    # factor g0, so (2^k g0, 4^k delta) lists the same lines 2^k times as large
    base = simulate_traces(default_schedule(g0), DURATION, 64.0, delta)
    scaled = simulate_traces(
        default_schedule(math.ldexp(g0, k)), DURATION, 64.0, math.ldexp(delta, 2 * k)
    )
    assert scaled.floor == math.ldexp(base.floor, k)
    assert scaled.lines == {
        series: {name: math.ldexp(amp, k) for name, amp in lines.items()}
        for series, lines in base.lines.items()
    }


@settings(max_examples=80, deadline=None)
@given(arm=st.sampled_from("ABC"), detector=st.sampled_from(DETECTORS), f=st.integers(1, 7),
       ratio=st.floats(0.0, 10.0), delta=st.floats(0.25, 4.0))
# a subnormal series, whose 1e-13 bound alone is below the smallest subnormal
@example(arm="B", detector="D1", f=1, ratio=2.225073858507e-311, delta=0.25)
def test_single_mirror_lines_match_bessel_oracle(arm, detector, f, ratio, delta):
    g0, rate = ratio * math.sqrt(delta), 256.0
    # harmonic orders from k0 on reach Nyquist and would alias onto the lines
    k0 = math.ceil((rate / (2 * f) - 1) / 2)
    assume(ive(k0, g0 * g0 / (8 * delta)) < 1e-16)
    schedule = MirrorSchedule((Mirror("M", arm, float(f), g0),))
    trace = simulate_traces(schedule, DURATION, rate, delta)
    prob = trace.series[f"{detector}_prob"]
    moment = prob * trace.series[f"{detector}_mean"]
    prob_lines, moment_lines = oracles.mirror_lines(arm, detector, g0, delta, f, rate)
    for series, lines in ((prob, prob_lines), (moment, moment_lines)):
        scale = np.abs(series).max()
        # one ulp of the scale is the finest step a subnormal series resolves;
        # for a normal-range series it is about 2.2e-16 scale, inside 1e-13 scale
        bound = max(1e-13 * scale, math.ulp(scale))
        for frequency, amplitude in lines.items():
            line = sinusoid_amplitude(series, rate, frequency)
            assert abs(line - amplitude) <= bound


@settings(max_examples=60, deadline=None)
@given(enabled=st.lists(st.sampled_from(("M1", "M2", "M3")), unique=True, max_size=3),
       freqs=st.lists(st.integers(1, 7), min_size=3, max_size=3, unique=True),
       rate=st.integers(16, 128), g0=st.floats(1e-200, 100.0), negative=st.booleans(),
       delta=st.floats(1e-4, 1e4))
@example(enabled=[], freqs=[3, 5, 7], rate=16, g0=1e-2, negative=False, delta=1.0)
@example(enabled=["M1", "M2", "M3"], freqs=[3, 5, 7], rate=64, g0=0.5, negative=True, delta=1.0)
def test_one_transform_per_series_gives_spectra_and_lines(enabled, freqs, rate, g0, negative,
                                                          delta):
    # every f <= 7 is an interior bin of a one-unit run at rate >= 16
    schedule = default_schedule(-g0 if negative else g0, tuple(map(float, freqs)),
                                tuple(enabled))
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
        trace = simulate_traces(schedule, DURATION, float(rate), delta)
    assert rfft.call_count == 8
    g0_max = g0 if enabled else 0.0
    assert trace.floor == g0_max * min(g0_max / math.sqrt(delta), 0.125)
    bins = np.fft.rfftfreq(rate, 1.0 / rate)
    for key, (f, power) in trace.spectra.items():
        assert f is trace.spectra["D1_mean"][0]
        assert np.array_equal(power, power_spectrum(trace.series[key], rate)[1])
    assert np.array_equal(trace.spectra["D1_mean"][0], bins)
    assert list(trace.lines) == ["D1_mean", "D2_mean", "D3_mean", "outer_mean"]
    for key, lines in trace.lines.items():
        for m in schedule.mirrors:
            amp = sinusoid_amplitude(trace.series[key], rate, m.frequency)
            if m.name in lines:
                assert lines[m.name] == amp
            else:
                assert amp <= trace.floor


def test_power_spectrum_pure_and_mixed_sinusoids():
    rate, n = 64.0, 256
    t = np.arange(n) / rate
    single = np.sin(2 * np.pi * 4.0 * t)
    freqs, power = power_spectrum(single, rate)
    assert np.argmax(power) == np.where(freqs == 4.0)[0][0]
    assert np.sum(power > 1e-9 * power.max()) == 1

    double = 2.0 * np.sin(2 * np.pi * 4.0 * t) + np.sin(2 * np.pi * 10.0 * t)
    freqs, power = power_spectrum(double, rate)
    p4 = power[freqs == 4.0][0]
    p10 = power[freqs == 10.0][0]
    assert p4 / p10 == pytest.approx(4.0, rel=1e-9)


def test_power_spectrum_too_short():
    with pytest.raises(ValueError):
        power_spectrum(np.ones(8), 16.0)
    with pytest.raises(ValueError, match="too short"):
        sinusoid_amplitude(np.ones(8), 8.0, 1.0)


def test_power_spectrum_out_of_double_range():
    # |rfft|^2 of a 1e300 sinusoid overflows: rejected, never inf and never a warning
    t = np.arange(64) / 64.0
    with pytest.raises(ValueError, match="double range"):
        power_spectrum(1e300 * np.sin(2 * np.pi * 3 * t), 64.0)
    with pytest.raises(ValueError, match="double range"):
        power_spectrum(np.full(16, np.inf), 16.0)
    with pytest.raises(ValueError, match="double range"):
        sinusoid_amplitude(np.full(16, np.inf), 16.0, 3.0)
    for g in (1e160, 1e300, 1.7e308):
        with pytest.raises(ValueError, match="double range"):
            simulate_traces(default_schedule(g), DURATION, RATE, DELTA)
    # every spectrum is checked before any mirror frequency is checked against the bins
    with pytest.raises(ValueError, match="double range"):
        simulate_traces(default_schedule(1e300, (3.5, 5.0, 7.0)), DURATION, 64.0, DELTA)
    with pytest.raises(ValueError, match="frequency 3.5 is not an interior DFT bin"):
        simulate_traces(default_schedule(1e-2, (3.5, 5.0, 7.0)), DURATION, 64.0, DELTA)


def test_sample_count_rejected_before_allocation(monkeypatch):
    # an infinite, NaN or oversized sample count is rejected before any array of
    # that length exists: the time grid is the first allocation of length n
    def no_allocation(*args, **kwargs):
        raise AssertionError("a sample grid was allocated")

    monkeypatch.setattr(danan.np, "arange", no_allocation)
    schedule = default_schedule(1e-2)
    for duration, rate in ((float("inf"), RATE), (1e308, 1e308), (1.0, 1e12),
                           (float("nan"), RATE), (1.0, danan.MAX_SAMPLES + 1.0)):
        with pytest.raises(ValueError, match="at most"):
            simulate_traces(schedule, duration, rate, DELTA)


def test_default_schedule_checks_its_arguments():
    for freqs in ((3.0, 5.0), (3.0, 5.0, 7.0, 9.0)):
        with pytest.raises(ValueError, match="three frequencies"):
            default_schedule(1e-2, freqs)
    with pytest.raises(ValueError, match="unknown mirror 'M4'"):
        default_schedule(1e-2, enabled=("M4",))
    # every mirror is checked, the ones that do not vibrate too
    with pytest.raises(ValueError, match="M1"):
        default_schedule(1e-2, (-3.0, 5.0, 7.0), enabled=("M2",))
    # a repeated name would run one mirror and report it as if it were two
    with pytest.raises(ValueError, match="pairwise distinct"):
        default_schedule(1e-2, enabled=("M1", "M1"))
    schedule = default_schedule(1e-2, enabled=("M3", "M2"))
    assert schedule.mirrors == (Mirror("M2", "B", 5.0, 1e-2), Mirror("M3", "C", 7.0, 1e-2))


def test_simulate_traces_validation():
    schedule = default_schedule(1e-2)
    with pytest.raises(ValueError):
        simulate_traces(schedule, DURATION, 10.0, DELTA)  # Nyquist: max f is 7
    with pytest.raises(ValueError):
        simulate_traces(schedule, 0.03, RATE, DELTA)  # fewer than 16 samples
    with pytest.raises(ValueError):
        simulate_traces(schedule, 1.0 + 1e-4, RATE, DELTA)  # non-integer sample count
    # a plain two-stage MZI has the mirror arms B and C but no D3, whose
    # series would otherwise read zero as if no photon ever arrived there
    balanced = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    two_stage = Circuit((
        BeamSplitter(1, ("N", "N0"), ("C", "B"), balanced),
        BeamSplitter(2, ("B", "C"), ("D1", "D2"), balanced),
    ))
    with pytest.raises(ValueError, match="D3"):
        simulate_traces(default_schedule(1e-2, enabled=("M2", "M3")), DURATION, RATE, DELTA,
                        circuit=two_stage)
    with pytest.raises(ValueError):
        MirrorSchedule((
            Mirror("M1", "A", 5.0, 1e-2), Mirror("M2", "B", 5.0, 1e-2),
        ))  # duplicate frequencies
    with pytest.raises(ValueError, match="names"):
        # the line tables are keyed by name, so one of these lines would be lost
        MirrorSchedule((
            Mirror("M", "A", 3.0, 1e-2), Mirror("M", "B", 5.0, 1e-2),
        ))
    with pytest.raises(ValueError):
        Mirror("M1", "E", 5.0, 1e-2)  # mirrors sit in A, B or C only
    for frequency, amplitude in ((5.0, float("nan")), (5.0, float("inf")),
                                 (float("nan"), 1e-2), (float("inf"), 1e-2)):
        with pytest.raises(ValueError):
            Mirror("M1", "A", frequency, amplitude)


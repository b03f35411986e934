"""Vibrating-mirror realization: frequency-multiplexed weak traces.

Mirrors M1 (arm A), M2 (arm B) and M3 (arm C) oscillate at distinct
frequencies and all kick the same transverse-deviation pointer, so the
coupling on arm i at time t is g_i(t) = g0 * sin(2 pi f_i t). Sampling is
quasi-static (photon transit is instantaneous on the vibration timescale),
so each time sample is an independent static setup with its own coupling
vector. The layout is the same at every sample, so the interferometer is
compiled once into a path sum and all samples are evaluated as one batch
of coupling vectors; per detector the arrival probability and the
conditional pointer mean are recorded, and power spectra identify which
mirror frequencies show up where.

Two readout modes are compared. Weak-value mode reads the conditional
pointer mean at D2: every enabled mirror leaves a line there, with
amplitude g0 * Re(weak value). Mean-value mode reads detectors without
postselecting inside an interferometer output: the inner-arm traces (f2,
f3) appear at D3 with amplitude g0/2 exactly, while the pooled outer
output (D1 and D2 together, one non-differential detector spanning the
outer region) carries no inner-arm line at linear order. The two outer
ports taken *separately* do each show an f2 line of size ~g0/2 with
opposite signs - a BS4 interference effect fed by the measurement-induced
dark-port leakage - which is why the pooled series, not the per-port
ones, is the mean-mode outer readout; the per-port peaks stay available
as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import MeterAttachment, PathSum
from .meter import NORM2_FLOOR, MeterConfig
from .paths import DETECTORS, Circuit, PhotonState, build_nested_mzi

#: Pooled outer-port pseudo-detector name used in series keys.
OUTER = "outer"

_MIRROR_ARMS = {"M1": "A", "M2": "B", "M3": "C"}


@dataclass(frozen=True)
class Mirror:
    """One vibrating mirror: which arm it kicks, how fast, how hard."""

    name: str
    arm: str
    frequency: float
    amplitude: float
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.arm not in ("A", "B", "C"):
            raise ValueError(f"mirror {self.name}: arm must be A, B or C, got {self.arm!r}")
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(f"mirror {self.name}: frequency must be positive and finite")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"mirror {self.name}: amplitude must be finite")


@dataclass(frozen=True)
class MirrorSchedule:
    mirrors: tuple[Mirror, ...]

    def __post_init__(self) -> None:
        if not self.mirrors:
            raise ValueError("empty schedule: no mirrors defined")
        freqs = [m.frequency for m in self.enabled()]
        if len(set(freqs)) != len(freqs):
            raise ValueError("enabled mirror frequencies must be pairwise distinct")

    def enabled(self) -> tuple[Mirror, ...]:
        return tuple(m for m in self.mirrors if m.enabled)


def default_schedule(
    g0: float = 1e-2,
    frequencies: tuple[float, float, float] = (3.0, 5.0, 7.0),
    enabled: tuple[str, ...] = ("M1", "M2", "M3"),
) -> MirrorSchedule:
    """M1/M2/M3 on arms A/B/C at bin-friendly integer frequencies."""
    return MirrorSchedule(tuple(
        Mirror(name, _MIRROR_ARMS[name], f, g0, enabled=name in enabled)
        for name, f in zip(("M1", "M2", "M3"), frequencies)
    ))


@dataclass(frozen=True)
class TraceResult:
    """Time-sampled detector signals plus their power spectra.

    ``series`` maps "<det>_mean" / "<det>_prob" (det in D1, D2, D3, outer)
    to arrays over the time grid; ``spectra`` maps the same keys to
    (frequency, power) pairs from the one-sided periodogram.
    """

    times: np.ndarray
    sample_rate: float
    series: dict[str, np.ndarray]
    spectra: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def power_spectrum(series, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided discrete power spectrum |rfft|^2 with a rectangular window.

    Run durations are chosen bin-aligned (integer cycles of every vibration
    frequency), so rectangular windowing is leakage-free and a sinusoid of
    amplitude a lands in a single bin with power (a*n/2)^2.
    """
    x = np.asarray(series, dtype=float)
    if x.size < 16:
        raise ValueError(f"series too short for a spectrum: {x.size} < 16 samples")
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / sample_rate)
    return freqs, power


def sinusoid_amplitude(series, sample_rate: float, frequency: float) -> float:
    """Amplitude of the bin-aligned sinusoidal component at ``frequency``."""
    x = np.asarray(series, dtype=float)
    bin_index = frequency * x.size / sample_rate
    k = round(bin_index)
    if abs(bin_index - k) > 1e-9 or not 0 < k < x.size / 2:
        raise ValueError(f"frequency {frequency} is not an interior DFT bin")
    return 2.0 * abs(np.fft.rfft(x)[k]) / x.size


def simulate_traces(
    schedule: MirrorSchedule,
    duration: float,
    sample_rate: float,
    delta: float,
    circuit: Circuit | None = None,
) -> TraceResult:
    """Quasi-static run of the vibrating-mirror setup.

    At each sample the enabled mirrors set couplings g_i(t) on their arms,
    all feeding one shared pointer; one batched evaluation of the compiled
    path sum then yields, per detector and sample, the arrival probability
    and conditional pointer mean, plus the pooled outer-port pair of series.
    """
    circuit = build_nested_mzi() if circuit is None else circuit
    mirrors = schedule.enabled()
    if mirrors and sample_rate <= 2.0 * max(m.frequency for m in mirrors):
        raise ValueError("sample rate violates Nyquist for the fastest enabled mirror")
    n_float = duration * sample_rate
    n = round(n_float)
    if abs(n_float - n) > 1e-9 or n < 16:
        raise ValueError("duration * sample_rate must be an integer of at least 16")
    times = np.arange(n) / sample_rate
    config = MeterConfig(delta)
    layout = [MeterAttachment("y", m.arm, m.amplitude, config) for m in mirrors]
    paths = PathSum.compile(circuit, PhotonState.source(), layout)
    couplings = np.array(
        [m.amplitude * np.sin(2.0 * np.pi * m.frequency * times) for m in mirrors]
    ).reshape(len(mirrors), n).T
    stats = paths.statistics(couplings, DETECTORS)

    series = {}
    outer_prob = np.zeros(n)
    outer_moment = np.zeros(n)
    for det in DETECTORS:
        prob, moment = stats[det]
        seen = prob > NORM2_FLOOR
        moment = np.where(seen, moment[:, 0], 0.0) if mirrors else np.zeros(n)
        series[f"{det}_mean"] = np.divide(moment, prob, out=np.zeros(n), where=seen)
        series[f"{det}_prob"] = prob
        if det != "D3":
            outer_prob += prob
            outer_moment += moment
    series[f"{OUTER}_mean"] = np.divide(
        outer_moment, outer_prob, out=np.zeros(n), where=outer_prob > NORM2_FLOOR
    )
    series[f"{OUTER}_prob"] = outer_prob

    spectra = {k: power_spectrum(v, sample_rate) for k, v in series.items()}
    return TraceResult(times, sample_rate, series, spectra)


@dataclass(frozen=True)
class ModeComparison:
    """Side-by-side peak tables for the two readout modes.

    Peak tables map series name to {mirror name: amplitude}; only peaks
    above ``floor`` (the quadratic-response scale g0_max^2) are listed, so
    with all mirrors off every table is empty. ``per_port_mean_peaks``
    exposes the D1/D2 per-port conditional means separately; their
    equal-and-opposite inner-arm lines are interference diagnostics, not
    part of the mean-mode readout.
    """

    g0_max: float
    floor: float
    weak_value_peaks: dict[str, float]  # D2 conditional mean, per mirror
    mean_mode_peaks: dict[str, dict[str, float]]  # D3_mean and outer_mean series
    per_port_mean_peaks: dict[str, dict[str, float]]  # D1_mean / D2_mean diagnostics
    trace: TraceResult


def _peaks_above(series, sample_rate, mirrors, floor) -> dict[str, float]:
    peaks = {}
    for m in mirrors:
        amp = sinusoid_amplitude(series, sample_rate, m.frequency)
        if amp > floor:
            peaks[m.name] = amp
    return peaks


def readout_mode_compare(
    schedule: MirrorSchedule,
    duration: float,
    sample_rate: float,
    delta: float,
    circuit: Circuit | None = None,
) -> ModeComparison:
    """Weak-value readout (D2 line spectrum) vs mean-value readout (D3 + pooled outer)."""
    trace = simulate_traces(schedule, duration, sample_rate, delta, circuit)
    mirrors = schedule.enabled()
    g0_max = max((abs(m.amplitude) for m in mirrors), default=0.0)
    floor = g0_max**2
    weak_value_peaks = _peaks_above(trace.series["D2_mean"], sample_rate, mirrors, floor)
    mean_mode_peaks = {
        key: _peaks_above(trace.series[key], sample_rate, mirrors, floor)
        for key in ("D3_mean", f"{OUTER}_mean")
    }
    per_port = {
        key: _peaks_above(trace.series[key], sample_rate, mirrors, floor)
        for key in ("D1_mean", "D2_mean")
    }
    return ModeComparison(g0_max, floor, weak_value_peaks, mean_mode_peaks, per_port, trace)

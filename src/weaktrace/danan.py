"""Vibrating-mirror realization: frequency-multiplexed weak traces.

Mirrors M1 (arm A), M2 (arm B) and M3 (arm C) oscillate at distinct
frequencies and all kick the same transverse-deviation pointer, so the
coupling on arm i at time t is g_i(t) = g0 * sin(2 pi f_i t). Sampling is
quasi-static (photon transit is instantaneous on the vibration timescale),
so each time sample is an independent static setup with its own coupling
vector. The layout is the same at every sample, so the interferometer is
compiled once into a path sum and all samples are evaluated as one batch
of coupling vectors; per detector the arrival probability and the
conditional pointer mean are recorded. One rfft per series gives its
power spectrum and, for the conditional means, the line of every mirror
frequency, so the trace itself says which mirrors show up where.

Two readout modes are compared. Weak-value mode reads the conditional
pointer mean at D2: every vibrating mirror leaves a line there, with
amplitude g0 * Re(weak value). Mean-value mode reads detectors without
postselecting inside an interferometer output: the inner-arm traces (f2,
f3) appear at D3 with amplitude g0/2 exactly, while the pooled outer
output (D1 and D2 together, one non-differential detector spanning the
outer region) carries no inner-arm line at linear order. The two outer
ports taken *separately* do each show an f2 line of size ~g0/2 with
opposite signs - a BS4 interference effect fed by the measurement-induced
dark-port leakage - which is why the pooled series, not the per-port
ones, is the mean-mode outer readout. ``TraceResult.lines`` holds one line
table per conditional-mean series; a readout picks its series from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import PathSum
from .meter import NORM2_FLOOR, MeterConfig
from .paths import DETECTORS, NESTED_MZI, Circuit, PhotonState

#: Pooled outer-port pseudo-detector name used in series keys.
OUTER = "outer"

_MIRROR_ARMS = {"M1": "A", "M2": "B", "M3": "C"}

#: Largest sample count ``simulate_traces`` accepts. Its arrays take about
#: 220 bytes per sample, so the cap stays near 4 GB, and a larger count is
#: rejected before anything is allocated.
MAX_SAMPLES = 1 << 24


@dataclass(frozen=True)
class Mirror:
    """One vibrating mirror: which arm it kicks, how fast, how hard."""

    name: str
    arm: str
    frequency: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.arm not in ("A", "B", "C"):
            raise ValueError(f"mirror {self.name}: arm must be A, B or C, got {self.arm!r}")
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(f"mirror {self.name}: frequency must be positive and finite")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"mirror {self.name}: amplitude must be finite")


@dataclass(frozen=True)
class MirrorSchedule:
    """The mirrors that vibrate; an empty schedule is the undisturbed run."""

    mirrors: tuple[Mirror, ...]

    def __post_init__(self) -> None:
        freqs = [m.frequency for m in self.mirrors]
        if len(set(freqs)) != len(freqs):
            raise ValueError("enabled mirror frequencies must be pairwise distinct")
        names = [m.name for m in self.mirrors]
        if len(set(names)) != len(names):
            raise ValueError("mirror names must be pairwise distinct")


def default_schedule(
    g0: float = 1e-2,
    frequencies: tuple[float, float, float] = (3.0, 5.0, 7.0),
    enabled: tuple[str, ...] = ("M1", "M2", "M3"),
) -> MirrorSchedule:
    """M1/M2/M3 on arms A/B/C at bin-friendly integer frequencies.

    All three mirrors are built and checked, and only those named in
    ``enabled`` are kept. A frequency count other than three, an unknown
    name or a repeated one raises ValueError.
    """
    if len(frequencies) != 3:
        raise ValueError(f"need exactly three frequencies (M1, M2, M3), got {len(frequencies)}")
    for name in enabled:
        if name not in _MIRROR_ARMS:
            raise ValueError(f"unknown mirror {name!r}; expected M1, M2 or M3")
    if len(set(enabled)) != len(enabled):
        raise ValueError(f"mirror names must be pairwise distinct, got {','.join(enabled)}")
    mirrors = [Mirror(name, arm, f, g0)
               for (name, arm), f in zip(_MIRROR_ARMS.items(), frequencies)]
    return MirrorSchedule(tuple(m for m in mirrors if m.name in enabled))


@dataclass(frozen=True)
class TraceResult:
    """Time-sampled detector signals, their power spectra and their line tables.

    ``series`` maps "<det>_mean" / "<det>_prob" (det in D1, D2, D3, outer)
    to arrays over the time grid; ``spectra`` maps the same keys to
    (frequency, power) pairs from the one-sided periodogram, all sharing one
    frequency array.

    ``lines`` maps D1_mean, D2_mean, D3_mean and outer_mean to {mirror
    name: amplitude}. Weak-value mode reads D2_mean; mean-value mode reads
    D3_mean and the pooled outer_mean. The per-port D1_mean and D2_mean
    lines of the inner arms are equal and opposite: interference
    diagnostics, not part of the mean-mode readout. Only lines above
    ``floor`` = g0_max min(g0_max/sqrt(delta), 1/8), with g0_max the largest
    |amplitude| of the schedule, are listed, so with no mirror vibrating
    every table is empty. The lines depend on g0 and delta only through
    g0/sqrt(delta), up to an overall factor g0, and so does the floor.
    Present lines scale as g0 Re(weak value) and absent ones as
    g0^3/delta, and the floor lies between the two for g0_max/sqrt(delta)
    up to about 1. Above that no floor separates them: at g0 = 2,
    delta = 1, D1's M2 line (0.117) is below the absent outer M2 line
    (0.157).
    """

    times: np.ndarray
    sample_rate: float
    series: dict[str, np.ndarray]
    spectra: dict[str, tuple[np.ndarray, np.ndarray]]
    floor: float
    lines: dict[str, dict[str, float]]


def _transform(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rfft of a series of at least 16 samples and its power, checked finite."""
    if x.size < 16:
        raise ValueError(f"series too short for a spectrum: {x.size} < 16 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        transform = np.fft.rfft(x)
        power = np.abs(transform) ** 2
    if not np.isfinite(power).all():
        raise ValueError("power spectrum is out of double range")
    return transform, power


def _line_bin(frequency: float, n: int, sample_rate: float) -> int:
    """The interior DFT bin of ``frequency`` in ``n`` samples; ValueError if none."""
    bin_index = frequency * n / sample_rate
    k = round(bin_index)
    if abs(bin_index - k) > 1e-9 or not 0 < k < n / 2:
        raise ValueError(f"frequency {frequency} is not an interior DFT bin")
    return k


def power_spectrum(series, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided discrete power spectrum |rfft|^2 with a rectangular window.

    Run durations are chosen bin-aligned (integer cycles of every vibration
    frequency), so rectangular windowing is leakage-free and a sinusoid of
    amplitude a lands in a single bin with power (a*n/2)^2. A spectrum that
    is not finite in double precision raises ValueError.
    """
    x = np.asarray(series, dtype=float)
    return np.fft.rfftfreq(x.size, d=1.0 / sample_rate), _transform(x)[1]


def sinusoid_amplitude(series, sample_rate: float, frequency: float) -> float:
    """Amplitude of the bin-aligned sinusoidal component at ``frequency``.

    Like ``power_spectrum``, it needs at least 16 samples and raises
    ValueError when the spectrum is not finite in double precision.
    """
    x = np.asarray(series, dtype=float)
    k = _line_bin(frequency, x.size, sample_rate)
    return 2.0 * abs(_transform(x)[0][k]) / x.size


def simulate_traces(
    schedule: MirrorSchedule,
    duration: float,
    sample_rate: float,
    delta: float,
    circuit: Circuit | None = None,
) -> TraceResult:
    """Quasi-static run of the vibrating-mirror setup.

    At each sample the schedule's mirrors set couplings g_i(t) on their arms,
    all feeding one shared pointer; one batched evaluation of the compiled
    path sum then yields, per detector and sample, the arrival probability
    and conditional pointer mean, plus the pooled outer-port pair of series.
    One rfft per series gives its power spectrum and, for the conditional
    means, each mirror's line 2|X[k]|/n; all spectra are range-checked before any bin.
    The circuit must have the detectors of ``DETECTORS``; ValueError otherwise.
    """
    circuit = NESTED_MZI if circuit is None else circuit
    if not set(DETECTORS) <= set(circuit.detectors):
        raise ValueError(f"the traces need detectors {DETECTORS}; "
                         f"the circuit has {circuit.detectors}")
    mirrors = schedule.mirrors
    if mirrors and sample_rate <= 2.0 * max(m.frequency for m in mirrors):
        raise ValueError("sample rate violates Nyquist for the fastest enabled mirror")
    n_float = duration * sample_rate
    if not (math.isfinite(n_float) and n_float <= MAX_SAMPLES):
        raise ValueError(f"duration * sample_rate must be at most {MAX_SAMPLES}, got {n_float}")
    n = round(n_float)
    if abs(n_float - n) > 1e-9 or n < 16:
        raise ValueError("duration * sample_rate must be an integer of at least 16")
    times = np.arange(n) / sample_rate
    config = MeterConfig(delta)
    paths = PathSum.compile(circuit, PhotonState.source(), [m.arm for m in mirrors])
    couplings = np.array(
        [m.amplitude * np.sin(2.0 * np.pi * m.frequency * times) for m in mirrors]
    ).reshape(len(mirrors), n).T
    # moments past double range overflow to inf or NaN here without a warning;
    # their spectra are then rejected as out of double range
    with np.errstate(over="ignore", invalid="ignore"):
        stats = paths.statistics(couplings, DETECTORS, config)

        series = {}
        outer_prob = np.zeros(n)
        outer_moment = np.zeros(n)
        for det in DETECTORS:
            prob, moment = stats[det]
            seen = prob > NORM2_FLOOR
            moment = np.where(seen, moment, 0.0)
            series[f"{det}_mean"] = np.divide(moment, prob, out=np.zeros(n), where=seen)
            series[f"{det}_prob"] = prob
            if det != "D3":
                outer_prob += prob
                outer_moment += moment
        series[f"{OUTER}_mean"] = np.divide(
            outer_moment, outer_prob, out=np.zeros(n), where=outer_prob > NORM2_FLOOR
        )
        series[f"{OUTER}_prob"] = outer_prob
    del stats, couplings  # freed, so the transforms below do not raise the memory peak

    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spectra, transforms = {}, {}
    for key, values in series.items():
        transform, power = _transform(values)
        spectra[key] = (freqs, power)
        if key.endswith("_mean"):
            transforms[key] = transform
    g0_max = max((abs(m.amplitude) for m in mirrors), default=0.0)
    # scales with g0_max at fixed g0_max/sqrt(delta), as every line does
    floor = g0_max * min(g0_max / math.sqrt(delta), 0.125)
    bins = {m.name: _line_bin(m.frequency, n, sample_rate) for m in mirrors}
    lines = {}
    for key, transform in transforms.items():
        amps = {name: 2.0 * abs(transform[k]) / n for name, k in bins.items()}
        lines[key] = {name: amp for name, amp in amps.items() if amp > floor}
    return TraceResult(times, sample_rate, series, spectra, floor, lines)

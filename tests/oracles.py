"""Independent brute-force cross-checks for the test suite.

Everything here is built directly from beamsplitter port lists and the
fixed ket convention, dense 11-dimensional matrix products, grid
quadrature with FFT-based pointer translations, and the erf form of the
readout distribution. Nothing imports the library's branch algebra, and
a library ``Circuit`` is read only for its stages' ports and transfer
matrices, never for its derived liveness or detectors, so agreement
between the two routes is a real check.
"""

from __future__ import annotations

import numpy as np

ARMS = ("N", "N0", "A", "D", "D0", "B", "C", "E", "D1", "D2", "D3")
IDX = {arm: i for i, arm in enumerate(ARMS)}

_BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)

# (inputs) -> (outputs) per stage of the nested interferometer, all balanced:
# |in1> -> (|out1> - i|out2>)/sqrt2, |in2> -> (-i|out1> + |out2>)/sqrt2
STAGE_PORTS = [
    (("N", "N0"), ("D", "A")),
    (("D", "D0"), ("C", "B")),
    (("B", "C"), ("D3", "E")),
    (("A", "E"), ("D1", "D2")),
]


def _stages(circuit=None):
    """(inputs, outputs, transfer) per stage; the nested interferometer by default."""
    if circuit is None:
        return [(i, o, _BALANCED) for i, o in STAGE_PORTS]
    return [(bs.inputs, bs.outputs, np.asarray(bs.transfer)) for bs in circuit.stages]


def _stage_unitary(inputs, outputs, transfer):
    """Dense stage matrix under the ket convention (|out_r>) = transfer (|in_c>).

    Inverting it, |in_c> -> sum_r conj(transfer[r, c]) |out_r>.
    """
    u = np.eye(len(ARMS), dtype=complex)
    for a in (*inputs, *outputs):
        u[IDX[a], IDX[a]] = 0.0
    w = np.conj(transfer)
    for c, i in enumerate(inputs):
        for r, o in enumerate(outputs):
            u[IDX[o], IDX[i]] = w[r, c]
            # backfill the unused output->input block with w^T so the matrix
            # stays unitary; pipeline states never occupy output ports before a stage.
            u[IDX[i], IDX[o]] = w[r, c]
    return u


def stage_matrices(circuit=None) -> list[np.ndarray]:
    return [_stage_unitary(*stage) for stage in _stages(circuit)]


def _matrices(circuit):
    return STAGE_MATRICES if circuit is None else stage_matrices(circuit)


def arm_stages(circuit=None) -> dict[str, int]:
    """Stage count after which each arm of the layout first carries amplitude."""
    first = {}
    for k, (inputs, outputs, _) in enumerate(_stages(circuit)):
        for arm in inputs:
            first.setdefault(arm, 0)
        for arm in outputs:
            first[arm] = k + 1
    return first


STAGE_MATRICES = stage_matrices()
ARM_STAGE = arm_stages()


def evolve_vector(k: int, amplitudes: dict | None = None, circuit=None) -> np.ndarray:
    """Photon-only evolution by dense matrix products (first k stages)."""
    v = np.zeros(len(ARMS), dtype=complex)
    if amplitudes is None:
        v[IDX["N"]] = 1.0
    else:
        for arm, c in amplitudes.items():
            v[IDX[arm]] = c
    for u in _matrices(circuit)[:k]:
        v = u @ v
    return v


def occupation(arm: str, amplitudes: dict | None = None, circuit=None) -> float:
    """|<arm| U(k)..U1 |in>|^2 at the stage count k where the arm first carries amplitude."""
    k = arm_stages(circuit)[arm]
    return float(abs(evolve_vector(k, amplitudes, circuit)[IDX[arm]]) ** 2)


def projected_amplitude(
    arm: str, detector: str, amplitudes: dict | None = None, circuit=None
) -> complex:
    """<detector| U_n..U(k+1) Pi_arm U(k)..U1 |in> by dense products, k the arm's stage."""
    k = arm_stages(circuit)[arm]
    mid = evolve_vector(k, amplitudes, circuit)
    proj = np.zeros_like(mid)
    proj[IDX[arm]] = mid[IDX[arm]]
    for u in _matrices(circuit)[k:]:
        proj = u @ proj
    return proj[IDX[detector]]


def oracle_weak_value(
    arm: str, detector: str, amplitudes: dict | None = None, circuit=None
) -> complex:
    """Projected transition ratio from dense matrix products."""
    full = evolve_vector(len(_stages(circuit)), amplitudes, circuit)
    return projected_amplitude(arm, detector, amplitudes, circuit) / full[IDX[detector]]


def mirror_lines(arm: str, detector: str, g0: float, delta: float, f: float, rate: float):
    """Exact lines of one mirror g(t) = g0 sin(2 pi f t) on ``arm`` at ``detector``.

    With alpha the detector amplitude through the arm and beta the rest, the
    detector state is alpha|G_g> + beta|G_0>. Its probability is
    |alpha|^2 + |beta|^2 + x exp(-g^2/4 delta) and its moment (probability
    times pointer mean) g|alpha|^2 + x (g/2) exp(-g^2/4 delta), with
    x = 2 Re(conj(alpha) beta). Writing g^2 = g0^2 (1 - cos 2 theta)/2 and
    expanding e^{a cos 2 theta} = I_0(a) + 2 sum_k I_k(a) cos 2k theta
    (Abramowitz and Stegun 9.6.34), a = g0^2/(8 delta), the probability has
    lines 2|x| ive(k, a) at 2kf, and the moment lines
    |g0| ||alpha|^2 + (x/2)(ive(0, a) - ive(1, a))| at f and
    |g0 x/2| |ive(k, a) - ive(k+1, a)| at (2k+1)f.

    Returns (probability lines, moment lines), each {frequency: amplitude}
    over the frequencies strictly between 0 and rate/2.
    """
    from scipy.special import ive

    alpha = projected_amplitude(arm, detector)
    beta = evolve_vector(len(STAGE_PORTS))[IDX[detector]] - alpha
    x = 2.0 * (np.conj(alpha) * beta).real
    orders = int(rate / (2 * f)) + 2
    i = ive(np.arange(orders + 1), g0 * g0 / (8.0 * delta))
    prob = {2 * k * f: 2 * abs(x) * i[k] for k in range(1, orders) if 2 * k * f < rate / 2}
    moment = {f: abs(g0 * (abs(alpha) ** 2 + x / 2 * (i[0] - i[1])))}
    moment.update({(2 * k + 1) * f: abs(g0 * x / 2 * (i[k] - i[k + 1]))
                   for k in range(1, orders) if (2 * k + 1) * f < rate / 2})
    return prob, moment


# ---------------------------------------------------------------- quadrature

def gaussian(q, shift, delta):
    return (np.pi * delta) ** -0.25 * np.exp(-((q - shift) ** 2) / (2.0 * delta))


def quad_overlap(a, b, delta, points=200001, span=14.0):
    lo = min(a, b) - span * np.sqrt(delta)
    hi = max(a, b) + span * np.sqrt(delta)
    q = np.linspace(lo, hi, points)
    return np.trapezoid(gaussian(q, a, delta) * gaussian(q, b, delta), q)


def quad_first_moment(a, b, delta, points=200001, span=14.0):
    lo = min(a, b) - span * np.sqrt(delta)
    hi = max(a, b) + span * np.sqrt(delta)
    q = np.linspace(lo, hi, points)
    return np.trapezoid(q * gaussian(q, a, delta) * gaussian(q, b, delta), q)


def gaussian_gram(terms, delta):
    """(norm2, norm2 * <Q>) of sum_i c_i G_{s_i} from the closed-form Gram.

    ``terms`` are (c_i, s_i) pairs; every s_i may be an array of samples,
    which are then evaluated elementwise. Sums over all ordered pairs.
    """
    norm2 = moment = 0.0
    for ci, si in terms:
        for cj, sj in terms:
            w = (np.conj(ci) * cj).real * np.exp(-((si - sj) ** 2) / (4.0 * delta))
            norm2 = norm2 + w
            moment = moment + w * 0.5 * (si + sj)
    return norm2, moment


def exact_readout_cdf(branches, delta, x):
    """CDF at ``x`` of |sum_i c_i phi_{s_i}|^2 / norm2, in closed form.

    Every Gram term conj(c_i) c_j phi_i phi_j is a normal density with
    variance delta/2 centred at (s_i + s_j)/2, weighted by
    Re(conj(c_i) c_j) exp(-(s_i - s_j)^2 / (4 delta)); each contributes its
    ``ndtr``. ``branches`` are (c_i, s_i) pairs.
    """
    # a local import: perfbench's gate loads this module, and scipy would
    # count in the memory of every benchmark run
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    sigma = np.sqrt(delta / 2.0)
    cdf = np.zeros_like(x)
    total = 0.0
    for ci, si in branches:
        for cj, sj in branches:
            w = (np.conj(ci) * cj).real * np.exp(-((si - sj) ** 2) / (4.0 * delta))
            cdf = cdf + w * ndtr((x - 0.5 * (si + sj)) / sigma)
            total += w
    return cdf / total


def quad_wave_stats(branches, delta, points=None, span=10.0):
    """(norm2, mean) of sum_i c_i phi_{s_i} by trapezoid quadrature."""
    shifts = [s for _, s in branches]
    lo = min(shifts) - span * np.sqrt(delta)
    hi = max(shifts) + span * np.sqrt(delta)
    if points is None:
        points = 4096
    q = np.linspace(lo, hi, points)
    wave = sum(c * gaussian(q, s, delta) for c, s in branches)
    density = np.abs(wave) ** 2
    norm2 = np.trapezoid(density, q)
    mean = np.trapezoid(q * density, q) / norm2
    return norm2, mean


# ------------------------------------------------------- joint grid simulator

def _fft_translate(f, q, g, axis=-1):
    k = 2.0 * np.pi * np.fft.fftfreq(q.size, d=q[1] - q[0])
    phase = np.exp(-1j * k * g)
    shape = [1] * f.ndim
    shape[axis] = k.size
    return np.fft.ifft(np.fft.fft(f, axis=axis) * phase.reshape(shape), axis=axis)


class JointGridSim:
    """Photon (11-dim) x meter (position grid) brute-force evolution.

    ``attachments`` are (arm, g, stage, axis) tuples; couplings on the same
    axis share one pointer. One or two meter axes are supported.
    """

    def __init__(self, delta, axes=1, span=40.0, points=16384):
        self.delta = delta
        self.axes = axes
        if axes == 1:
            self.q = np.linspace(-span, span, points)
            self.psi = np.zeros((len(ARMS), points), dtype=complex)
            self.psi[IDX["N"]] = gaussian(self.q, 0.0, delta)
        elif axes == 2:
            pts = min(points, 768)
            self.q = np.linspace(-span, span, pts)
            g1 = gaussian(self.q, 0.0, delta)
            self.psi = np.zeros((len(ARMS), pts, pts), dtype=complex)
            self.psi[IDX["N"]] = np.outer(g1, g1)
        else:
            raise ValueError("axes must be 1 or 2")

    def _couple(self, arm, g, axis):
        w = self.psi[IDX[arm]]
        if self.axes == 1:
            self.psi[IDX[arm]] = _fft_translate(w, self.q, g)
        else:
            self.psi[IDX[arm]] = _fft_translate(w, self.q, g, axis=axis)

    def run(self, attachments, upto=4):
        for arm, g, stage, *axis in attachments:
            if stage == 0:
                self._couple(arm, g, axis[0] if axis else 0)
        for k in range(upto):
            self.psi = np.tensordot(STAGE_MATRICES[k], self.psi, axes=(1, 0))
            for arm, g, stage, *axis in attachments:
                if stage == k + 1:
                    self._couple(arm, g, axis[0] if axis else 0)
        return self

    def _integrate(self, dens):
        if self.axes == 1:
            return np.trapezoid(dens, self.q)
        return np.trapezoid(np.trapezoid(dens, self.q, axis=-1), self.q, axis=-1)

    def prob(self, arm):
        return float(self._integrate(np.abs(self.psi[IDX[arm]]) ** 2))

    def conditional_mean(self, arm, axis=0):
        dens = np.abs(self.psi[IDX[arm]]) ** 2
        p = self._integrate(dens)
        if self.axes == 1:
            return float(np.trapezoid(self.q * dens, self.q) / p)
        grid = self.q[:, None] if axis == 0 else self.q[None, :]
        return float(self._integrate(grid * dens) / p)

    def unconditional_mean(self, axis=0):
        total = 0.0
        for arm in ARMS:
            dens = np.abs(self.psi[IDX[arm]]) ** 2
            if self.axes == 1:
                total += np.trapezoid(self.q * dens, self.q)
            else:
                grid = self.q[:, None] if axis == 0 else self.q[None, :]
                total += self._integrate(grid * dens)
        return float(total)

    def total_norm2(self):
        return float(sum(self._integrate(np.abs(self.psi[IDX[a]]) ** 2) for a in ARMS))

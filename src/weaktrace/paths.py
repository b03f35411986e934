"""Single-photon path space of the nested Mach-Zehnder interferometer.

A photon state is a complex amplitude per labeled arm. The setup is four
50-50 beamsplitters: BS1 splits the source arm N into the outer arm A and
the inner-interferometer feed D, BS2 splits D into the inner arms B and C,
BS3 recombines B and C into the detector arm D3 and the dark arm E, and
BS4 recombines A and E into the detector arms D1 and D2. The inner
interferometer is tuned so that B and C interfere destructively into E;
an undisturbed photon therefore never reaches E.

Each beamsplitter stores the conventional 2x2 matrix relating output kets
to input kets,

    (|out1>, |out2>)^T = transfer (|in1>, |in2>)^T,
    transfer = (1/sqrt 2) [[1, i], [i, 1]],

so ``|in_c> = sum_r conj(transfer[r, c]) |out_r>``, and it acts on
amplitude vectors through its complex conjugate:
``a_out = conj(transfer) @ a_in``, i.e. ``|in1> -> (|out1> - i|out2>)/sqrt2``
and ``|in2> -> (-i|out1> + |out2>)/sqrt2``.

A ``Circuit``'s ``adjoint`` is its inverse: the stages in reverse order,
each with its input and output ports swapped and the transfer replaced by
its conjugate transpose (the inverse of a beamsplitter mesh is the
reversed mesh of adjoints, Reck et al., PRL 73, 58 (1994)). It is built on
first use and kept. ``NESTED_MZI`` is the nested interferometer, built once
at import and shared by every default; each stage holds a read-only copy
of its transfer, so the shared circuit cannot be changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

#: Closed set of arm labels. N is the source arm; N0 and D0 are the unused
#: vacuum input ports of BS1 and BS2; D1..D3 are detector arms.
ARMS: tuple[str, ...] = ("N", "N0", "A", "D", "D0", "B", "C", "E", "D1", "D2", "D3")

#: The nested interferometer's detector arms (``build_nested_mzi().detectors``),
#: the fixed output schema of the command line and the vibrating-mirror traces.
DETECTORS: tuple[str, ...] = ("D1", "D2", "D3")

ATOL = 1e-12


class PipelineError(ValueError):
    """A stage was applied to a state that already occupies its output ports."""


def _check_arm(arm: str) -> str:
    if arm not in ARMS:
        raise ValueError(f"unknown arm label {arm!r}; expected one of {ARMS}")
    return arm


@dataclass(frozen=True)
class PhotonState:
    """Complex amplitude per arm; absent labels carry amplitude zero."""

    amplitudes: dict[str, complex]

    def __post_init__(self) -> None:
        for arm in self.amplitudes:
            _check_arm(arm)

    @classmethod
    def basis(cls, arm: str) -> "PhotonState":
        return cls({_check_arm(arm): 1.0 + 0.0j})

    @classmethod
    def source(cls) -> "PhotonState":
        """The photon entering the setup from the source, |N>."""
        return cls.basis("N")

    def amplitude(self, arm: str) -> complex:
        return complex(self.amplitudes.get(_check_arm(arm), 0.0))

    def norm2(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.amplitudes.values()))


@dataclass(frozen=True)
class BeamSplitter:
    """A 2-input/2-output unitary stage with explicit port assignment.

    ``transfer`` is the matrix relating output kets to input kets; the
    amplitude-vector action is by its complex conjugate (module docstring).
    The stage keeps a read-only copy of it, so a shared circuit cannot be
    changed through its stages and the caller's array is left alone.
    """

    ident: int
    inputs: tuple[str, str]
    outputs: tuple[str, str]
    transfer: np.ndarray

    def __post_init__(self) -> None:
        for arm in (*self.inputs, *self.outputs):
            _check_arm(arm)
        if set(self.inputs) & set(self.outputs):
            raise ValueError(f"BS{self.ident}: input and output ports must be disjoint")
        t = np.array(self.transfer, dtype=complex)
        t.flags.writeable = False
        if t.shape != (2, 2):
            raise ValueError(f"BS{self.ident}: transfer must be 2x2")
        if not np.abs(t.conj().T @ t - np.eye(2)).max() <= ATOL:
            raise ValueError(f"BS{self.ident}: transfer is not unitary to {ATOL}")
        object.__setattr__(self, "transfer", t)

    @property
    def amplitude_matrix(self) -> np.ndarray:
        """Matrix sending input-port amplitudes to output-port amplitudes."""
        return self.transfer.conj()


@dataclass(frozen=True)
class Circuit:
    """Ordered beamsplitter stages forming a directed acyclic layout.

    The topology is derived from the port lists, once. ``live[arm]`` is the
    range of stage counts (stages applied) at which the arm can carry
    amplitude: from the count just after the stage that produces it (0 for
    an input no stage produces) up to the count at which the stage that
    consumes it fires (``len(stages)`` if none does). It covers exactly the
    arms some stage touches, in ``ARMS`` order. ``detectors`` are the arms
    some stage produces and no stage consumes, sorted.
    """

    stages: tuple[BeamSplitter, ...]
    live: MappingProxyType[str, range] = field(init=False, repr=False, compare=False)
    detectors: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.stages)
        first: dict[str, int] = {}  # stage count just after the stage producing the arm
        last: dict[str, int] = {}  # stage count at which the stage consuming the arm fires
        for k, bs in enumerate(self.stages):
            for arm in bs.outputs:
                if arm in first:
                    raise ValueError(f"arm {arm} is an output of two stages")
                if arm in last:
                    raise ValueError(f"arm {arm} consumed before it is produced")
                first[arm] = k + 1
            for arm in bs.inputs:
                if arm in last:
                    raise ValueError(f"arm {arm} is an input of two stages")
                last[arm] = k
        live = {arm: range(first.get(arm, 0), last.get(arm, n) + 1)
                for arm in ARMS if arm in first or arm in last}
        object.__setattr__(self, "live", MappingProxyType(live))
        object.__setattr__(self, "detectors", tuple(sorted(first.keys() - last.keys())))

    def __len__(self) -> int:
        return len(self.stages)

    @cached_property
    def adjoint(self) -> "Circuit":
        """The inverse circuit, built once: the stages in reverse order, each
        with its ports swapped and its transfer's conjugate transpose."""
        return Circuit(tuple(
            BeamSplitter(bs.ident, bs.outputs, bs.inputs, bs.transfer.conj().T)
            for bs in reversed(self.stages)
        ))

    def live_stages(self, arm: str) -> range:
        """``live[arm]``; ValueError for an arm no stage touches."""
        if _check_arm(arm) not in self.live:
            raise ValueError(f"arm {arm} is not in the circuit; its arms are {tuple(self.live)}")
        return self.live[arm]

    def require_detector(self, detector: str) -> None:
        if detector not in self.detectors:
            raise ValueError(f"detector must be one of {self.detectors}, got {detector!r}")


_BALANCED = np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def build_nested_mzi() -> Circuit:
    """The four-stage nested interferometer with the fixed port assignment.

    Applying it to |N> gives -i(sqrt2|A> + |B> + i|C>)/2 after BS2 and
    -i(|A> + |D3>)/sqrt2 after BS3 (dark port E empty).
    """
    return Circuit((
        BeamSplitter(1, ("N", "N0"), ("D", "A"), _BALANCED),
        BeamSplitter(2, ("D", "D0"), ("C", "B"), _BALANCED),
        BeamSplitter(3, ("B", "C"), ("D3", "E"), _BALANCED),
        BeamSplitter(4, ("A", "E"), ("D1", "D2"), _BALANCED),
    ))


#: The nested interferometer, built once and shared; its transfers are read-only.
NESTED_MZI = build_nested_mzi()

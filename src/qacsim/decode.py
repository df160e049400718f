"""Majority-vote decoding, ground matching, and error-distribution analyses.

Every strategy is decoded alike.  Penalty qubits never vote: each block's
logical value is the sign of the sum over its problem qubits (the code
length n is odd, so there are no ties); under U, the length-1 code, the vote
returns the qubit itself.
Because chain problems have two degenerate logical ground states, a decoded
configuration is matched to the ground with which the majority of its
logical qubits agree; ties break toward the smaller Hamming distance and
then lexicographically (with -1 ordered before +1).  A sample is decodable
when its decoded logical configuration matches the aligned ground exactly.

:func:`majority_decode` takes one readout or a ``(rows, qubits)`` array of
readouts; the vote and the per-block disagreement counts are array
operations over all blocks (and rows) at once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .problem import (
    EncodedProblem,
    IsingProblem,
    all_config_energies,
    config_from_index,
    ising_energy,
)
from .topology import LogicalEncoding

__all__ = [
    "SampleRecord",
    "SampleSet",
    "DecodedRecord",
    "HistogramSuite",
    "majority_decode",
    "ground_reference",
    "align_and_distance",
    "decode_record",
    "decodable_mask",
    "ground_indices",
    "empirical_success",
    "histogram_suite",
]


# ---------------------------------------------------------------------------
# sample containers


@dataclass(frozen=True)
class SampleRecord:
    bits: tuple[int, ...]
    count: int
    embedding_id: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.count, numbers.Integral) or self.count < 1:
            raise ValidationError(f"sample count must be an integer >= 1, got {self.count!r}")
        if any(b not in (-1, 1) for b in self.bits):
            raise ValidationError("sample bits must be +-1")


@dataclass(frozen=True)
class SampleSet:
    records: tuple[SampleRecord, ...]
    problem: EncodedProblem | None = None

    def __post_init__(self) -> None:
        if not self.records:
            raise ValidationError("sample set is empty")
        width = len(self.records[0].bits)
        if any(len(r.bits) != width for r in self.records):
            raise ValidationError("inconsistent bitstring lengths")
        if self.problem is not None and width != self.problem.num_physical:
            raise ValidationError("bitstring length does not match the problem")

    @property
    def num_qubits(self) -> int:
        return len(self.records[0].bits)

    @property
    def total_count(self) -> int:
        return sum(r.count for r in self.records)


# ---------------------------------------------------------------------------
# decoding primitives


def _vote(samples: np.ndarray, layout) -> np.ndarray:
    return np.where(samples[..., layout[0]].sum(axis=-1) > 0, 1, -1)


def _disagreements(samples: np.ndarray, layout, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per block: problem qubits differing from the block's target value, and
    whether its penalty qubit (if any) differs from it."""
    problem_ids, penalty_ids = layout
    weights = (samples[..., problem_ids] != target[..., None]).sum(axis=-1)
    flags = (penalty_ids >= 0) & (samples[..., penalty_ids] != target)
    return weights, flags


def majority_decode(sample, encoding: LogicalEncoding):
    """Vote each block's problem qubits; penalty qubits are excluded.

    Returns (logical config, per-block disagreement weight with the majority,
    per-block flag for a penalty qubit disagreeing with the majority).  Under
    U's length-1 code the logical config is the readout itself.  A
    ``(rows, qubits)`` array of readouts gives one row of each per readout.
    """
    sample = np.asarray(sample)
    logical = _vote(sample, encoding.layout)
    return (logical, *_disagreements(sample, encoding.layout, logical))


def ground_reference(problem: IsingProblem) -> tuple[tuple[int, ...], ...]:
    """Complete set of logical ground configurations.

    Chains are solved analytically (propagate the bond signs from each end
    spin value); anything else is enumerated by :func:`all_config_energies`,
    which caps the spin count.
    """
    if problem.is_chain() and all(v != 0 for v in problem.couplings.values()):
        grounds = []
        for first in (1, -1):
            cfg = [first]
            for i in range(problem.num_spins - 1):
                sign = 1 if problem.couplings[(i, i + 1)] > 0 else -1
                cfg.append(-sign * cfg[-1])
            grounds.append(tuple(cfg))
        return tuple(sorted(grounds))
    idx = _ground_indices(problem)
    return tuple(sorted(map(tuple, config_from_index(idx[:, None], problem.num_spins).tolist())))


def align_and_distance(decoded, ground_set) -> tuple[tuple[int, ...], int]:
    """Ground the majority of decoded qubits agree with, plus the Hamming
    distance to it; ties break to the smaller distance then lexicographic."""
    if not ground_set:
        raise ValidationError("empty ground set")
    decoded = tuple(int(v) for v in np.asarray(decoded))
    best = min(
        ((sum(a != b for a, b in zip(decoded, g)), g) for g in ground_set),
        key=lambda pair: (pair[0], pair[1]),
    )
    return best[1], best[0]


@dataclass(frozen=True)
class DecodedRecord:
    """Fully decoded readout: logical values, ground-relative error weights,
    penalty flips, Hamming distances, decodability and physical energy."""

    logical_config: tuple[int, ...]
    per_block_error_weight: tuple[int, ...]
    penalty_flipped: tuple[bool, ...]
    d_physical: int
    d_logical: int
    decodable: bool
    energy: float
    matched_ground: tuple[int, ...]


def decode_record(sample, problem: EncodedProblem, ground_set=None) -> DecodedRecord:
    """Run the full decoding pipeline on one physical readout.

    ``d_physical`` counts the physical disagreements with the code state of
    the matched ground; a penalty qubit counts when it differs from its
    block's ground value."""
    sample = np.asarray(sample)
    if len(sample) != problem.num_physical:
        raise ValidationError("sample length does not match the problem")
    if ground_set is None:
        ground_set = ground_reference(problem.logical)
    logical = _vote(sample, problem.encoding.layout)
    matched, d_logical = align_and_distance(logical, ground_set)
    weights, flags = _disagreements(sample, problem.encoding.layout, np.asarray(matched))
    return DecodedRecord(
        logical_config=tuple(logical.tolist()),
        per_block_error_weight=tuple(weights.tolist()),
        penalty_flipped=tuple(flags.tolist()),
        d_physical=int(weights.sum() + flags.sum()),
        d_logical=d_logical,
        decodable=d_logical == 0,
        energy=ising_energy(sample, problem.physical),
        matched_ground=matched,
    )


# ---------------------------------------------------------------------------
# state-level classifiers


def _ground_indices(problem: IsingProblem) -> np.ndarray:
    """Basis indices within 1e-12 * max(1, |E|max) of the lowest energy."""
    energies = all_config_energies(problem)
    tol = 1e-12 * max(1.0, float(np.abs(energies).max()))
    return np.flatnonzero(energies <= energies.min() + tol)


def ground_indices(problem: EncodedProblem) -> np.ndarray:
    """Basis indices of the exact physical ground configurations."""
    return _ground_indices(problem.physical)


def decodable_mask(problem: EncodedProblem) -> np.ndarray:
    """Boolean mask over all basis states: True where the configuration
    majority-decodes to a logical ground configuration."""
    n = problem.num_physical
    logical, _, _ = majority_decode(config_from_index(np.arange(1 << n)[:, None], n), problem.encoding)
    grounds = np.array(ground_reference(problem.logical))
    return (logical[:, None, :] == grounds).all(axis=-1).any(axis=-1)


def empirical_success(samples: SampleSet, problem: EncodedProblem) -> tuple[float, float]:
    """(P_GS, P_S) estimated by counting over a sample set.  P_GS counts
    readouts equal to the code state of a logical ground configuration
    (every copy alike), P_S readouts that majority-decode to one.  Under C
    the L = 2 chain has 2 such code states, against 8 physical ground
    configurations in :func:`qacsim.dynamics.success_probabilities`."""
    ground_set = ground_reference(problem.logical)
    code_grounds = {tuple(problem.code_config(g)) for g in ground_set}
    n_gs = n_s = 0
    for rec in samples.records:
        if rec.bits in code_grounds:
            n_gs += rec.count
        logical, _, _ = majority_decode(rec.bits, problem.encoding)
        if tuple(logical.tolist()) in ground_set:
            n_s += rec.count
    total = samples.total_count
    return n_gs / total, n_s / total


# ---------------------------------------------------------------------------
# histogram suite


@dataclass(frozen=True)
class HistogramSuite:
    """Frequencies for the Hamming, per-position and decodability analyses.

    Energies are measured from the code ground state in units of the logical
    coupling (the physical energy difference divided by alpha).
    """

    hamming_physical: dict[int, float]
    hamming_logical: dict[int, float]
    position_weights: np.ndarray  # (num_logical, 3): weight-1/2/3 frequencies
    penalty_flips: np.ndarray  # (num_logical,)
    decodability: dict[tuple[int, float], tuple[int, int]]  # (d_phys, energy) -> (total, decodable)
    total_count: int = 0


def histogram_suite(
    samples: SampleSet,
    problem: EncodedProblem,
    ground_set=None,
    symmetrize: bool = False,
) -> HistogramSuite:
    """Aggregate decoded statistics over a sample set.

    ``symmetrize`` averages the per-position histograms over the two chain
    directions (chain problems only).
    """
    if ground_set is None:
        ground_set = ground_reference(problem.logical)
    if symmetrize and not problem.logical.is_chain():
        raise ValidationError("direction symmetrization requires a chain problem")
    num_logical = problem.logical.num_spins
    total = samples.total_count
    e_ground = ising_energy(problem.code_config(ground_set[0]), problem.physical)

    ham_phys: dict[int, int] = {}
    ham_log: dict[int, int] = {}
    pos = np.zeros((num_logical, 3))
    pen = np.zeros(num_logical)
    dec_map: dict[tuple[int, float], list[int]] = {}

    for rec in samples.records:
        record = decode_record(rec.bits, problem, ground_set)
        ham_phys[record.d_physical] = ham_phys.get(record.d_physical, 0) + rec.count
        ham_log[record.d_logical] = ham_log.get(record.d_logical, 0) + rec.count
        weights = np.array(record.per_block_error_weight)
        blocks = np.flatnonzero((weights >= 1) & (weights <= 3))
        pos[blocks, weights[blocks] - 1] += rec.count
        pen += rec.count * np.array(record.penalty_flipped)
        energy_rel = round((record.energy - e_ground) / problem.alpha, 9)
        key = (record.d_physical, energy_rel)
        bucket = dec_map.setdefault(key, [0, 0])
        bucket[0] += rec.count
        if record.decodable:
            bucket[1] += rec.count

    if symmetrize:
        pos = 0.5 * (pos + pos[::-1])
        pen = 0.5 * (pen + pen[::-1])

    return HistogramSuite(
        hamming_physical={d: c / total for d, c in sorted(ham_phys.items())},
        hamming_logical={d: c / total for d, c in sorted(ham_log.items())},
        position_weights=pos / total,
        penalty_flips=pen / total,
        decodability={k: (v[0], v[1]) for k, v in sorted(dec_map.items())},
        total_count=total,
    )

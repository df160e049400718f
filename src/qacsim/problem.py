"""Ising problems, repetition-code encodings (U/C/EP/QAC) and anneal schedules.

U is the length-1 repetition code, C three unpenalized copies, EP and QAC
three copies plus a penalty qubit per block; one path encodes all four.

Spin and basis-index conventions used throughout the package:

* a configuration is a length-``num_spins`` array of +-1 values;
* computational-basis index ``x`` maps to a configuration by reading bits
  most-significant-first, spin ``q`` being +1 when bit ``num_spins-1-q`` of
  ``x`` is 0 (this matches Kronecker-product operator ordering with qubit 0
  as the leftmost factor);
* this module owns that bit order (``_bit_position``) and the Ising energy
  formula (``_energy_rows``): the dense operators, the integrator and the
  decoder take both from here rather than re-deriving them;
* all energies are dimensionless until multiplied by a schedule value; the
  schedule curves A(s), B(s) are angular frequencies in rad/ns (the "GHz"
  of hardware specifications), so with hbar = 1 times are in ns.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .topology import LogicalBlock, LogicalEncoding

__all__ = [
    "IsingProblem",
    "EncodedProblem",
    "AnnealSchedule",
    "GapLevel",
    "STRATEGIES",
    "make_af_chain",
    "dense_encoding",
    "encode_problem",
    "ising_energy",
    "all_config_energies",
    "classical_excitation_gaps",
    "schedule_linear",
    "config_from_index",
    "index_from_config",
]

STRATEGIES = ("U", "C", "EP", "QAC")

BRUTE_FORCE_SPIN_CAP = 24
_CHUNK = 1 << 22  # array entries per chunk of configurations


# ---------------------------------------------------------------------------
# Ising problems


@dataclass(frozen=True)
class IsingProblem:
    """Dimensionless Ising problem: fields h_i and pair couplings J_ij.

    Treated as immutable after construction; the dicts must not be mutated.
    """

    num_spins: int
    local_fields: dict[int, float] = field(default_factory=dict)
    couplings: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.num_spins, numbers.Integral) or self.num_spins < 1:
            raise ValidationError(f"num_spins must be an integer >= 1, got {self.num_spins!r}")
        for i, h in self.local_fields.items():
            if not 0 <= i < self.num_spins:
                raise ValidationError(f"field index {i} out of range")
            if not abs(h) <= 1 + 1e-12:
                raise ValidationError(f"|h_{i}| = {abs(h)} must be at most 1")
        for (i, j), val in self.couplings.items():
            if i == j or not (0 <= i < self.num_spins and 0 <= j < self.num_spins):
                raise ValidationError(f"bad coupling pair ({i},{j})")
            if i > j:
                raise ValidationError(f"coupling key ({i},{j}) must be ordered i < j")
            if not abs(val) <= 1 + 1e-12:
                raise ValidationError(f"|J_{i}{j}| = {abs(val)} must be at most 1")

    def is_chain(self) -> bool:
        """A field-free open chain with exactly the couplings (i, i+1)."""
        expected = {(i, i + 1) for i in range(self.num_spins - 1)}
        return not self.local_fields and set(self.couplings) == expected


def make_af_chain(length: int) -> IsingProblem:
    """Antiferromagnetic chain: J_{i,i+1} = +1, no local fields."""
    if not isinstance(length, numbers.Integral) or length < 2:
        raise ValidationError(f"chain length must be an integer >= 2, got {length!r}")
    return IsingProblem(length, {}, {(i, i + 1): 1.0 for i in range(length - 1)})


def ising_energy(config, problem: IsingProblem) -> float:
    """Sum of h_i s_i plus J_ij s_i s_j for one +-1 configuration."""
    config = np.asarray(config)
    if config.shape != (problem.num_spins,):
        raise ValidationError(f"config length {config.shape} != num_spins {problem.num_spins}")
    if not np.all(np.abs(config) == 1):
        raise ValidationError("config entries must be +-1")
    return float(_energy_rows(config[None, :], problem)[0])


def _energy_rows(spins: np.ndarray, problem: IsingProblem) -> np.ndarray:
    """Energies of the rows of a (rows, num_spins) array of +-1 spins.

    Each row sums its terms in one fixed order, from 0: the fields, then the
    couplings, each in dict order.
    """
    spins = spins.astype(float)
    left = [i for i, _ in problem.couplings]
    right = [j for _, j in problem.couplings]
    terms = np.concatenate([
        np.zeros((len(spins), 1)),
        np.array(list(problem.local_fields.values())) * spins[:, list(problem.local_fields)],
        np.array(list(problem.couplings.values())) * spins[:, left] * spins[:, right],
    ], axis=1)
    return np.cumsum(terms, axis=1)[:, -1]


def _bit_position(qubit, num_spins: int):
    """Bit of a basis index that holds spin ``qubit`` (spin 0 is the most
    significant bit); accepts an int or an array of qubits."""
    return num_spins - 1 - qubit


def config_from_index(x, num_spins: int) -> np.ndarray:
    """+-1 configuration of basis index ``x``; an ``(rows, 1)`` array of
    indices gives one configuration per row."""
    bits = (x >> _bit_position(np.arange(num_spins), num_spins)) & 1
    return 1 - 2 * bits


def index_from_config(config) -> int:
    config = np.asarray(config)
    bits = (1 - config) // 2
    return int(np.sum(bits << _bit_position(np.arange(len(config)), len(config))))


def all_config_energies(problem: IsingProblem) -> np.ndarray:
    """Energies of all 2^N configurations, indexed by basis index."""
    n = problem.num_spins
    if n > BRUTE_FORCE_SPIN_CAP:
        raise ResourceLimitError(f"{n} spins exceeds the brute-force cap of {BRUTE_FORCE_SPIN_CAP}")
    out = np.empty(1 << n)
    rows = max(1, _CHUNK // (1 + n + len(problem.local_fields) + len(problem.couplings)))
    for start in range(0, 1 << n, rows):
        idx = np.arange(start, min(start + rows, 1 << n), dtype=np.int64)
        out[start : start + len(idx)] = _energy_rows(config_from_index(idx[:, None], n), problem)
    return out


# ---------------------------------------------------------------------------
# encodings


def dense_encoding(
    num_logical: int,
    n: int = 3,
    with_penalty: bool = True,
    incomplete: set[int] | frozenset[int] = frozenset(),
) -> LogicalEncoding:
    """Compactly indexed encoding: block i owns n problem qubits then its
    penalty qubit (omitted for blocks listed in ``incomplete``)."""
    blocks = []
    nxt = 0
    for i in range(num_logical):
        problem = tuple(range(nxt, nxt + n))
        nxt += n
        penalty = None
        if with_penalty and i not in incomplete:
            penalty = nxt
            nxt += 1
        blocks.append(LogicalBlock(i, problem, penalty))
    return LogicalEncoding(n, tuple(blocks))


def _compact(blocks: tuple[LogicalBlock, ...], drop_penalties: bool) -> tuple[LogicalEncoding, list[int]]:
    """Re-index blocks onto compact physical ids 0..K-1 and positional
    logical ids, remembering the original physical ids."""
    compact = dense_encoding(
        len(blocks), len(blocks[0].problem_ids), not drop_penalties,
        {pos for pos, blk in enumerate(blocks) if blk.penalty_id is None},
    )
    hardware_ids: list[int] = []
    for blk, new in zip(blocks, compact.blocks):
        hardware_ids.extend(blk.problem_ids)
        if new.penalty_id is not None:
            hardware_ids.append(blk.penalty_id)
    return compact, hardware_ids


@dataclass(frozen=True)
class EncodedProblem:
    """A logical problem mapped to physical qubits under one strategy.

    ``encoding`` is the compact repetition code of the strategy; U is its
    length-1 case, one unpenalized qubit per logical spin.  ``physical``
    holds the scaled couplings alpha*J and -beta penalties over the compact
    index space; ``problem_part``/``penalty_part`` keep the unscaled
    structure so spectra can be resolved into exact multiples of alpha and
    beta.  ``hardware_ids[k]`` is the hardware qubit behind compact index k
    (identity for abstract encodings).
    """

    strategy: str
    logical: IsingProblem
    encoding: LogicalEncoding
    alpha: float
    beta: float
    physical: IsingProblem
    problem_part: IsingProblem
    penalty_part: IsingProblem
    hardware_ids: tuple[int, ...]

    @property
    def num_physical(self) -> int:
        return self.physical.num_spins

    def code_config(self, logical_config) -> np.ndarray:
        """Embed a logical +-1 configuration, one value per block, as the
        matching code state."""
        values = np.asarray(logical_config)
        problem_ids, penalty_ids = self.encoding.layout
        if values.shape != (len(problem_ids),):
            raise ValidationError(f"logical config of shape {values.shape} for {len(problem_ids)} blocks")
        out = np.empty(self.num_physical, dtype=int)
        out[problem_ids] = values[:, None]
        has_penalty = penalty_ids >= 0
        out[penalty_ids[has_penalty]] = values[has_penalty]
        return out


def encode_problem(
    logical: IsingProblem,
    strategy: str,
    alpha: float,
    beta: float = 0.0,
    encoding: LogicalEncoding | None = None,
) -> EncodedProblem:
    """Apply one of the U/C/EP/QAC strategies to a logical problem.

    Every strategy is a repetition code at problem scale alpha.  U is the
    length-1 code: one unpenalized qubit per logical spin, always compactly
    indexed (a given encoding is ignored).  C replicates the problem over n
    unpenalized copies.  EP and QAC add the -beta penalty couplings between
    each complete block's problem qubits and its penalty qubit; they share
    the same physical Hamiltonian and are decoded alike, by majority vote.
    When no encoding is given a compact defect-free one is generated.
    """
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not 0 < alpha <= 1:
        raise ValidationError("alpha must lie in (0, 1]")
    if not 0 <= beta <= 1:
        raise ValidationError("beta must lie in [0, 1]")
    if strategy in ("U", "C") and beta != 0.0:
        raise ValidationError(f"beta must be 0 under the {strategy} strategy")

    if strategy == "U" or encoding is None:
        compact = dense_encoding(logical.num_spins, 1 if strategy == "U" else 3, strategy in ("EP", "QAC"))
        hw_ids = range(compact.num_physical)
    elif len(encoding.blocks) < logical.num_spins:
        raise ValidationError(f"encoding provides {len(encoding.blocks)} blocks for {logical.num_spins} logical spins")
    else:
        compact, hw_ids = _compact(encoding.blocks[: logical.num_spins], drop_penalties=strategy == "C")
    blocks = compact.blocks

    prob_fields: dict[int, float] = {}
    prob_couplings: dict[tuple[int, int], float] = {}
    pen_couplings: dict[tuple[int, int], float] = {}
    for i, h in logical.local_fields.items():
        for q in blocks[i].problem_ids:
            prob_fields[q] = h
    for (i, j), v in logical.couplings.items():
        for qa, qb in zip(blocks[i].problem_ids, blocks[j].problem_ids):
            prob_couplings[(min(qa, qb), max(qa, qb))] = v
    if strategy in ("EP", "QAC"):
        for blk in blocks:
            if blk.penalty_id is not None:
                for q in blk.problem_ids:
                    pen_couplings[(min(q, blk.penalty_id), max(q, blk.penalty_id))] = -1.0

    num_phys = compact.num_physical
    problem_part = IsingProblem(num_phys, prob_fields, prob_couplings)
    penalty_part = IsingProblem(num_phys, {}, pen_couplings)
    physical = IsingProblem(
        num_phys,
        {i: alpha * h for i, h in prob_fields.items()},
        {**{k: alpha * v for k, v in prob_couplings.items()},
         **{k: -beta for k in pen_couplings}},
    )
    return EncodedProblem(strategy, logical, compact, alpha, beta, physical, problem_part, penalty_part, tuple(hw_ids))


# ---------------------------------------------------------------------------
# exact classical spectra


@dataclass(frozen=True)
class GapLevel:
    """One excitation level: gap = problem_weight*alpha + penalty_weight*beta."""

    gap: float
    degeneracy: int
    problem_weight: float
    penalty_weight: float


def classical_excitation_gaps(problem: EncodedProblem) -> list[GapLevel]:
    """Exact excitation gaps of the physical Ising spectrum.

    Enumerates all configurations and groups them by their exact
    (problem-part, penalty-part) energy coefficients, so for integer logical
    couplings each gap is reported as an exact multiple of alpha and beta.
    Levels whose coefficients differ appear separately even if the scaled
    energies coincide for the particular (alpha, beta).
    """
    u = all_config_energies(problem.problem_part)
    v = all_config_energies(problem.penalty_part)
    iground = np.lexsort((v, u, problem.alpha * u + problem.beta * v))[0]
    (us, vs), counts = np.unique(np.stack([u, v]), axis=1, return_counts=True)
    levels = []
    for uk, vk, count in zip(us, vs, counts):
        if uk != u[iground] or vk != v[iground]:
            du = float(uk - u[iground])
            dv = float(vk - v[iground])
            levels.append(GapLevel(du * problem.alpha + dv * problem.beta, int(count), du, dv))
    levels.sort(key=lambda lv: (lv.gap, lv.problem_weight, lv.penalty_weight))
    return levels


# ---------------------------------------------------------------------------
# anneal schedules


@dataclass(frozen=True)
class AnnealSchedule:
    """Sampled A(s), B(s) curves in rad/ns with piecewise-linear interpolation.

    The samples are stored as float arrays.  They must be finite, A and B
    non-negative, A(0) > 0 (the anneal starts in the ground state of
    A(0) * sum sigma^x), A(1) ~ 0 and B(0) ~ 0.
    """

    t_f_us: float
    s: np.ndarray
    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        s, A, B = (np.asarray(v, dtype=float) for v in (self.s, self.A, self.B))
        for name, value in zip("sAB", (s, A, B)):
            object.__setattr__(self, name, value)
        if s.ndim != 1 or len(s) < 2 or not s.shape == A.shape == B.shape:
            raise ValidationError("schedule needs matching 1-d s, A, B samples with at least two rows")
        if not np.isfinite([s, A, B]).all():
            raise ValidationError("schedule samples must be finite")
        if not (np.all(np.diff(s) > 0) and s[0] == 0.0 and s[-1] == 1.0):
            raise ValidationError("schedule s values must increase strictly from 0 to 1")
        tol_a = 1e-6 * max(A.max(), 1e-300)
        tol_b = 1e-6 * max(B.max(), 1e-300)
        if A.min() < -tol_a or B.min() < -tol_b:
            raise ValidationError("schedule A and B must be non-negative")
        if A[0] <= 0:
            raise ValidationError(f"schedule must satisfy A(0) > 0, got {A[0]}")
        if abs(A[-1]) > tol_a:
            raise ValidationError(f"schedule must satisfy A(1) ~ 0, got {A[-1]}")
        if abs(B[0]) > tol_b:
            raise ValidationError(f"schedule must satisfy B(0) ~ 0, got {B[0]}")
        if not 0 < self.t_f_us < np.inf:
            raise ValidationError("t_f must be positive and finite")

    @property
    def t_f_ns(self) -> float:
        return 1e3 * self.t_f_us

    def A_of(self, s):
        return np.interp(s, self.s, self.A)

    def B_of(self, s):
        return np.interp(s, self.s, self.B)

    def derivatives_of(self, s):
        """Piecewise-constant dA/ds and dB/ds at s (right-sided at knots)."""
        k = np.clip(np.searchsorted(self.s, s, side="right") - 1, 0, len(self.s) - 2)
        ds = self.s[k + 1] - self.s[k]
        return (self.A[k + 1] - self.A[k]) / ds, (self.B[k + 1] - self.B[k]) / ds


def schedule_linear(A0: float, t_f_us: float = 20.0) -> AnnealSchedule:
    """Linear interpolating schedule A(s) = 2 A0 (1-s), B(s) = 2 A0 s."""
    if A0 <= 0:
        raise ValidationError("A0 must be positive")
    return AnnealSchedule(
        t_f_us,
        np.array([0.0, 1.0]),
        np.array([2.0 * A0, 0.0]),
        np.array([0.0, 2.0 * A0]),
    )

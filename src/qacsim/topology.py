"""Chimera hardware graphs, logical repetition-code blocks and chain embeddings.

Qubit id convention (fixed): a Chimera graph with R x C unit cells and
`cell_size` qubits per bipartite shore numbers qubits as

    id = 2*cell_size*(row*cols + col) + shore*cell_size + index

with shore 0 coupling vertically (to the same index in the cells above and
below) and shore 1 coupling horizontally.  Each unit cell is a complete
bipartite graph between its two shores.  This coupler rule is defined once,
in ``_chimera_couplers``, and every :class:`HardwareGraph` is checked against
it when constructed.

For ``cell_size == 4`` each cell hosts two logical qubits: block A takes
shore-0 indices {0,1,2} as problem qubits with the shore-1 index 3 qubit as
its penalty; block B mirrors this (shore-1 problem qubits {0,1,2}, shore-0
penalty at index 3).  The same coupler rule yields the logical edges: two
blocks are joined when a host coupler joins their k-th problem qubits for
every k.  An :class:`EncodedGraph` checks that every logical edge's couplers
pair the problem qubits of its two blocks one to one, so no coupler
realizes two logical edges.
"""

from __future__ import annotations

import itertools
import numbers
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import ResourceLimitError, ValidationError

__all__ = [
    "HardwareGraph",
    "LogicalBlock",
    "LogicalEncoding",
    "EncodedGraph",
    "build_chimera",
    "build_encoding",
    "embed_chain",
]


# ---------------------------------------------------------------------------
# hardware graph


def _chimera_ids(rows: int, cols: int, cell_size: int) -> np.ndarray:
    """The qubit ids as a (row, col, shore, index) grid."""
    if not all(isinstance(v, numbers.Integral) and v >= 1 for v in (rows, cols, cell_size)):
        raise ValidationError(f"rows, cols and cell_size must all be integers >= 1, got {(rows, cols, cell_size)}")
    return np.arange(2 * cell_size * rows * cols).reshape(rows, cols, 2, cell_size)


def _chimera_couplers(rows: int, cols: int, cell_size: int) -> list[tuple[int, int]]:
    """Every coupler (a, b), a < b, of the defect-free Chimera graph: the
    complete bipartite graph inside each cell, shore 0 to the same index in
    the cell below and shore 1 to the same index in the cell to the right."""
    ids = _chimera_ids(rows, cols, cell_size)
    vertical, horizontal = ids[:, :, 0], ids[:, :, 1]
    pairs = [
        (np.repeat(vertical, cell_size, axis=-1), np.tile(horizontal, cell_size)),  # in-cell, every (i, j)
        (vertical[:-1], vertical[1:]),  # shore 0 to the cell below
        (horizontal[:, :-1], horizontal[:, 1:]),  # shore 1 to the cell on the right
    ]
    a = np.concatenate([lo.ravel() for lo, _ in pairs])
    b = np.concatenate([hi.ravel() for _, hi in pairs])
    return list(zip(a.tolist(), b.tolist()))


@dataclass(frozen=True)
class HardwareGraph:
    """Chimera-structured physical qubit graph (immutable).  Construction,
    by hand or by :func:`build_chimera`, raises ValidationError unless every
    active id is in range and every edge is a coupler ``(a, b)``, ``a < b``,
    of ``_chimera_couplers`` with two active ends."""

    rows: int
    cols: int
    cell_size: int
    active_qubits: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        couplers = set(_chimera_couplers(self.rows, self.cols, self.cell_size))
        num_ids = 2 * self.cell_size * self.rows * self.cols
        for q in self.active_qubits:
            if not 0 <= q < num_ids:
                raise ValidationError(f"active qubit {q} outside [0, {num_ids})")
        for a, b in self.edges:
            if (a, b) not in couplers:
                raise ValidationError(f"edge ({a},{b}) is not a Chimera coupler (a, b) with a < b")
            if a not in self.active_qubits or b not in self.active_qubits:
                raise ValidationError(f"edge ({a},{b}) touches an inactive qubit")

    def qubit_id(self, row: int, col: int, shore: int, index: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols and 0 <= shore < 2 and 0 <= index < self.cell_size):
            raise ValidationError(f"coordinates ({row}, {col}, {shore}, {index}) outside the {self.rows}x{self.cols} graph of cell size {self.cell_size}")
        return 2 * self.cell_size * (row * self.cols + col) + shore * self.cell_size + index


def build_chimera(
    rows: int,
    cols: int,
    cell_size: int = 4,
    defects: frozenset[int] | set[int] = frozenset(),
) -> HardwareGraph:
    """Build the Chimera graph minus defective qubits and their edges."""
    couplers = _chimera_couplers(rows, cols, cell_size)
    num_ids = 2 * cell_size * rows * cols
    defects = frozenset(defects)
    for d in defects:
        if not 0 <= d < num_ids:
            raise ValidationError(f"defect id {d} outside [0, {num_ids})")
    active = frozenset(range(num_ids)) - defects
    edges = frozenset((a, b) for a, b in couplers if a not in defects and b not in defects)
    return HardwareGraph(rows, cols, cell_size, active, edges)


# ---------------------------------------------------------------------------
# logical encoding


@dataclass(frozen=True)
class LogicalBlock:
    """One repetition-code block: n problem qubits plus an optional penalty."""

    logical_id: int
    problem_ids: tuple[int, ...]
    penalty_id: int | None

    @property
    def complete(self) -> bool:
        return self.penalty_id is not None


@dataclass(frozen=True)
class LogicalEncoding:
    """Assignment of physical qubits to repetition-code blocks.

    ``host`` is the hardware graph the ids refer to; it is None for abstract
    (densely indexed) encodings used in desk-scale simulations.
    """

    n: int
    blocks: tuple[LogicalBlock, ...]
    host: HardwareGraph | None = None

    def __post_init__(self) -> None:
        if self.n % 2 == 0:
            raise ValidationError("code length n must be odd for tie-free majority votes")
        seen: set[int] = set()
        for blk in self.blocks:
            if len(blk.problem_ids) != self.n:
                raise ValidationError(f"block {blk.logical_id} has {len(blk.problem_ids)} problem qubits, expected {self.n}")
            ids = set(blk.problem_ids) | ({blk.penalty_id} if blk.penalty_id is not None else set())
            if len(ids) != len(blk.problem_ids) + (blk.penalty_id is not None):
                raise ValidationError(f"block {blk.logical_id} repeats a physical id")
            if ids & seen:
                raise ValidationError(f"block {blk.logical_id} shares physical ids with another block")
            seen |= ids
            if self.host is None:
                continue
            if not self.host.active_qubits.issuperset(blk.problem_ids):
                raise ValidationError(f"a problem qubit of block {blk.logical_id} is inactive in host graph")
            p = blk.penalty_id
            if p is not None and not all((min(q, p), max(q, p)) in self.host.edges for q in blk.problem_ids):
                raise ValidationError(f"penalty qubit {p} not adjacent to all problem qubits of block {blk.logical_id}")

    @property
    def num_physical(self) -> int:
        return sum(len(b.problem_ids) + (b.penalty_id is not None) for b in self.blocks)

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (problem qubits per block, penalty qubit per block or
        -1), blocks in order; built on first use, once per encoding."""
        problem_ids = np.array([blk.problem_ids for blk in self.blocks], dtype=np.intp).reshape(-1, self.n)
        penalty_ids = np.array([-1 if blk.penalty_id is None else blk.penalty_id for blk in self.blocks], dtype=np.intp)
        problem_ids.flags.writeable = penalty_ids.flags.writeable = False
        return problem_ids, penalty_ids

    def block_by_id(self, logical_id: int) -> LogicalBlock:
        for blk in self.blocks:
            if blk.logical_id == logical_id:
                return blk
        raise ValidationError(f"no block with logical id {logical_id}")


@dataclass(frozen=True)
class EncodedGraph:
    """Logical-qubit graph derived from a hardware graph.

    ``logical_edges`` maps a pair (i, j), i < j, of logical ids to the tuple
    of physical couplers realizing that edge.  Construction raises
    ValidationError unless both blocks exist and the couplers, all in the
    host graph if there is one, pair the problem qubits of block i with
    those of block j one to one.  So no coupler realizes two logical edges,
    and any set of logical edges can be active at once.  The graph keeps a
    read-only copy of the mapping, so no edge can skip the check later.
    """

    encoding: LogicalEncoding
    logical_edges: Mapping[tuple[int, int], tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "logical_edges", MappingProxyType(dict(self.logical_edges)))
        n, host = self.encoding.n, self.encoding.host
        block_of = {q: b.logical_id for b in self.encoding.blocks for q in b.problem_ids}
        for (i, j), couplers in self.logical_edges.items():
            # n couplers with 2n distinct ends, each joining block i to block j
            if not (i < j and len(couplers) == n and len({q for c in couplers for q in c}) == 2 * n
                    and all({block_of.get(a), block_of.get(b)} == {i, j} for a, b in couplers)):
                raise ValidationError(f"logical edge ({i},{j}) needs i < j and {n} couplers pairing the problem qubits of blocks {i} and {j} one to one")
            for a, b in couplers:
                if host is not None and (min(a, b), max(a, b)) not in host.edges:
                    raise ValidationError(f"coupler ({a},{b}) of logical edge ({i},{j}) missing from host graph")

    @property
    def blocks(self) -> tuple[LogicalBlock, ...]:
        return self.encoding.blocks

    def adjacency(self) -> dict[int, set[int]]:
        """Logical graph over the complete blocks, {logical id: neighbours}:
        a block without its penalty qubit, and its edges, are left out."""
        ok = {b.logical_id for b in self.blocks if b.complete}
        adj: dict[int, set[int]] = {v: set() for v in ok}
        for (i, j) in self.logical_edges:
            if i in ok and j in ok:
                adj[i].add(j)
                adj[j].add(i)
        return adj


def build_encoding(hw: HardwareGraph) -> tuple[LogicalEncoding, EncodedGraph]:
    """Place two logical qubits per unit cell and derive the logical graph.

    Blocks whose penalty position is defective are kept but marked incomplete
    (penalty_id None); blocks missing a problem qubit are dropped entirely.
    """
    if hw.cell_size != 4:
        raise ValidationError("encoding layout requires cell_size == 4")
    # row 2 * cell + shore: block 2 * cell + shore takes indices 0-2 of that
    # shore as problem qubits and index 3 of the other shore as its penalty
    grid = _chimera_ids(hw.rows, hw.cols, 4).reshape(-1, 4).tolist()
    blocks = []
    for lid, qubits in enumerate(grid):
        problem, penalty = tuple(qubits[:3]), grid[lid ^ 1][3]
        if all(q in hw.active_qubits for q in problem):
            blocks.append(LogicalBlock(lid, problem, penalty if penalty in hw.active_qubits else None))

    # a logical edge joins the k-th problem qubits of two blocks for every k;
    # ids grow with the block id, so a coupler (a, b), a < b, joins blocks i < j
    slot = {q: (blk.logical_id, k) for blk in blocks for k, q in enumerate(blk.problem_ids)}
    joined = Counter((slot[a][0], slot[b][0]) for a, b in hw.edges if a in slot and b in slot and slot[a][1] == slot[b][1])
    edges = {(i, j): tuple(zip(grid[i][:3], grid[j][:3])) for (i, j), hits in sorted(joined.items()) if hits == 3}
    encoding = LogicalEncoding(n=3, blocks=tuple(blocks), host=hw)
    return encoding, EncodedGraph(encoding, edges)


# ---------------------------------------------------------------------------
# chain embeddings

_EMBED_RESTARTS = 20000  # walks on a larger graph, and steps of the scarcity proof after them
_EMBED_EXHAUSTIVE_NODES = 24  # largest usable graph searched exhaustively


def embed_chain(
    eg: EncodedGraph,
    length: int,
    count: int,
    rng_seed: int = 0,
) -> list[tuple[int, ...]]:
    """Find ``count`` distinct simple paths of ``length`` logical qubits.

    Paths use only complete blocks; paths equal up to reversal count once.
    Both searches run :func:`_simple_paths`.  A graph of at most 24 usable
    nodes is searched in sorted order, start by start: the result is the
    first ``count`` distinct paths of that order, whatever ``rng_seed``, and
    has fewer only when no more exist.  A larger graph gets up to 20000
    seeded self-avoiding walks of ``20 * length`` steps; if they fall short,
    the sorted search gets 20000 steps, and its result stands if it ends or
    finds ``count`` paths in them: else :class:`ResourceLimitError`.
    """
    if not isinstance(length, numbers.Integral) or length < 2:
        raise ValidationError(f"chain length must be an integer >= 2, got {length!r}")
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValidationError(f"embedding count must be an integer >= 1, got {count!r}")
    adj = eg.adjacency()
    if length > len(adj):
        return []
    nodes = sorted(adj)

    def distinct(paths) -> list[tuple[int, ...]]:
        # the first ``count`` of ``paths`` that differ up to reversal
        found: dict[tuple[int, ...], tuple[int, ...]] = {}
        for path in paths:
            found.setdefault(min(path, path[::-1]), path)
            if len(found) == count:
                break
        return list(found.values())

    def sorted_search(steps) -> list[tuple[int, ...]]:
        return distinct(p for start in nodes for p in _simple_paths(adj, start, length, lambda c: sorted(c, reverse=True), steps))

    if len(adj) <= _EMBED_EXHAUSTIVE_NODES:
        return sorted_search(itertools.count())

    rng = np.random.default_rng(rng_seed)

    def shuffled(cands: list[int]) -> list[int]:
        rng.shuffle(cands)
        return cands

    walks = (next(_simple_paths(adj, nodes[rng.integers(len(nodes))], length, shuffled, range(20 * length)), None)
             for _ in range(_EMBED_RESTARTS))
    paths = distinct(p for p in walks if p is not None)
    if len(paths) < count:
        steps = iter(range(_EMBED_RESTARTS))
        proof = sorted_search(steps)
        if len(proof) < count and next(steps, None) is None:
            raise ResourceLimitError(f"found {len(paths)} of {count} embeddings; no scarcity proof of the {len(adj)}-node graph within {_EMBED_RESTARTS} steps")
        paths = proof
    return paths


def _simple_paths(adj, start, length, order, steps):
    """Yield each simple path of ``length`` vertices from ``start`` through
    ``adj``, depth first: a vertex's neighbours off the path pass through
    ``order`` and are tried from the end.  Each step forward, step back or
    completed path takes one item of ``steps``; the search stops when they
    run out."""
    path, on_path, cands = [start], {start}, []
    for _ in steps:
        if len(path) == length:
            yield tuple(path)
            on_path.discard(path.pop())
            continue
        if len(cands) < len(path):
            cands.append(order([v for v in adj[path[-1]] if v not in on_path]))
        if cands[-1]:
            nxt = cands[-1].pop()
            path.append(nxt)
            on_path.add(nxt)
        else:
            cands.pop()
            if len(path) == 1:
                return
            on_path.discard(path.pop())

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
penalty at index 3).  Logical edges are realized by the three same-index
physical couplers between the blocks' problem qubits.  An
:class:`EncodedGraph` checks that every logical edge's couplers pair the
problem qubits of its two blocks one to one, so no coupler realizes two
logical edges.
"""

from __future__ import annotations

import numbers
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


def _chimera_couplers(rows: int, cols: int, cell_size: int) -> list[tuple[int, int]]:
    """Every coupler (a, b), a < b, of the defect-free Chimera graph: the
    complete bipartite graph inside each cell, shore 0 to the same index in
    the cell below and shore 1 to the same index in the cell to the right."""
    if not all(isinstance(v, numbers.Integral) and v >= 1 for v in (rows, cols, cell_size)):
        raise ValidationError(f"rows, cols and cell_size must all be integers >= 1, got {(rows, cols, cell_size)}")
    ids = np.arange(2 * cell_size * rows * cols).reshape(rows, cols, 2, cell_size)
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
        if self.host is not None:
            self._validate_against_host()

    def _validate_against_host(self) -> None:
        assert self.host is not None
        for blk in self.blocks:
            for q in blk.problem_ids:
                if q not in self.host.active_qubits:
                    raise ValidationError(f"problem qubit {q} inactive in host graph")
            p = blk.penalty_id
            if p is not None:
                if not all((min(q, p), max(q, p)) in self.host.edges for q in blk.problem_ids):
                    raise ValidationError(f"penalty qubit {blk.penalty_id} not adjacent to all problem qubits of block {blk.logical_id}")

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
    present: dict[int, LogicalBlock] = {}
    for r in range(hw.rows):
        for c in range(hw.cols):
            for pos, (pshore, qshore) in enumerate(((0, 1), (1, 0))):
                lid = 2 * (r * hw.cols + c) + pos
                problem = tuple(hw.qubit_id(r, c, pshore, i) for i in range(3))
                penalty = hw.qubit_id(r, c, qshore, 3)
                if not all(q in hw.active_qubits for q in problem):
                    continue
                present[lid] = LogicalBlock(lid, problem, penalty if penalty in hw.active_qubits else None)

    edges: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    # every call below passes la < lb and couplers (a, b) with a < b
    def try_edge(la: int, lb: int, couplers: list[tuple[int, int]]) -> None:
        if la in present and lb in present:
            if all(c in hw.edges for c in couplers):
                edges[(la, lb)] = tuple(couplers)

    for r in range(hw.rows):
        for c in range(hw.cols):
            cell = 2 * (r * hw.cols + c)
            try_edge(cell, cell + 1, [(hw.qubit_id(r, c, 0, i), hw.qubit_id(r, c, 1, i)) for i in range(3)])
            if r + 1 < hw.rows:
                below = 2 * ((r + 1) * hw.cols + c)
                try_edge(cell, below, [(hw.qubit_id(r, c, 0, i), hw.qubit_id(r + 1, c, 0, i)) for i in range(3)])
            if c + 1 < hw.cols:
                right = 2 * (r * hw.cols + c + 1)
                try_edge(cell + 1, right + 1, [(hw.qubit_id(r, c, 1, i), hw.qubit_id(r, c + 1, 1, i)) for i in range(3)])

    encoding = LogicalEncoding(n=3, blocks=tuple(present.values()), host=hw)
    return encoding, EncodedGraph(encoding, edges)


# ---------------------------------------------------------------------------
# chain embeddings

_EMBED_RESTARTS = 20000  # randomized walks on a graph too large to search exhaustively
_EMBED_EXHAUSTIVE_NODES = 24  # largest usable graph searched exhaustively


def embed_chain(
    eg: EncodedGraph,
    length: int,
    count: int,
    rng_seed: int = 0,
) -> list[tuple[int, ...]]:
    """Find ``count`` distinct simple paths of ``length`` logical qubits.

    Paths use only complete blocks; paths equal up to reversal count once.
    A graph of at most 24 usable nodes is searched exhaustively, start by
    start and neighbour by neighbour in sorted order: the result is the
    first ``count`` distinct paths of that order, whatever ``rng_seed``, and
    has fewer only when no more exist.  A larger graph is searched by a
    seeded self-avoiding walk with backtracking and restarts, which raises
    :class:`ResourceLimitError` when its budget is exhausted.
    """
    if not isinstance(length, numbers.Integral) or length < 2:
        raise ValidationError(f"chain length must be an integer >= 2, got {length!r}")
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValidationError(f"embedding count must be an integer >= 1, got {count!r}")
    adj = eg.adjacency()
    if length > len(adj):
        return []

    found: dict[tuple[int, ...], tuple[int, ...]] = {}

    def canonical(path: tuple[int, ...]) -> tuple[int, ...]:
        rev = path[::-1]
        return path if path <= rev else rev

    if len(adj) <= _EMBED_EXHAUSTIVE_NODES:
        for start in sorted(adj):
            for path in _simple_paths(adj, [start], length):
                found.setdefault(canonical(path), path)
                if len(found) >= count:
                    return list(found.values())
        return list(found.values())

    rng = np.random.default_rng(rng_seed)
    nodes = sorted(adj)

    def random_attempt(budget: int) -> tuple[int, ...] | None:
        start = nodes[rng.integers(len(nodes))]
        path = [start]
        on_path = {start}
        choice_stack: list[list[int]] = []
        steps = 0
        while steps < budget:
            steps += 1
            if len(path) == length:
                return tuple(path)
            if len(choice_stack) < len(path):
                cands = [v for v in adj[path[-1]] if v not in on_path]
                rng.shuffle(cands)
                choice_stack.append(cands)
            cands = choice_stack[-1]
            if cands:
                nxt = cands.pop()
                path.append(nxt)
                on_path.add(nxt)
            else:
                choice_stack.pop()
                if len(path) == 1:
                    return None
                on_path.discard(path.pop())
        return None

    for _ in range(_EMBED_RESTARTS):
        if len(found) >= count:
            break
        path = random_attempt(budget=20 * length)
        if path is not None:
            found.setdefault(canonical(path), path)

    if len(found) >= count:
        return list(found.values())[:count]
    raise ResourceLimitError(
        f"found {len(found)} of {count} embeddings; graph too large ({len(adj)} nodes) for an exhaustive scarcity proof"
    )


def _simple_paths(adj, path, length):
    """Yield each simple path of ``length`` vertices through ``adj`` that
    extends ``path``, trying neighbours in sorted order.  ``path`` is grown
    and restored in place as the search goes."""
    if len(path) == length:
        yield tuple(path)
        return
    for nxt in sorted(adj[path[-1]]):
        if nxt not in path:
            path.append(nxt)
            yield from _simple_paths(adj, path, length)
            path.pop()

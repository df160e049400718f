import dataclasses
import itertools

import numpy as np
import pytest

from qacsim.errors import ResourceLimitError, ValidationError
from qacsim.topology import HardwareGraph, build_chimera, build_encoding, embed_chain


def chimera_edge_count(r: int, c: int) -> int:
    # independent count: 16 intra-cell couplers per cell plus 4 couplers per
    # adjacent cell pair in each direction
    return 16 * r * c + 4 * (r * (c - 1) + (r - 1) * c)


class TestBuildChimera:
    def test_single_cell(self):
        hw = build_chimera(1, 1, 4)
        assert len(hw.active_qubits) == 8
        assert len(hw.edges) == 16

    def test_full_dw2_scale(self):
        hw = build_chimera(8, 8, 4)
        assert len(hw.active_qubits) == 512
        assert len(hw.edges) == 1472

    def test_nine_defects_leaves_503(self):
        defects = {3, 17, 64, 130, 200, 305, 411, 500, 511}
        hw = build_chimera(8, 8, 4, defects)
        assert len(hw.active_qubits) == 503
        for a, b in hw.edges:
            assert a not in defects and b not in defects

    @pytest.mark.parametrize("r,c", list(itertools.product(range(1, 9), range(1, 9))))
    def test_edge_count_formula(self, r, c):
        assert len(build_chimera(r, c, 4).edges) == chimera_edge_count(r, c)

    def test_defect_out_of_range(self):
        with pytest.raises(ValidationError):
            build_chimera(2, 2, 4, {64})

    def test_id_convention_roundtrip(self):
        # a bijection onto the id range, by the module docstring's formula
        hw = build_chimera(3, 5, 4)
        coords = list(itertools.product(range(3), range(5), range(2), range(4)))
        ids = [hw.qubit_id(r, c, s, i) for r, c, s, i in coords]
        assert ids == [2 * 4 * (r * 5 + c) + s * 4 + i for r, c, s, i in coords]
        assert sorted(ids) == list(range(2 * 4 * 3 * 5))

    @pytest.mark.parametrize("coords", [(0, 0, 0, 4), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0), (5, 0, 0, 0), (-1, 0, 0, 0)])
    def test_qubit_id_rejects_coordinates_outside_the_graph(self, coords):
        # unchecked, (0, 0, 0, 4) would alias (0, 0, 1, 0) and (5, 0, 0, 0) would be id 80 of 32
        with pytest.raises(ValidationError):
            build_chimera(2, 2, 4).qubit_id(*coords)

    def test_validate_accepts_construction(self):
        # construction validates: build_chimera's graph passes when rebuilt,
        # and a copy with a defective end on one edge fails
        hw = build_chimera(4, 4, 4, {10, 20})
        assert HardwareGraph(hw.rows, hw.cols, hw.cell_size, hw.active_qubits, hw.edges) == hw
        with pytest.raises(ValidationError, match="inactive"):
            dataclasses.replace(hw, edges=hw.edges | {(10, 12)})

    @pytest.mark.parametrize("case", [
        "reversed edge", "self-loop", "same-shore pair", "inactive end", "out-of-range id", "inactive penalty", "no rows",
    ])
    def test_hand_built_graphs_rejected(self, case):
        full = build_chimera(1, 1, 4)
        a, b = full.qubit_id(0, 0, 0, 0), full.qubit_id(0, 0, 1, 0)
        penalty = full.qubit_id(0, 0, 1, 3)  # block A's penalty qubit
        rows, active, edges = {
            "reversed edge": (1, full.active_qubits, {(b, a)}),
            "self-loop": (1, full.active_qubits, {(a, a)}),
            "same-shore pair": (1, full.active_qubits, {(a, full.qubit_id(0, 0, 0, 1))}),
            "inactive end": (1, full.active_qubits - {a}, {(a, b)}),
            "out-of-range id": (1, full.active_qubits | {8}, set()),
            "inactive penalty": (1, full.active_qubits - {penalty}, full.edges),
            "no rows": (0, frozenset(), set()),
        }[case]
        with pytest.raises(ValidationError):
            HardwareGraph(rows, 1, 4, frozenset(active), frozenset(edges))


class TestBuildEncoding:
    def test_single_cell_blocks(self):
        _, eg = build_encoding(build_chimera(1, 1, 4))
        assert len(eg.blocks) == 2
        assert all(b.complete for b in eg.blocks)
        assert len(eg.logical_edges) == 1
        (couplers,) = eg.logical_edges.values()
        assert len(couplers) == 3

    def test_defect_free_8x8(self):
        enc, eg = build_encoding(build_chimera(8, 8, 4))
        assert len(eg.blocks) == 2 * 64
        assert all(b.complete for b in eg.blocks)
        assert all(len(c) == 3 for c in eg.logical_edges.values())

    def test_penalty_defect_marks_incomplete(self):
        hw = build_chimera(1, 1, 4)
        # shore-1 index 3 is block A's penalty qubit
        hw_def = build_chimera(1, 1, 4, {hw.qubit_id(0, 0, 1, 3)})
        _, eg = build_encoding(hw_def)
        flags = sorted(b.complete for b in eg.blocks)
        assert flags == [False, True]

    def test_problem_defect_drops_block(self):
        hw = build_chimera(1, 1, 4)
        hw_def = build_chimera(1, 1, 4, {hw.qubit_id(0, 0, 0, 1)})
        _, eg = build_encoding(hw_def)
        assert len(eg.blocks) == 1
        assert eg.logical_edges == {}

    def test_penalty_adjacent_to_problem_qubits(self):
        hw = build_chimera(2, 3, 4)
        enc, _ = build_encoding(hw)
        for blk in enc.blocks:
            p = blk.penalty_id
            assert all((min(q, p), max(q, p)) in hw.edges for q in blk.problem_ids)

    def test_inactive_problem_qubit_rejected(self):
        from qacsim.topology import LogicalBlock, LogicalEncoding

        hw = build_chimera(1, 1, 4, {build_chimera(1, 1, 4).qubit_id(0, 0, 0, 1)})
        problem = tuple(hw.qubit_id(0, 0, 0, i) for i in range(3))
        block = LogicalBlock(0, problem, hw.qubit_id(0, 0, 1, 3))
        with pytest.raises(ValidationError, match="inactive"):
            LogicalEncoding(3, (block,), host=hw)

    def test_penalty_not_adjacent_rejected(self):
        from qacsim.topology import LogicalBlock, LogicalEncoding

        hw = build_chimera(1, 2, 4)
        problem = tuple(hw.qubit_id(0, 0, 0, i) for i in range(3))
        # shore-1 qubit of the neighbouring cell: no coupler to these problem qubits
        far = LogicalBlock(0, problem, hw.qubit_id(0, 1, 1, 3))
        with pytest.raises(ValidationError, match="not adjacent"):
            LogicalEncoding(3, (far,), host=hw)
        # same-shore qubit of the own cell: active but uncoupled
        same_shore = LogicalBlock(0, problem, hw.qubit_id(0, 0, 0, 3))
        with pytest.raises(ValidationError, match="not adjacent"):
            LogicalEncoding(3, (same_shore,), host=hw)
        assert LogicalEncoding(3, (LogicalBlock(0, problem, hw.qubit_id(0, 0, 1, 3)),), host=hw).blocks

    @pytest.mark.parametrize("case", [
        "reversed pair", "missing block", "two couplers", "repeated coupler", "repeated qubit", "penalty end", "other block",
        "neither block",
    ])
    def test_logical_edges_must_pair_problem_qubits(self, case):
        # synthetic blocks with no host: block i holds problem qubits 10i, 10i+1, 10i+2
        from qacsim.topology import EncodedGraph, LogicalBlock, LogicalEncoding

        blocks = tuple(LogicalBlock(i, (10 * i, 10 * i + 1, 10 * i + 2), 10 * i + 3) for i in range(3))
        enc = LogicalEncoding(3, blocks)
        edges = {(0, 1): ((0, 10), (11, 1), (2, 12)), (1, 2): ((10, 22), (11, 20), (12, 21))}
        assert EncodedGraph(enc, edges).logical_edges == edges
        bad = {
            "reversed pair": {(1, 0): ((0, 10), (1, 11), (2, 12))},
            "missing block": {(0, 5): ((0, 50), (1, 51), (2, 52))},
            "two couplers": {(0, 1): ((0, 10), (1, 11))},
            "repeated coupler": {(0, 1): ((0, 10), (1, 11), (2, 12), (0, 10))},
            "repeated qubit": {(0, 1): ((0, 10), (0, 11), (2, 12))},
            "penalty end": {(0, 1): ((0, 10), (1, 11), (3, 12))},
            "other block": {(0, 1): ((0, 20), (1, 21), (2, 22))},
            "neither block": {(0, 1): ((100, 101), (102, 103), (104, 105))},
        }[case]
        with pytest.raises(ValidationError, match="logical edge"):
            EncodedGraph(enc, bad)

    def test_logical_edge_needs_its_own_blocks_couplers(self):
        # the couplers of edge (2, 3) cannot stand for (0, 3): blocks 0 and 3 share none
        from qacsim.topology import EncodedGraph

        enc, eg = build_encoding(build_chimera(1, 2, 4))
        with pytest.raises(ValidationError, match="one to one"):
            EncodedGraph(enc, {(0, 3): eg.logical_edges[(2, 3)]})
        # a pairing that the host graph lacks
        enc, _ = build_encoding(build_chimera(1, 1, 4))
        crossed = tuple((enc.blocks[0].problem_ids[k], enc.blocks[1].problem_ids[(k + 1) % 3]) for k in range(3))
        EncodedGraph(enc, {(0, 1): crossed})  # accepted in a cell: every shore-0/shore-1 pair is a coupler
        enc, _ = build_encoding(build_chimera(2, 1, 4))
        crossed = tuple((enc.blocks[0].problem_ids[k], enc.blocks[2].problem_ids[(k + 1) % 3]) for k in range(3))
        with pytest.raises(ValidationError, match="missing from host"):
            EncodedGraph(enc, {(0, 2): crossed})

    def test_logical_edges_are_read_only(self):
        # an edge added after construction would skip the one-to-one check
        _, eg = build_encoding(build_chimera(1, 2, 4))
        with pytest.raises(TypeError):
            eg.logical_edges[(0, 3)] = eg.logical_edges[(2, 3)]
        assert (0, 3) not in eg.logical_edges

    def test_logical_edges_are_copied(self):
        from qacsim.topology import EncodedGraph

        enc, eg = build_encoding(build_chimera(1, 2, 4))
        edges = dict(eg.logical_edges)
        graph = EncodedGraph(enc, edges)
        before = embed_chain(graph, 2, 5, rng_seed=1)
        edges[(0, 3)] = edges[(2, 3)]  # editing the caller's dict leaves the graph alone
        assert (0, 3) not in graph.logical_edges
        assert embed_chain(graph, 2, 5, rng_seed=1) == before


def sorted_order_paths(adj, length):
    # independent oracle: the simple paths of a recursive search, start by
    # start and neighbour by neighbour in sorted order, the first of each
    # pair of reversals kept
    def extend(path):
        if len(path) == length:
            yield tuple(path)
            return
        for nxt in sorted(adj[path[-1]]):
            if nxt not in path:
                yield from extend(path + [nxt])

    found = {}
    for path in (p for start in sorted(adj) for p in extend([start])):
        found.setdefault(min(path, path[::-1]), path)
    return list(found.values())


class TestEmbedChain:
    def test_unique_pair_in_single_cell(self):
        _, eg = build_encoding(build_chimera(1, 1, 4))
        paths = embed_chain(eg, 2, 1, rng_seed=1)
        assert len(paths) == 1
        assert sorted(paths[0]) == [0, 1]

    def test_scarcity_proof_caps_count(self):
        _, eg = build_encoding(build_chimera(1, 1, 4))
        assert len(embed_chain(eg, 2, 5, rng_seed=1)) == 1

    def test_too_long_returns_no_embedding(self):
        _, eg = build_encoding(build_chimera(1, 1, 4))
        assert embed_chain(eg, 200, 1, rng_seed=1) == []

    def test_24_embeddings_of_length_86(self):
        _, eg = build_encoding(build_chimera(8, 8, 4))
        adj = eg.adjacency()
        paths = embed_chain(eg, 86, 24, rng_seed=7)
        assert len(paths) == 24
        assert len({min(p, p[::-1]) for p in paths}) == 24
        for p in paths:
            assert len(set(p)) == 86
            for a, b in zip(p, p[1:]):
                assert b in adj[a]

    @pytest.mark.parametrize("rows,length,count", [(2, 3, 4), (2, 5, 1000), (3, 12, 50), (3, 18, 1000)])
    def test_small_graphs_enumerate_in_sorted_order(self, rows, length, count):
        # at most 24 usable blocks: the first count distinct paths of the
        # sorted-order search, whatever the seed.  The 3x3 host has no path
        # of length 18, and used to run 20000 random restarts, about 5 s,
        # before proving it
        _, eg = build_encoding(build_chimera(rows, rows, 4))
        adj = eg.adjacency()
        expected = sorted_order_paths(adj, length)[:count]
        assert len(adj) <= 24
        for seed in range(3):
            assert embed_chain(eg, length, count, rng_seed=seed) == expected

    def test_fragmented_host_proves_scarcity(self):
        # 30 usable blocks, too many to enumerate at once, and no path of more
        # than 5: the walks fall short, and the sorted search after them
        # proves how many paths exist.  Both calls used to raise
        # ResourceLimitError, calling the graph too large
        defects = np.random.default_rng(100).choice(288, 60, replace=False)
        _, eg = build_encoding(build_chimera(6, 6, 4, {int(q) for q in defects}))
        adj = eg.adjacency()
        assert len(adj) == 30 and sorted_order_paths(adj, 6) == []
        assert embed_chain(eg, 10, 3) == []
        expected = sorted_order_paths(adj, 4)
        assert len(expected) == 10
        assert embed_chain(eg, 4, 1000, rng_seed=3) == expected

    def test_deterministic_under_seed(self):
        _, eg = build_encoding(build_chimera(4, 4, 4))
        assert embed_chain(eg, 12, 5, rng_seed=3) == embed_chain(eg, 12, 5, rng_seed=3)

    def test_bad_arguments(self):
        _, eg = build_encoding(build_chimera(1, 1, 4))
        with pytest.raises(ValidationError):
            embed_chain(eg, 1, 1)
        with pytest.raises(ValidationError):
            embed_chain(eg, 2, 0)
        # a length of 2.5 used to return [], claiming that no path exists
        for length, count in ((2.5, 1), (3, 2.5)):
            with pytest.raises(ValidationError, match="integer"):
                embed_chain(eg, length, count)


def is_k33_subdivision(adj, left, right, paths):
    # independent oracle: plain loops over a K3,3 subdivision certificate,
    # one path from each left to each right branch vertex along edges of
    # adj, with interiors disjoint from each other and from the branch vertices
    branch = set(left) | set(right)
    if len(branch) != 6 or set(paths) != {(l, r) for l in left for r in right}:
        return False
    seen = set()
    for (l, r), path in paths.items():
        if path[0] != l or path[-1] != r or len(set(path)) != len(path):
            return False
        if any(b not in adj.get(a, ()) for a, b in zip(path, path[1:])):
            return False
        interior = set(path[1:-1])
        if interior & (branch | seen):
            return False
        seen |= interior
    return True


class TestNonPlanar:
    # A K3,3 subdivision in the encoded 8x8 graph: the graph is non-planar,
    # so the polynomial-time ground-state method for field-free Ising models
    # on planar graphs (Barahona, J. Phys. A 15, 3241 (1982)) does not cover it.
    LEFT, RIGHT = (18, 16, 20), (19, 35, 3)
    PATHS = {
        (18, 19): (18, 19), (18, 35): (18, 34, 35), (18, 3): (18, 2, 3),
        (16, 19): (16, 17, 19), (16, 35): (16, 32, 33, 35), (16, 3): (16, 0, 1, 3),
        (20, 19): (20, 21, 19), (20, 35): (20, 36, 37, 35), (20, 3): (20, 4, 5, 3),
    }

    def test_encoded_chimera_not_planar(self):
        _, eg = build_encoding(build_chimera(8, 8, 4))
        assert is_k33_subdivision(eg.adjacency(), self.LEFT, self.RIGHT, self.PATHS)

    def test_validator_rejects_bad_certificates(self):
        adj = build_encoding(build_chimera(8, 8, 4))[1].adjacency()
        wrong_end = {**self.PATHS, (18, 19): (18, 34)}
        no_edge = {**self.PATHS, (18, 35): (18, 35)}
        missing = {k: v for k, v in self.PATHS.items() if k != (20, 3)}
        for paths in (wrong_end, no_edge, missing):
            assert not is_k33_subdivision(adj, self.LEFT, self.RIGHT, paths)


def test_counts_must_be_integers():
    # build_chimera(2.5, 1) used to raise a bare TypeError; numpy integers stay valid
    with pytest.raises(ValidationError, match="integer"):
        build_chimera(2.5, 1)
    assert build_chimera(np.int64(2), np.int32(2), np.int64(4)) == build_chimera(2, 2, 4)
    _, eg = build_encoding(build_chimera(2, 2, 4))
    assert embed_chain(eg, np.int64(3), np.int64(2)) == embed_chain(eg, 3, 2)

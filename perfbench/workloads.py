"""The benchmark's three workloads.

Each workload draws its inputs from the seed, prepares the program's objects
in ``setup`` (timed as set-up), and yields rounds of points.  A point calls
qacsim's public functions inside tracer spans; its ``check`` compares the
output with ``reference`` or with properties the method must have.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from harness import Point, Tracer

from qacsim import classical, decode, dynamics, master_equation, perturb, problem, topology

STRATEGIES = ("U", "C", "EP", "QAC")
A0 = 2.0 * np.pi  # rad/ns: A(0) = B(1) = 2 A0 under the linear schedule
T_F_US = 0.01
RTOL = 1e-6
# truncated anneals: the truncation alone moves the EP/QAC P_GS by ~1.5e-3
# (see _compare_pure), and at 1e-6 such an anneal costs twice as long
TRUNCATED_RTOL = 1e-4
SHOTS = 1000
# agreement demanded of untruncated anneals (rtol 1e-6 over ~100-200 steps)
# with the references integrated at rtol 1e-9
ANNEAL_TOL = 1e-4


def linear_a(s: float) -> float:
    return 2.0 * A0 * (1.0 - s)


def linear_b(s: float) -> float:
    return 2.0 * A0 * s


# ---------------------------------------------------------------------------
# the benchmark's own description of the encodings


def layout(strategy: str, length: int):
    """(voting qubits (length, n), penalty qubits or None, width) of the compact
    physical index space: block i owns its problem qubits then its penalty."""
    if strategy == "U":
        return np.arange(length)[:, None], None, length
    if strategy == "C":
        return np.arange(3 * length).reshape(length, 3), None, 3 * length
    base = 4 * np.arange(length)
    return base[:, None] + np.arange(3)[None, :], base + 3, 4 * length


def chain_grounds(length: int) -> np.ndarray:
    first = np.array([1, -1])[:, None]
    return first * (-1) ** np.arange(length)[None, :]


def code_states(strategy: str, logical: np.ndarray) -> np.ndarray:
    """Physical code states (rows) embedding logical configurations (rows)."""
    problem_idx, penalty_idx, width = layout(strategy, logical.shape[1])
    out = np.empty((logical.shape[0], width), dtype=np.int8)
    out[:, problem_idx] = logical[:, :, None]
    if penalty_idx is not None:
        out[:, penalty_idx] = logical
    return out


def encoded_couplings(strategy: str, length: int, alpha: float, beta: float) -> dict:
    """Physical couplings of the antiferromagnetic chain under a strategy."""
    problem_idx, penalty_idx, _ = layout(strategy, length)
    out = {}
    for i in range(length - 1):
        for qa, qb in zip(problem_idx[i], problem_idx[i + 1]):
            out[(int(qa), int(qb))] = alpha
    if strategy in ("EP", "QAC"):
        for i in range(length):
            for q in problem_idx[i]:
                out[(int(q), int(penalty_idx[i]))] = -beta
    return out


def kernel_for(num_qubits: int) -> str:
    """The calibration kernel that work on ``num_qubits`` resembles: from 7
    qubits on, dense eigensolves of 128 or more dimensions dominate; below,
    interpreted overhead around small arrays does."""
    return "dense" if num_qubits >= 7 else "interpreted"


def basis_spins(num_qubits: int) -> np.ndarray:
    idx = np.arange(1 << num_qubits)[:, None]
    return (1 - 2 * ((idx >> (num_qubits - 1 - np.arange(num_qubits))) & 1)).astype(np.int8)


def state_sets(strategy: str, length: int, alpha: float, beta: float):
    """Basis indices of the exact ground configurations and of those that
    majority-decode to a logical ground, found by brute force."""
    problem_idx, _, width = layout(strategy, length)
    energies = ref.brute_force_energies(width, {}, encoded_couplings(strategy, length, alpha, beta))
    ground = np.flatnonzero(energies <= energies.min() + 1e-9)
    spins = basis_spins(width)
    logical = np.where(spins[:, problem_idx].sum(axis=2) > 0, 1, -1)
    grounds = chain_grounds(length)
    decodable = np.flatnonzero((logical[:, None, :] == grounds[None]).all(axis=2).any(axis=1))
    return ground, decodable


def check_encoded(prob, strategy: str, length: int, alpha: float, beta: float) -> list[str]:
    expected = encoded_couplings(strategy, length, alpha, beta)
    width = layout(strategy, length)[2]
    if prob.num_physical != width or prob.physical.local_fields:
        return [f"{strategy}: {prob.num_physical} qubits with fields {prob.physical.local_fields}"]
    got = prob.physical.couplings
    if set(got) != set(expected) or any(abs(got[k] - v) > 1e-15 for k, v in expected.items()):
        return [f"{strategy}: physical couplings differ from the layout"]
    return []


def check_anneal_state(rho: np.ndarray, pure: bool) -> list[str]:
    out = []
    if pure:
        if abs(np.linalg.norm(rho) - 1.0) > 1e-8:
            out.append(f"norm {np.linalg.norm(rho)}")
        return out
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        out.append("final state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        out.append(f"trace {np.trace(rho).real}")
    low = np.linalg.eigvalsh(rho).min()
    if low < -1e-7:
        out.append(f"eigenvalue {low}")
    return out


def check_readout(out, strategy: str, length: int, sets) -> list[str]:
    """Populations against brute-force sets; shot decoding against the
    reference vote counter."""
    problems = []
    ground, decodable = sets
    pops, (p_gs, p_s), samples, (e_gs, e_s) = out["pops"], out["p"], out["samples"], out["e"]
    if not (p_gs <= p_s + 1e-12 and p_s <= 1.0 + 1e-12):
        problems.append(f"P_GS {p_gs} and P_S {p_s} out of order")
    if abs(pops[ground].sum() - p_gs) > 1e-12 or abs(pops[decodable].sum() - p_s) > 1e-12:
        problems.append("success probabilities differ from the brute-force sets")
    bits = np.array([r.bits for r in samples.records], dtype=np.int8)
    counts = np.array([r.count for r in samples.records])
    grounds = chain_grounds(length)
    n_gs, n_s = ref.vote_counts(bits, counts, layout(strategy, length)[0], grounds, code_states(strategy, grounds))
    if counts.sum() != SHOTS or (e_gs, e_s) != (n_gs / SHOTS, n_s / SHOTS):
        problems.append("sampled P_GS/P_S differ from the reference vote counts")
    # 6 standard deviations of a binomial estimate, plus one shot
    if abs(e_s - p_s) > 6.0 * np.sqrt(max(p_s * (1 - p_s), 0.0) / SHOTS) + 1.0 / SHOTS:
        problems.append(f"sampled P_S {e_s} far from P_S {p_s}")
    return problems


# ---------------------------------------------------------------------------
# chimera-decode


class ChimeraDecode:
    """Majority-vote decoding of synthetic hardware readouts on an 8x8-cell
    Chimera graph with defects, chains of 4 to 86 logical qubits."""

    SETUP_EVERY, SETUP_BATCH = 54, 1  # a set-up takes about 0.5 s: two a round
    ROWS = COLS = 8
    DEFECTS = 9  # 512 - 9 = 503 working qubits
    # dense up to 24, so that the costs of the points around the median
    # (lengths 10 to 24) form a continuum; a round takes about 10 s
    LENGTHS = (4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 32, 48, 86)
    EMBEDDINGS = 2
    READS = 200
    ALPHA, BETA = 0.5, 0.2
    KINK = 0.003  # per logical bond

    def __init__(self, seed: int, tracer: Tracer):
        self.seed = seed
        self.tracer = tracer
        rng = np.random.default_rng(seed)
        self.defects = frozenset(int(q) for q in rng.choice(2 * 4 * self.ROWS * self.COLS, self.DEFECTS, replace=False))
        self.embed_seeds = {L: int(rng.integers(2**31)) for L in self.LENGTHS}

    @classmethod
    def flip_rate(cls, length: int, strategy: str) -> float:
        """Physical flip rate: low on short chains, high on long ones; an
        unencoded spin has no vote to absorb a flip, so U gets a quarter."""
        p = 0.004 + 0.036 * (length - 4) / (cls.LENGTHS[-1] - 4)
        return p / 4.0 if strategy == "U" else p

    @classmethod
    def block_failure(cls, length: int, strategy: str) -> float:
        p = cls.flip_rate(length, strategy)
        return p if strategy == "U" else 3 * p**2 * (1 - p) + p**3

    def setup(self) -> None:
        sp = self.tracer.span
        with sp("topology.build"):
            hw = topology.build_chimera(self.ROWS, self.COLS, 4, self.defects)
            encoding, graph = topology.build_encoding(hw)
        self.hw = hw
        self.paths, self.problems, self.grounds = {}, {}, {}
        for L in self.LENGTHS:
            with sp("topology.embed_chain"):
                self.paths[L] = topology.embed_chain(graph, L, self.EMBEDDINGS, rng_seed=self.embed_seeds[L])
            with sp("problem.make_af_chain"):
                chain = problem.make_af_chain(L)
            with sp("decode.ground_reference"):
                self.grounds[L] = decode.ground_reference(chain)
            for e, path in enumerate(self.paths[L]):
                with sp("topology.build"):
                    enc = topology.LogicalEncoding(3, tuple(encoding.block_by_id(lid) for lid in path), host=hw)
                for S in STRATEGIES:
                    beta = self.BETA if S in ("EP", "QAC") else 0.0
                    with sp("problem.encode_problem"):
                        self.problems[L, e, S] = problem.encode_problem(chain, S, self.ALPHA, beta, enc)

    # -- checks of the set-up ---------------------------------------------------

    def _qubit(self, lid: int, shore_role: str, index: int) -> int:
        cell, pos = divmod(lid, 2)
        problem_shore = pos
        shore = problem_shore if shore_role == "problem" else 1 - problem_shore
        return 8 * cell + 4 * shore + index

    def _coupler_ok(self, a: int, b: int) -> bool:
        if a in self.defects or b in self.defects:
            return False
        (ca, sa, ia), (cb, sb, ib) = ((q // 8, (q % 8) // 4, q % 4) for q in (a, b))
        if ca == cb:
            ok = sa != sb
        elif sa != sb or ia != ib:
            ok = False
        else:
            (ra, cola), (rb, colb) = divmod(ca, self.COLS), divmod(cb, self.COLS)
            ok = (cola == colb and abs(ra - rb) == 1) if sa == 0 else (ra == rb and abs(cola - colb) == 1)
        return ok and (min(a, b), max(a, b)) in self.hw.edges

    def check_setup(self) -> list[str]:
        problems = []
        for L in self.LENGTHS:
            if len(self.paths[L]) != self.EMBEDDINGS:
                problems.append(f"L={L}: {len(self.paths[L])} embeddings")
            if sorted(map(tuple, chain_grounds(L).tolist())) != sorted(self.grounds[L]):
                problems.append(f"L={L}: ground reference differs")
            for e, path in enumerate(self.paths[L]):
                if len(path) != L or len(set(path)) != L:
                    problems.append(f"L={L} e={e}: not a simple path of {L} blocks")
                    continue
                hw_ids = {}
                for lid in path:
                    prob_q = [self._qubit(lid, "problem", i) for i in range(3)]
                    pen_q = self._qubit(lid, "penalty", 3)
                    hw_ids[lid] = (prob_q, pen_q)
                    if not all(self._coupler_ok(q, pen_q) for q in prob_q):
                        problems.append(f"L={L} e={e}: block {lid} is not complete")
                for u, v in zip(path, path[1:]):
                    if not all(self._coupler_ok(a, b) for a, b in zip(hw_ids[u][0], hw_ids[v][0])):
                        problems.append(f"L={L} e={e}: blocks {u}-{v} lack a coupler")
                for S in STRATEGIES:
                    prob = self.problems[L, e, S]
                    problems += check_encoded(prob, S, L, self.ALPHA, self.BETA if S in ("EP", "QAC") else 0.0)
                    if S == "U":
                        continue
                    expected = [q for lid in path for q in hw_ids[lid][0] + ([hw_ids[lid][1]] if S != "C" else [])]
                    if list(prob.hardware_ids) != expected:
                        problems.append(f"L={L} e={e} {S}: hardware ids differ from the embedding")
        return problems

    # -- points -----------------------------------------------------------------

    def sample(self, rng, length: int, strategy: str):
        """Readouts as (bits, count) records: logical kinks, independent
        physical flips of problem and penalty qubits, merged duplicates."""
        first = rng.choice(np.array([-1, 1], dtype=np.int8), size=(self.READS, 1))
        bonds = np.where(rng.random((self.READS, length - 1)) < self.KINK, 1, -1).astype(np.int8)
        logical = first * np.concatenate([np.ones((self.READS, 1), np.int8), np.cumprod(bonds, axis=1, dtype=np.int8)], axis=1)
        bits = code_states(strategy, logical)
        bits *= np.where(rng.random(bits.shape) < self.flip_rate(length, strategy), -1, 1).astype(np.int8)
        uniq, counts = np.unique(bits, axis=0, return_counts=True)
        order = rng.permutation(len(uniq))
        return uniq[order], counts[order]

    def _decode_point(self, round_index, L, e, S, rng) -> Point:
        prob = self.problems[L, e, S]
        grounds = self.grounds[L]
        bits, counts = self.sample(rng, L, S)
        rows = [tuple(r) for r in bits.tolist()]
        tr = self.tracer

        def run():
            tr.count("decode.reads", self.READS)
            tr.count("decode.records", len(rows))
            with tr.span("decode.sample_set"):
                samples = decode.SampleSet(
                    tuple(decode.SampleRecord(b, int(c), e) for b, c in zip(rows, counts)), prob
                )
            with tr.span("decode.histogram_suite"):
                suite = decode.histogram_suite(samples, prob, grounds, symmetrize=True)
            with tr.span("decode.empirical_success"):
                p = decode.empirical_success(samples, prob)
            return suite, p

        def check(out):
            suite, (p_gs, p_s) = out
            g = chain_grounds(L)
            n_gs, n_s = ref.vote_counts(bits, counts, layout(S, L)[0], g, code_states(S, g))
            problems = []
            if (p_gs, p_s) != (n_gs / self.READS, n_s / self.READS):
                problems.append(f"(P_GS, P_S) = {(p_gs, p_s)}, reference {(n_gs / self.READS, n_s / self.READS)}")
            if suite.total_count != self.READS or sum(t for t, _ in suite.decodability.values()) != self.READS:
                problems.append("histogram totals differ from the number of readouts")
            if suite.hamming_logical.get(0, 0.0) != p_s:
                problems.append("share at logical distance 0 differs from P_S")
            return problems

        return Point(f"round{round_index}/L={L}/e={e}/{S}", run, check)

    def _fit_point(self, round_index, S, decode_points) -> Point:
        tr = self.tracer
        n = self.EMBEDDINGS * self.READS

        def run():
            data = [
                (L, float(np.mean([decode_points[L, e, S].output[1][1] for e in range(self.EMBEDDINGS)])))
                for L in self.LENGTHS
            ]
            with tr.span("classical.fit"):
                return data, classical.lorentzian_fit(data), classical.exponential_fit(data)

        def check(out):
            data, lor, expo = out
            ns = np.array([L for L, _ in data], dtype=float)
            ps = np.array([p for _, p in data])
            problems = []
            loss = float(np.sum((ps - 1.0 / (1.0 + lor.p * ns**2)) ** 2))
            if lor.p < 0 or abs(loss - lor.residual) > 1e-12 * max(1.0, loss):
                problems.append(f"Lorentzian fit p={lor.p} residual {lor.residual} vs {loss}")
            # the sampler's success curve, its least-squares rate, and the
            # delta-method spread of a fit to n readouts per length
            model = np.array([(1 - self.KINK) ** (L - 1) * (1 - self.block_failure(L, S)) ** L for L in self.LENGTHS])
            grid = np.linspace(0.0, 0.1, 100001)
            curves = (1.0 - grid[:, None]) ** (ns[None, :] - 1.0)
            p_star = float(grid[np.argmin(((curves - model[None, :]) ** 2).sum(axis=1))])
            slope = -(ns - 1.0) * (1.0 - p_star) ** (ns - 2.0)
            sigma = np.sqrt(np.sum(slope**2 * model * (1 - model) / n)) / np.sum(slope**2)
            if abs(expo.p - p_star) > 6.0 * sigma + 1e-5:
                problems.append(f"exponential rate {expo.p:.5f}, sampler's {p_star:.5f} +- {sigma:.5f}")
            return problems

        return Point(f"round{round_index}/fit/{S}", run, check)

    def round(self, index: int):
        decode_points = {}
        for li, L in enumerate(self.LENGTHS):
            for e in range(self.EMBEDDINGS):
                for si, S in enumerate(STRATEGIES):
                    rng = np.random.default_rng([self.seed, index, li, e, si])
                    point = decode_points[L, e, S] = self._decode_point(index, L, e, S, rng)
                    yield point
        for S in STRATEGIES:
            yield self._fit_point(index, S, decode_points)


# ---------------------------------------------------------------------------
# shared by the anneal workloads


class _AnnealBase:
    # a set-up takes about 0.5 ms: a batch of them after every point
    SETUP_EVERY, SETUP_BATCH = 1, 20

    def __init__(self, seed: int, tracer: Tracer):
        self.tracer = tracer
        # fixed problem parameters: the integrator's step count, and so the
        # cost of a point, moves with them; the seed draws the readout shots
        self.alpha, self.beta = 0.3, 0.2
        self.rng = np.random.default_rng(seed)
        self._refs: dict = {}
        self._sets: dict = {}
        self._first: dict = {}

    def _encode(self, lengths) -> None:
        sp = self.tracer.span
        with sp("problem.schedule_linear"):
            self.schedule = problem.schedule_linear(A0, T_F_US)
        self.problems, self.grounds = {}, {}
        for L in lengths:
            with sp("problem.make_af_chain"):
                chain = problem.make_af_chain(L)
            with sp("decode.ground_reference"):
                self.grounds[L] = decode.ground_reference(chain)
            for S in STRATEGIES:
                with sp("problem.encode_problem"):
                    self.problems[L, S] = problem.encode_problem(chain, S, self.alpha, self._beta(S))

    def _beta(self, S: str) -> float:
        return self.beta if S in ("EP", "QAC") else 0.0

    def _check_problems(self) -> list[str]:
        out = []
        for (L, S), prob in self.problems.items():
            out += check_encoded(prob, S, L, self.alpha, self._beta(S))
        return out

    def _readout(self, final, prob, shot_seed):
        tr = self.tracer
        with tr.span("dynamics.success_probabilities"):
            p = dynamics.success_probabilities(final, prob)
        with tr.span("dynamics.sample_readout"):
            samples = dynamics.sample_readout(final, SHOTS, rng_seed=shot_seed)
        with tr.span("decode.empirical_success"):
            e = decode.empirical_success(samples, prob)
        return {"pops": final.populations(), "p": p, "samples": samples, "e": e, "data": final.data}

    def _sets_for(self, S: str, L: int):
        if (S, L) not in self._sets:
            self._sets[S, L] = state_sets(S, L, self.alpha, self._beta(S))
        return self._sets[S, L]

    def _operators(self, S: str, L: int):
        """Reference transverse and Ising operators, shared by EP and QAC."""
        key = ("ops", "EP" if S == "QAC" else S, L)
        if key not in self._refs:
            width = layout(S, L)[2]
            self._refs[key] = (ref.transverse_sum(width),
                               ref.ising_diagonal(width, {}, encoded_couplings(S, L, self.alpha, self._beta(S))))
        return self._refs[key]

    def _schrodinger(self, S: str, L: int) -> np.ndarray:
        key = ("psi", "EP" if S == "QAC" else S, L)
        if key not in self._refs:
            hx, hz = self._operators(S, L)
            self._refs[key] = ref.schrodinger(hx, hz, linear_a, linear_b, T_F_US * 1e3,
                                              ref.transverse_ground(hx.shape[0].bit_length() - 1),
                                              rtol=1e-9, atol=1e-11)
        return self._refs[key]

    def _compare_pure(self, S: str, L: int, pops: np.ndarray, rho_or_psi: np.ndarray, truncated: bool) -> list[str]:
        """Against the Schroedinger reference: untruncated anneals to
        ANNEAL_TOL; truncated ones can misplace at most the population the
        reference moves out of the ground states."""
        psi = self._schrodinger(S, L)
        ground, decodable = self._sets_for(S, L)
        ref_pops = np.abs(psi) ** 2
        d_gs = abs(pops[ground].sum() - ref_pops[ground].sum())
        d_s = abs(pops[decodable].sum() - ref_pops[decodable].sum())
        if truncated:
            tol = 1.0 - ref_pops[ground].sum()
            return [] if max(d_gs, d_s) <= tol else [f"truncated anneal off the reference by {max(d_gs, d_s):.2e} > {tol:.2e}"]
        if rho_or_psi.ndim == 1:
            fidelity = abs(np.vdot(psi, rho_or_psi)) ** 2
        else:
            fidelity = float(np.real(np.vdot(psi, rho_or_psi @ psi)))
        if max(d_gs, d_s) > ANNEAL_TOL or fidelity < 1.0 - ANNEAL_TOL:
            return [f"off the Schroedinger reference: dP {max(d_gs, d_s):.2e}, fidelity {fidelity:.10f}"]
        return []

    def _repeat_check(self, key: str, out) -> list[str] | None:
        """Later rounds repeat round 0's inputs, so outputs must repeat exactly."""
        base = key.split("/", 1)[1]
        if base not in self._first:
            self._first[base] = out
            return None
        first = self._first[base]
        same = first["p"] == out["p"] and first["e"] == out["e"] and np.array_equal(first["data"], out["data"])
        return [] if same else ["output differs from round 0 on the same inputs"]


# ---------------------------------------------------------------------------
# open-anneal


class OpenAnneal(_AnnealBase):
    """Master-equation anneals of the two-spin chain under U, C, EP, QAC."""

    LENGTH = 2

    def __init__(self, seed: int, tracer: Tracer):
        super().__init__(seed, tracer)
        # (strategy, kappa, levels): level counts sit where no degenerate
        # cluster is cut for 0 < s < 1 (C: 32), or follow the cheapest count
        # that keeps the first excited manifold (EP, QAC: 8).  The ten U
        # points at kappa > 0, about a second each, are the middle of the
        # round, so they set point_s_p50.
        kappas = (0.0, 2.5e-4, 5e-4, 7.5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3, 6e-3, 8e-3)
        self.plan = [("U", k, None) for k in kappas]
        self.plan += [("C", 0.0, None), ("C", 1e-3, 32), ("EP", 1e-3, 8), ("QAC", 1e-3, 8)]
        self.shot_seeds = [int(s) for s in self.rng.integers(2**31, size=len(self.plan))]

    def setup(self) -> None:
        self._encode([self.LENGTH])
        with self.tracer.span("master_equation.BathSpec"):
            self.baths = {k: master_equation.BathSpec(k) for _, k, _ in self.plan}

    def check_setup(self) -> list[str]:
        return self._check_problems()

    def round(self, index: int):
        L = self.LENGTH
        for (S, kappa, levels), shot_seed in zip(self.plan, self.shot_seeds):
            yield self._point(index, L, S, kappa, levels, shot_seed)

    def _point(self, index, L, S, kappa, levels, shot_seed) -> Point:
        prob, bath, tr = self.problems[L, S], self.baths[kappa], self.tracer
        key = f"round{index}/{S}/kappa={kappa:.3g}/levels={levels}"

        def run():
            with tr.span(f"master_equation.evolve_open.{S}"):
                traj = master_equation.evolve_open(prob, self.schedule, bath, levels=levels,
                                                   rtol=RTOL if levels is None else TRUNCATED_RTOL)
            return self._readout(traj.final, prob, shot_seed)

        def check(out):
            repeat = self._repeat_check(key, out)
            if repeat is not None:
                return repeat
            problems = check_anneal_state(out["data"], pure=False)
            problems += check_readout(out, S, L, self._sets_for(S, L))
            if kappa == 0.0:
                problems += self._compare_pure(S, L, out["pops"], out["data"], truncated=levels is not None)
            elif S == "U":
                hx, hz = self._operators(S, L)
                psi0 = ref.transverse_ground(L)
                rho = ref.master_equation(hx, hz, linear_a, linear_b, T_F_US * 1e3, np.outer(psi0, psi0.conj()),
                                          kappa, bath.omega_c, bath.temperature, rtol=1e-7, atol=1e-9)
                diff = np.abs(rho - out["data"]).max()
                if diff > ANNEAL_TOL:
                    problems.append(f"off the reference master equation by {diff:.2e}")
            return problems

        return Point(key, run, check, kernel_for(prob.num_physical))


# ---------------------------------------------------------------------------
# closed-spectrum


class ClosedSpectrum(_AnnealBase):
    """Closed anneals, gap profiles, classical gaps and perturbative curves."""

    LEVELS = {"U": None, "C": None, "EP": 8, "QAC": 8}
    GAP_PROFILES = [(2, S) for S in STRATEGIES] + [(3, "U"), (3, "C")]
    GRID = 201
    # 91 points make each 16-dimensional curve about 0.1 s; those four curves
    # are the middle of the round, so they set point_s_p50
    PERTURB_S = np.linspace(0.1, 0.85, 91)
    PERTURB_BETAS = (0.1, 0.05, 0.025, 0.0125)

    def __init__(self, seed: int, tracer: Tracer):
        super().__init__(seed, tracer)
        self.shot_seeds = {S: int(self.rng.integers(2**31)) for S in STRATEGIES}

    def setup(self) -> None:
        self._encode([2, 3])
        with self.tracer.span("perturb.PerturbParams"):
            self.params = {
                b: perturb.PerturbParams(A0=1.0, omega=1.0, omega0=0.01, beta=b) for b in self.PERTURB_BETAS
            }

    def check_setup(self) -> list[str]:
        return self._check_problems()

    def round(self, index: int):
        # the four 16-dimensional curves set point_s_p50: each follows an
        # anneal, so that they run seconds apart, at different machine speeds
        curves = {}
        gaps = [self._gap_point(index, L, S) for L, S in self.GAP_PROFILES]
        for i, S in enumerate(STRATEGIES):
            yield self._anneal_point(index, S)
            yield self._perturb_point(index, "logical", self.PERTURB_BETAS[i], curves)
            yield from gaps[i::len(STRATEGIES)]
        for L in (2, 3):
            for S in STRATEGIES:
                yield self._classical_point(index, L, S)
        for b in self.PERTURB_BETAS:
            yield self._perturb_point(index, "pairs", b, curves)

    def _anneal_point(self, index, S) -> Point:
        L, prob, tr, levels = 2, self.problems[2, S], self.tracer, self.LEVELS[S]
        key = f"round{index}/anneal/{S}/levels={levels}"

        def run():
            with tr.span(f"dynamics.evolve_closed.{S}"):
                traj = dynamics.evolve_closed(prob, self.schedule, levels=levels,
                                             rtol=RTOL if levels is None else TRUNCATED_RTOL)
            return self._readout(traj.final, prob, self.shot_seeds[S])

        def check(out):
            repeat = self._repeat_check(key, out)
            if repeat is not None:
                return repeat
            problems = check_anneal_state(out["data"], pure=True)
            problems += check_readout(out, S, L, self._sets_for(S, L))
            problems += self._compare_pure(S, L, out["pops"], out["data"], truncated=levels is not None)
            return problems

        return Point(key, run, check, kernel_for(prob.num_physical))

    def _gap_point(self, index, L, S) -> Point:
        prob, tr = self.problems[L, S], self.tracer

        def run():
            with tr.span("dynamics.gap_profile"):
                return dynamics.gap_profile(prob, self.schedule, grid_points=self.GRID)

        def check(profile):
            hx, hz = self._operators(S, L)
            level = int(np.sum(hz <= hz.min() + 1e-9))  # first level above the ground manifold
            problems = []
            if profile.level_index != level:
                problems.append(f"gap level {profile.level_index}, expected {level}")
            for i in range(0, self.GRID, 25):
                s = float(profile.s[i])
                want = ref.anneal_gap(hx, hz, linear_a(s), linear_b(s), level)
                if abs(profile.gap[i] - want) > 1e-9 * max(1.0, 2 * A0 * hx.shape[0].bit_length()):
                    problems.append(f"gap at s={s} is {profile.gap[i]}, dense eigvalsh {want}")
            if (L, S) == (2, "U"):
                s_star = (4 - self.alpha**2) / (4 + self.alpha**2)
                if abs(profile.s_min - s_star) > 1.0 / (self.GRID - 1):
                    problems.append(f"U gap minimum at s={profile.s_min}, expected {s_star}")
            return problems

        return Point(f"round{index}/gap/L={L}/{S}", run, check, kernel_for(prob.num_physical))

    def _classical_point(self, index, L, S) -> Point:
        prob, tr = self.problems[L, S], self.tracer

        def run():
            with tr.span("problem.classical_excitation_gaps"):
                return problem.classical_excitation_gaps(prob)

        def check(levels):
            width = layout(S, L)[2]
            all_c = encoded_couplings(S, L, 1.0, 1.0)
            u = ref.brute_force_energies(width, {}, {k: v for k, v in all_c.items() if v > 0})
            v = ref.brute_force_energies(width, {}, {k: v for k, v in all_c.items() if v < 0})
            want = ref.classical_levels(u, v, self.alpha, self._beta(S))
            got = sorted((lv.problem_weight, lv.penalty_weight, lv.degeneracy) for lv in levels)
            problems = [] if got == want else [f"levels {got[:4]}..., brute force {want[:4]}..."]
            for lv in levels:
                if abs(lv.gap - (lv.problem_weight * self.alpha + lv.penalty_weight * self._beta(S))) > 1e-12:
                    problems.append(f"gap {lv.gap} is not its weights times alpha and beta")
            return problems

        return Point(f"round{index}/classical/L={L}/{S}", run, check)

    def _perturb_point(self, index, model, beta, curves) -> Point:
        params, tr, grid = self.params[beta], self.tracer, self.PERTURB_S
        if model == "logical":
            gap_fn, model_fn, manifold_fn = (perturb.logical_qubit_perturbed_gap, perturb.single_logical_model,
                                             perturb.single_logical_excited_manifold)
        else:
            gap_fn, model_fn, manifold_fn = (perturb.coupled_pairs_perturbed_gap, perturb.coupled_pairs_model,
                                             perturb.coupled_pairs_excited_manifold)

        def run():
            with tr.span("perturb.gap_curves"):
                approx = gap_fn(params, grid)
                exact = np.array([perturb.exact_relevant_gap(model_fn(params, s), manifold_fn(params, s)) for s in grid])
            return approx, exact

        def check(out):
            approx, exact = out
            problems = []
            s = float(grid[len(grid) // 2])
            if np.abs(model_fn(params, s) - _perturb_reference(model, params, s)).max() > 1e-12:
                problems.append(f"{model} model Hamiltonian differs from the Kronecker reference")
            curves[model, beta] = np.abs(approx - exact).max()
            larger = 2.0 * beta
            if beta < 0.05 and (model, larger) in curves:
                ratio = curves[model, larger] / curves[model, beta]
                # error of a first-order formula scales as beta^2, of the
                # second-order one (odd orders vanish by symmetry) as beta^4
                lo, hi = (3.0, 5.0) if model == "logical" else (12.0, 20.0)
                if not lo <= ratio <= hi:
                    problems.append(f"{model}: error ratio {ratio:.2f} from beta={larger} to {beta}, expected {lo}-{hi}")
            return problems

        return Point(f"round{index}/perturb/{model}/beta={beta}", run, check,
                     kernel_for(4 if model == "logical" else 7))


def _perturb_reference(model: str, params, s: float) -> np.ndarray:
    """The two perturbative model Hamiltonians, from their docstrings."""
    A0, kron = params.A0, ref.kron_op
    if model == "logical":
        H = np.zeros((16, 16))
        for q in range(4):
            w = params.omega if q < 3 else params.omega0
            H += A0 * (1 - s) * kron(4, {q: ref.SX}) + A0 * s * 0.5 * w * kron(4, {q: ref.SZ})
        for q in range(3):
            H -= A0 * s * params.beta * kron(4, {q: ref.SZ, 3: ref.SZ})
        return H
    H = np.zeros((128, 128))
    for pair in range(3):
        a, b = 2 * pair, 2 * pair + 1
        H += A0 * (1 - s) * (kron(7, {a: ref.SX}) + kron(7, {b: ref.SX})) + A0 * s * kron(7, {a: ref.SZ, b: ref.SZ})
        H -= A0 * s * params.beta * kron(7, {a: ref.SZ, 6: ref.SZ})
    H += A0 * (1 - s) * kron(7, {6: ref.SX}) + A0 * s * 0.5 * params.omega0 * kron(7, {6: ref.SZ})
    return H


WORKLOADS = {"chimera-decode": ChimeraDecode, "open-anneal": OpenAnneal, "closed-spectrum": ClosedSpectrum}

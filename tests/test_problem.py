import itertools

import numpy as np
import pytest

from qacsim.errors import ResourceLimitError, ValidationError
from qacsim.problem import (
    AnnealSchedule,
    IsingProblem,
    all_config_energies,
    classical_excitation_gaps,
    config_from_index,
    dense_encoding,
    encode_problem,
    ising_energy,
    make_af_chain,
    schedule_linear,
)
from qacsim.topology import LogicalEncoding, build_chimera, build_encoding


def naive_energy(config, problem):
    # independent oracle: plain loops, no vectorization shared with the library
    e = 0.0
    for i, h in problem.local_fields.items():
        e += h * config[i]
    for (i, j), v in problem.couplings.items():
        e += v * config[i] * config[j]
    return e


def enumerate_energies(problem):
    out = []
    for bits in itertools.product((1, -1), repeat=problem.num_spins):
        out.append(naive_energy(bits, problem))
    return out


class TestAfChain:
    def test_length_two(self):
        chain = make_af_chain(2)
        assert chain.couplings == {(0, 1): 1.0}
        assert chain.local_fields == {}

    def test_length_86(self):
        assert len(make_af_chain(86).couplings) == 85

    def test_ground_states_alternate(self):
        chain = make_af_chain(3)
        energies = all_config_energies(chain)
        grounds = {tuple(config_from_index(i, 3)) for i in np.flatnonzero(energies == energies.min())}
        assert grounds == {(1, -1, 1), (-1, 1, -1)}

    def test_too_short(self):
        with pytest.raises(ValidationError):
            make_af_chain(1)


@pytest.mark.parametrize(
    "fields,couplings",
    [({1: np.nan}, {}), ({}, {(0, 1): np.nan, (1, 2): 1.0})],
    ids=["field", "coupling"],
)
def test_nan_terms_rejected(fields, couplings):
    # NaN fails every comparison, so it must fail the bound, not slip past it
    with pytest.raises(ValidationError):
        IsingProblem(3, fields, couplings)


class TestIsingEnergy:
    def test_af_pair(self):
        pair = make_af_chain(2)
        assert ising_energy([1, -1], pair) == -1.0
        assert ising_energy([1, 1], pair) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ising_energy([1, 1, 1], make_af_chain(2))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        problem = IsingProblem(
            5,
            {0: 0.3, 3: -0.7},
            {(0, 1): 0.5, (1, 4): -0.25, (2, 3): 1.0},
        )
        for _ in range(20):
            cfg = rng.choice([-1, 1], size=5)
            assert ising_energy(cfg, problem) == pytest.approx(naive_energy(cfg, problem), abs=1e-14)

    def test_all_config_energies_vs_enumeration(self):
        problem = IsingProblem(4, {1: -0.5}, {(0, 2): 0.8, (1, 3): -0.4})
        expected = enumerate_energies(problem)
        assert np.allclose(all_config_energies(problem), expected, atol=1e-14)

    def test_spin_cap(self):
        with pytest.raises(ResourceLimitError):
            all_config_energies(IsingProblem(25))


class TestIndexConvention:
    def test_bit_zero_is_spin_up(self):
        assert list(config_from_index(0, 3)) == [1, 1, 1]
        assert list(config_from_index(0b100, 3)) == [-1, 1, 1]


class TestEncodeProblem:
    def test_qac_pair_structure(self):
        prob = encode_problem(make_af_chain(2), "QAC", alpha=0.3, beta=0.2)
        assert prob.num_physical == 8
        values = sorted(prob.physical.couplings.values())
        assert values.count(0.3) == 3
        assert values.count(-0.2) == 6
        assert len(values) == 9

    def test_u_identity(self):
        prob = encode_problem(make_af_chain(2), "U", alpha=1.0)
        assert prob.num_physical == 2
        assert prob.physical.couplings == {(0, 1): 1.0}

    def test_c_three_copies_no_penalty(self):
        prob = encode_problem(make_af_chain(2), "C", alpha=0.5)
        assert prob.num_physical == 6
        assert all(v == 0.5 for v in prob.physical.couplings.values())
        assert len(prob.physical.couplings) == 3

    def test_ep_and_qac_share_physical(self):
        ep = encode_problem(make_af_chain(3), "EP", 0.6, 0.4)
        qac = encode_problem(make_af_chain(3), "QAC", 0.6, 0.4)
        assert ep.physical == qac.physical

    def test_logical_coupling_strength_3alpha(self):
        # a logical edge contributes 3*alpha per aligned code configuration
        prob = encode_problem(make_af_chain(2), "QAC", alpha=0.4, beta=0.0)
        e_af = ising_energy(prob.code_config([1, -1]), prob.physical)
        e_fm = ising_energy(prob.code_config([1, 1]), prob.physical)
        assert e_fm - e_af == pytest.approx(2 * 3 * 0.4, abs=1e-14)

    def test_beta_rejected_for_u_and_c(self):
        for strat in ("U", "C"):
            with pytest.raises(ValidationError):
                encode_problem(make_af_chain(2), strat, 1.0, beta=0.1)

    def test_missing_blocks_rejected(self):
        enc = dense_encoding(2)
        with pytest.raises(ValidationError):
            encode_problem(make_af_chain(3), "QAC", 0.5, 0.1, enc)

    @pytest.mark.parametrize("strategy", ["C", "EP", "QAC"])
    def test_host_couplers_required(self, strategy):
        # blocks 0 and 2 of a 2x2 Chimera host share no coupler: encoding a
        # logical edge between them used to couple (0,8), (1,9) and (2,10)
        host = build_chimera(2, 2, 4)
        blocks = build_encoding(host)[0].blocks
        beta = 0.0 if strategy == "C" else 0.2
        apart = LogicalEncoding(3, (blocks[0], blocks[2]), host=host)
        with pytest.raises(ValidationError, match=r"\(0, 8\), \(1, 9\), \(2, 10\)"):
            encode_problem(make_af_chain(2), strategy, 0.3, beta, apart)
        adjacent = encode_problem(make_af_chain(2), strategy, 0.3, beta, LogicalEncoding(3, blocks[:2], host=host))
        hw = adjacent.hardware_ids
        assert {(min(hw[a], hw[b]), max(hw[a], hw[b])) for a, b in adjacent.physical.couplings} <= host.edges

    def test_incomplete_block_drops_penalties_only(self):
        enc = dense_encoding(2, incomplete={1})
        prob = encode_problem(make_af_chain(2), "QAC", 0.3, 0.2, enc)
        assert prob.num_physical == 7
        assert sorted(prob.physical.couplings.values()).count(-0.2) == 3

    def test_aligned_ground_energy(self):
        alpha, beta = 0.3, 0.2
        prob = encode_problem(make_af_chain(2), "QAC", alpha, beta)
        ground = ising_energy(prob.code_config([1, -1]), prob.physical)
        assert ground == pytest.approx(-3 * alpha - 6 * beta, abs=1e-14)
        # brute-force cross-check that nothing lies below it
        assert all_config_energies(prob.physical).min() == pytest.approx(ground, abs=1e-14)

    def test_code_space_equivalence(self):
        # physical energy of a code state = n*alpha*E_logical + penalty offset
        rng = np.random.default_rng(1)
        chain = make_af_chain(4)
        prob = encode_problem(chain, "QAC", 0.7, 0.3)
        offset = -3 * 0.3 * 4
        for _ in range(8):
            v = rng.choice([-1, 1], size=4)
            e_phys = ising_energy(prob.code_config(v), prob.physical)
            assert e_phys == pytest.approx(3 * 0.7 * ising_energy(v, chain) + offset, abs=1e-13)


class TestClassicalGaps:
    def test_u_pair(self):
        levels = classical_excitation_gaps(encode_problem(make_af_chain(2), "U", 1.0))
        assert len(levels) == 1
        assert levels[0].gap == 2.0
        assert levels[0].degeneracy == 2

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.1), (0.3, 0.2), (1.0, 0.2)])
    def test_qac_pair_named_gaps(self, alpha, beta):
        prob = encode_problem(make_af_chain(2), "QAC", alpha, beta)
        levels = classical_excitation_gaps(prob)
        weights = {(lv.problem_weight, lv.penalty_weight) for lv in levels}
        # both-blocks single flip, one single flip, one full logical flip
        assert {(0.0, 4.0), (2.0, 2.0), (6.0, 0.0)} <= weights
        by_weight = {(lv.problem_weight, lv.penalty_weight): lv for lv in levels}
        assert by_weight[(0.0, 4.0)].gap == 4.0 * beta
        assert by_weight[(2.0, 2.0)].gap == 2.0 * alpha + 2.0 * beta
        assert by_weight[(6.0, 0.0)].gap == 6.0 * alpha

    def test_degeneracies_against_enumeration(self):
        alpha, beta = 0.3, 0.1
        prob = encode_problem(make_af_chain(2), "QAC", alpha, beta)
        # independent oracle: enumerate all 2^8 configurations naively and
        # group by exact unscaled (problem, penalty) energy parts
        from collections import Counter

        parts = Counter()
        for bits in itertools.product((1, -1), repeat=8):
            u = naive_energy(bits, prob.problem_part)
            v = naive_energy(bits, prob.penalty_part)
            parts[(u, v)] += 1
        (u0, v0), _ = min(parts.items(), key=lambda kv: alpha * kv[0][0] + beta * kv[0][1])
        count_4b = parts[(u0, v0 + 4)]
        count_1flip = parts[(u0 + 2, v0 + 2)]
        levels = {(lv.problem_weight, lv.penalty_weight): lv for lv in classical_excitation_gaps(prob)}
        assert levels[(0.0, 4.0)].degeneracy == count_4b == 6
        assert levels[(2.0, 2.0)].degeneracy == count_1flip == 12

    def test_total_degeneracy_counts_all_configs(self):
        prob = encode_problem(make_af_chain(2), "QAC", 0.3, 0.2)
        levels = classical_excitation_gaps(prob)
        assert sum(lv.degeneracy for lv in levels) == 2**8 - 2


class TestSchedules:
    def test_linear_endpoints(self):
        sched = schedule_linear(1.5, t_f_us=10.0)
        assert sched.A_of(0.0) == 3.0 and sched.B_of(0.0) == 0.0
        assert sched.A_of(1.0) == 0.0 and sched.B_of(1.0) == 3.0
        assert sched.A_of(0.5) == pytest.approx(1.5)
        assert sched.B_of(0.5) == pytest.approx(1.5)
        assert sched.t_f_ns == 10000.0

    def test_lists_are_stored_as_float_arrays(self):
        sched = AnnealSchedule(20.0, [0, 0.5, 1], [3, 1, 0], [0, 1, 2])
        for values in (sched.s, sched.A, sched.B):
            assert isinstance(values, np.ndarray) and values.dtype == float
        assert sched.derivatives_of(np.array([0.25, 0.75])) == (pytest.approx([-4.0, -2.0]), pytest.approx([2.0, 2.0]))

    def test_endpoint_violation(self):
        with pytest.raises(ValidationError, match="A\\(1\\)"):
            AnnealSchedule(20.0, [0.0, 1.0], [33.8, 5.0], [0.0, 20.5])

    def test_non_monotone(self):
        with pytest.raises(ValidationError, match="increase"):
            AnnealSchedule(20.0, [0.0, 0.6, 0.4, 1.0], [3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "t_f_us,s,A,B",
        [
            pytest.param(20.0, [0.0], [1.0], [0.0], id="one-sample"),
            pytest.param(20.0, [0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 1.0], id="mismatched-lengths"),
            pytest.param(20.0, [0.0, 1.0], [1.0, 0.0], [0.5, 1.0], id="B0-nonzero"),
            pytest.param(0.0, [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], id="t_f-zero"),
            pytest.param(-1.0, [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], id="t_f-negative"),
            pytest.param(np.nan, [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], id="t_f-nan"),
            pytest.param(np.inf, [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], id="t_f-inf"),
            pytest.param(20.0, [0.0, 0.5, 1.0], [1.0, np.nan, 0.0], [0.0, 0.5, 1.0], id="A-nan"),
            pytest.param(20.0, [0.0, 0.5, 1.0], [1.0, 0.5, 0.0], [0.0, np.inf, 1.0], id="B-inf"),
            pytest.param(20.0, [0.0, 0.5, 1.0], [3.0, -3.0, 0.0], [0.0, 1.0, 2.0], id="A-negative"),
            pytest.param(20.0, [0.0, 0.5, 1.0], [3.0, 1.0, 0.0], [0.0, -1.0, 2.0], id="B-negative"),
            pytest.param(20.0, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 2.0], id="A0-zero"),
        ],
    )
    def test_rejects_bad_schedules(self, t_f_us, s, A, B):
        with pytest.raises(ValidationError):
            AnnealSchedule(t_f_us, s, A, B)


@pytest.mark.parametrize("call", [lambda: IsingProblem(2.5), lambda: make_af_chain(2.5)],
                         ids=["spins", "chain length"])
def test_sizes_must_be_integers(call):
    with pytest.raises(ValidationError, match="integer"):
        call()


def test_sizes_take_numpy_integers():
    assert make_af_chain(np.int64(3)) == make_af_chain(3)
    assert IsingProblem(np.int32(2)).num_spins == 2


@pytest.mark.parametrize("logical_config", [[1], [1, -1, 1]])
def test_code_config_needs_one_value_per_block(logical_config):
    # a longer config used to be cut silently
    with pytest.raises(ValidationError, match="blocks"):
        encode_problem(make_af_chain(2), "EP", 0.3, 0.2).code_config(logical_config)

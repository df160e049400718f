import itertools

import numpy as np
import pytest

from qacsim.decode import (
    SampleRecord,
    SampleSet,
    align_and_distance,
    decodable_mask,
    decode_record,
    empirical_success,
    ground_reference,
    histogram_suite,
    majority_decode,
)
from qacsim.dynamics import QuantumState, success_probabilities
from qacsim.errors import ValidationError
from qacsim.problem import (
    STRATEGIES,
    IsingProblem,
    dense_encoding,
    encode_problem,
    make_af_chain,
)
from qacsim.topology import build_chimera, build_encoding

# independent oracles: plain loops over blocks and basis states


def naive_blocks(encoding):
    return [(blk.problem_ids, blk.penalty_id) for blk in encoding.blocks]


def naive_vote(bits, encoding):
    logical, weights, flags = [], [], []
    for problem_ids, penalty in naive_blocks(encoding):
        ups = sum(1 for q in problem_ids if bits[q] == 1)
        value = 1 if 2 * ups > len(problem_ids) else -1
        logical.append(value)
        weights.append(sum(1 for q in problem_ids if bits[q] != value))
        flags.append(penalty is not None and bits[penalty] != value)
    return logical, weights, flags


def naive_align(decoded, grounds):
    best = None
    for g in grounds:
        d = sum(1 for a, b in zip(decoded, g) if a != b)
        if best is None or (d, g) < best:
            best = (d, g)
    return best[1], best[0]


def naive_energy(config, problem):
    e = 0.0
    for i, h in problem.local_fields.items():
        e += h * config[i]
    for (i, j), v in problem.couplings.items():
        e += v * config[i] * config[j]
    return e


def naive_code_state(logical, encoding, width):
    bits = [0] * width
    for k, (problem_ids, penalty) in enumerate(naive_blocks(encoding)):
        for q in list(problem_ids) + ([] if penalty is None else [penalty]):
            bits[q] = logical[k]
    return tuple(bits)


def basis_configs(num_spins):
    # itertools order is basis-index order: spin 0 most significant, +1 is bit 0
    return list(itertools.product((1, -1), repeat=num_spins))


def encoded(logical, strategy, encoding=None):
    beta = 0.25 if strategy in ("EP", "QAC") else 0.0
    return encode_problem(logical, strategy, 0.5, beta, encoding)


TRIANGLE = IsingProblem(3, {}, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})

CASES = [(S, None) for S in STRATEGIES] + [("EP", dense_encoding(3, incomplete={1})),
                                          ("QAC", dense_encoding(3, incomplete={1}))]


def test_u_is_the_length_one_code():
    chain = make_af_chain(3)
    u = encoded(chain, "U")
    assert u.encoding == dense_encoding(3, n=1, with_penalty=False)
    for bits in basis_configs(3):
        assert majority_decode(bits, u.encoding)[0].tolist() == list(bits)
    # U ignores a hardware encoding: same compact qubits, same hardware ids
    chimera, _ = build_encoding(build_chimera(2, 2, 4))
    assert encoded(chain, "U", chimera) == u


@pytest.mark.parametrize("strategy,encoding", CASES)
class TestMajorityDecode:
    def test_single_rows(self, strategy, encoding):
        problem = encoded(make_af_chain(3), strategy, encoding)
        rng = np.random.default_rng(1)
        for bits in rng.choice([-1, 1], size=(40, problem.num_physical)):
            logical, weights, flags = majority_decode(bits, problem.encoding)
            assert (logical.tolist(), weights.tolist(), flags.tolist()) == naive_vote(bits, problem.encoding)

    def test_array_of_rows_matches_row_by_row(self, strategy, encoding):
        problem = encoded(make_af_chain(3), strategy, encoding)
        rows = np.random.default_rng(2).choice([-1, 1], size=(25, problem.num_physical))
        logical, weights, flags = majority_decode(rows, problem.encoding)
        num_logical = 3
        assert logical.shape == weights.shape == flags.shape == (25, num_logical)
        for r, bits in enumerate(rows):
            assert (logical[r].tolist(), weights[r].tolist(), flags[r].tolist()) == naive_vote(bits, problem.encoding)


def test_incomplete_block_never_flags_a_penalty():
    enc = dense_encoding(3, incomplete={1})
    rows = np.array(basis_configs(enc.num_physical))
    _, _, flags = majority_decode(rows, enc)
    assert not flags[:, 1].any()
    assert flags[:, 0].any() and flags[:, 2].any()


class TestFrustratedTriangle:
    def test_six_grounds(self):
        grounds = ground_reference(TRIANGLE)
        assert len(grounds) == 6
        assert set(grounds) == set(basis_configs(3)) - {(1, 1, 1), (-1, -1, -1)}

    def test_align_tie_rule(self):
        grounds = ground_reference(TRIANGLE)
        for decoded in basis_configs(3):
            assert align_and_distance(decoded, grounds) == naive_align(decoded, grounds)
        # all-up is one flip from three grounds: the lexicographically smallest wins
        assert align_and_distance((1, 1, 1), grounds) == ((-1, 1, 1), 1)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_decode_record_and_hamming(self, strategy):
        problem = encoded(TRIANGLE, strategy)
        grounds = ground_reference(TRIANGLE)
        rng = np.random.default_rng(3)
        for bits in rng.choice([-1, 1], size=(60, problem.num_physical)):
            rec = decode_record(bits, problem, grounds)
            logical, _, _ = naive_vote(bits, problem.encoding)
            matched, d_logical = naive_align(tuple(logical), grounds)
            target = problem.code_config(matched)
            per_block = [(sum(1 for q in ids if bits[q] != target[q]), pen is not None and bits[pen] != target[pen])
                         for ids, pen in naive_blocks(problem.encoding)]
            d_physical = sum(1 for a, b in zip(bits, target) if a != b)
            assert rec.logical_config == tuple(logical)
            assert rec.matched_ground == matched
            assert rec.d_logical == d_logical
            assert rec.decodable == (d_logical == 0)
            assert rec.per_block_error_weight == tuple(w for w, _ in per_block)
            assert rec.penalty_flipped == tuple(f for _, f in per_block)
            assert rec.d_physical == d_physical
            assert rec.energy == pytest.approx(naive_energy(bits, problem.physical), abs=1e-12)


DECODABLE_CASES = [(make_af_chain(L), S) for L in (2, 3) for S in STRATEGIES] + [(TRIANGLE, "C"), (make_af_chain(12), "U")]


@pytest.mark.parametrize("logical,strategy", DECODABLE_CASES)
def test_decodable_mask_against_enumeration(logical, strategy):
    problem = encoded(logical, strategy)
    assert problem.num_physical <= 12
    grounds = set(ground_reference(logical))
    expected = [tuple(naive_vote(bits, problem.encoding)[0]) in grounds for bits in basis_configs(problem.num_physical)]
    assert decodable_mask(problem).tolist() == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_success_probabilities_against_enumeration(strategy):
    problem = encoded(make_af_chain(3), strategy)
    n = problem.num_physical
    amps = np.random.default_rng(4).normal(size=1 << n) + 1j * np.random.default_rng(5).normal(size=1 << n)
    state = QuantumState.pure(amps / np.linalg.norm(amps))
    pops = np.abs(state.data) ** 2
    configs = basis_configs(n)
    energies = [naive_energy(c, problem.physical) for c in configs]
    e_min = min(energies)
    grounds = set(ground_reference(problem.logical))
    p_gs = sum(p for p, e in zip(pops, energies) if e <= e_min + 1e-9)
    p_s = sum(p for p, c in zip(pops, configs) if tuple(naive_vote(c, problem.encoding)[0]) in grounds)
    got = success_probabilities(state, problem)
    assert got == pytest.approx((p_gs, p_s), rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# sample-set statistics against a plain loop over records


def noisy_samples(problem, seed):
    """Code ground states with independent physical flips, merged into
    records with random counts."""
    rng = np.random.default_rng(seed)
    grounds = ground_reference(problem.logical)
    counts = {}
    for _ in range(200):
        code = naive_code_state(grounds[rng.integers(len(grounds))], problem.encoding, problem.num_physical)
        bits = tuple(-b if rng.random() < 0.15 else b for b in code)
        counts[bits] = counts.get(bits, 0) + int(rng.integers(1, 4))
    return SampleSet(tuple(SampleRecord(bits, c) for bits, c in counts.items()), problem)


def naive_histograms(samples, problem, symmetrize):
    grounds = ground_reference(problem.logical)
    blocks = naive_blocks(problem.encoding)
    e_ground = naive_energy(naive_code_state(grounds[0], problem.encoding, problem.num_physical), problem.physical)
    total = sum(rec.count for rec in samples.records)
    ham_phys, ham_log, decodability = {}, {}, {}
    pos, pen = np.zeros((len(blocks), max(3, problem.encoding.n))), np.zeros(len(blocks))
    for rec in samples.records:
        logical, _, _ = naive_vote(rec.bits, problem.encoding)
        matched, d_logical = naive_align(tuple(logical), grounds)
        d_physical = 0
        for k, (problem_ids, penalty) in enumerate(blocks):
            weight = sum(1 for q in problem_ids if rec.bits[q] != matched[k])
            flipped = penalty is not None and rec.bits[penalty] != matched[k]
            d_physical += weight + flipped
            if weight:
                pos[k, weight - 1] += rec.count
            pen[k] += rec.count * flipped
        ham_phys[d_physical] = ham_phys.get(d_physical, 0) + rec.count
        ham_log[d_logical] = ham_log.get(d_logical, 0) + rec.count
        key = (d_physical, round((naive_energy(rec.bits, problem.physical) - e_ground) / problem.alpha, 9))
        seen, good = decodability.get(key, (0, 0))
        decodability[key] = (seen + rec.count, good + rec.count * (d_logical == 0))
    if symmetrize:
        pos, pen = 0.5 * (pos + pos[::-1]), 0.5 * (pen + pen[::-1])
    return (
        sorted((d, c / total) for d, c in ham_phys.items()),
        sorted((d, c / total) for d, c in ham_log.items()),
        pos / total,
        pen / total,
        sorted(decodability.items()),
        total,
    )


@pytest.mark.parametrize("symmetrize", [False, True])
@pytest.mark.parametrize("strategy,encoding", CASES + [("C", dense_encoding(3, n=5, with_penalty=False))])
def test_histogram_suite_against_loop(strategy, encoding, symmetrize):
    problem = encoded(make_af_chain(3), strategy, encoding)
    samples = noisy_samples(problem, 6)
    suite = histogram_suite(samples, problem, symmetrize=symmetrize)
    ham_phys, ham_log, pos, pen, decodability, total = naive_histograms(samples, problem, symmetrize)
    if problem.encoding.n == 5:
        # block weights of 4 and 5 used to be dropped: three columns
        assert pos[:, 3:].any()
    assert list(suite.hamming_physical.items()) == ham_phys
    assert list(suite.hamming_logical.items()) == ham_log
    assert np.array_equal(suite.position_weights, pos)
    assert np.array_equal(suite.penalty_flips, pen)
    assert list(suite.decodability.items()) == decodability
    assert suite.total_count == total
    # the sample set reaches decodable and undecodable records alike
    assert 0 < sum(good for _, good in suite.decodability.values()) < total


def test_histogram_suite_symmetrizes_only_chains():
    problem = encoded(TRIANGLE, "EP")
    with pytest.raises(ValidationError):
        histogram_suite(noisy_samples(problem, 7), problem, symmetrize=True)


@pytest.mark.parametrize("strategy,encoding", CASES)
def test_empirical_success_against_loop(strategy, encoding):
    problem = encoded(make_af_chain(3), strategy, encoding)
    samples = noisy_samples(problem, 8)
    grounds = ground_reference(problem.logical)
    code_grounds = {naive_code_state(g, problem.encoding, problem.num_physical) for g in grounds}
    total = sum(rec.count for rec in samples.records)
    n_gs = sum(rec.count for rec in samples.records if rec.bits in code_grounds)
    n_s = sum(rec.count for rec in samples.records if tuple(naive_vote(rec.bits, problem.encoding)[0]) in grounds)
    assert 0 < n_gs <= n_s < total
    assert empirical_success(samples, problem) == (n_gs / total, n_s / total)


@pytest.mark.parametrize("width", [12, 5])
def test_empirical_success_rejects_samples_of_another_width(width):
    # on the 8-qubit EP pair, 12-bit code states used to give (0.0, 1.0) and
    # 5-bit ones an IndexError
    problem = encoded(make_af_chain(2), "EP")
    samples = SampleSet((SampleRecord((1, -1) * (width // 2) + (1,) * (width % 2), 3),))
    with pytest.raises(ValidationError, match="qubits"):
        empirical_success(samples, problem)


def test_grounds_must_match_the_decoded_length():
    # a ground of another length used to be matched over the shorter of the two
    with pytest.raises(ValidationError, match="length"):
        align_and_distance((1, -1, 1), ((-1, 1, -1), (1, -1)))
    problem = encoded(make_af_chain(3), "EP")
    with pytest.raises(ValidationError, match="length"):
        decode_record(problem.code_config((1, -1, 1)), problem, ground_set=((1,), (-1,)))


@pytest.mark.parametrize("count", [np.nan, 2.5, 0])
def test_sample_record_count_must_be_a_positive_integer(count):
    # a NaN count used to give empirical_success (nan, nan)
    with pytest.raises(ValidationError, match="count"):
        SampleRecord((1, -1), count)


def test_sample_record_takes_numpy_integers():
    assert SampleRecord((1, -1), np.int64(3)).count == 3


def test_encoding_layout_is_built_once_and_read_only():
    # the decoder and code_config read one layout per encoding, not one per record
    encoding = encode_problem(make_af_chain(3), "EP", 0.3, 0.2, dense_encoding(3, incomplete={1})).encoding
    problem_ids, penalty_ids = encoding.layout
    assert encoding.layout is encoding.layout
    assert problem_ids.tolist() == [list(blk.problem_ids) for blk in encoding.blocks]
    assert penalty_ids.tolist() == [-1 if blk.penalty_id is None else blk.penalty_id for blk in encoding.blocks]
    with pytest.raises(ValueError):
        problem_ids[0, 0] = 5

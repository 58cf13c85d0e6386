"""Unit and property tests for the pattern-cardinality metrics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from swapnas.metric import (
    ActivationCapture,
    ContractViolationError,
    RegularisationParams,
    ScoreRecord,
    _distinct_row_count,
    pack_bit_rows,
    regularisation_factor,
    regularised_swap_score,
    standard_pattern_cardinality,
    swap_score,
)


def naive_row_count(bits: np.ndarray) -> int:
    """Deduplicate full row tuples in a plain set; the reference oracle."""
    return len({tuple(int(b) for b in row) for row in bits})


def naive_col_count(bits: np.ndarray) -> int:
    return naive_row_count(np.asarray(bits).T)


NO_ROWS = np.zeros((0, 1), dtype=np.uint8)


class TestActivationCapture:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        bits = (rng.random((13, 11)) < 0.5).astype(np.uint8)
        cap = ActivationCapture.from_bits(bits)
        assert cap.n_values == 13
        assert cap.n_samples == 11
        assert np.array_equal(cap.bits(), bits)

    def test_pad_bits_are_normalised(self):
        # Garbage in the pad bits of the final byte must not affect equality.
        packed = np.array([[0b10100000], [0b10100111]], dtype=np.uint8)
        cap = ActivationCapture(packed, n_samples=3)
        assert np.array_equal(cap.packed_rows[0], cap.packed_rows[1])
        assert swap_score(cap) == 1

    @pytest.mark.parametrize("n_samples, kept", [(8, 0b10100111), (3, 0b10100000)])
    def test_the_callers_array_stays_writeable_and_apart(self, n_samples, kept):
        p = np.array([[0b10100111]], dtype=np.uint8)
        cap = ActivationCapture(p, n_samples)
        p[0, 0] = 0
        assert cap.packed_rows.tolist() == [[kept]]
        assert cap.packed_rows.flags.c_contiguous and not cap.packed_rows.flags.writeable

    def test_the_library_path_keeps_its_own_array_frozen(self):
        p = np.array([[0b10100111]], dtype=np.uint8)
        cap = ActivationCapture._adopt(p, 3)
        assert cap.packed_rows is p and not p.flags.writeable
        assert p.tolist() == [[0b10100000]] and cap.n_samples == 3

    def test_transpose_is_involutive(self):
        rng = np.random.default_rng(2)
        bits = (rng.random((9, 5)) < 0.5).astype(np.uint8)
        cap = ActivationCapture.from_bits(bits)
        assert np.array_equal(cap.transpose().transpose().bits(), bits)

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ContractViolationError):
            ActivationCapture.from_bits(np.array([[0, 2]]))

    def test_rejects_zero_samples(self):
        with pytest.raises(ContractViolationError):
            ActivationCapture.from_bits(np.zeros((3, 0)))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ActivationCapture(np.zeros(3, dtype=np.uint8), 4), "packed_rows must be a 2-D byte array"),
            (lambda: ActivationCapture(np.zeros((2, 1), dtype=np.uint8), 0), "a capture needs at least one sample"),
            (
                lambda: ActivationCapture(np.zeros((2, 2), dtype=np.uint8), 17),
                "expected 3 bytes per row for 17 samples, got 2",
            ),
            (lambda: ActivationCapture.from_bits(np.zeros(3)), "bit matrix must be 2-D"),
            (lambda: ActivationCapture.from_bits(np.array([[0, 2]])), "bit matrix entries must be 0 or 1"),
            (lambda: ActivationCapture(NO_ROWS, 4).transpose(), "cannot transpose an empty capture"),
            (lambda: swap_score(ActivationCapture(NO_ROWS, 4)), "empty capture"),
            (lambda: regularised_swap_score(-1, 1.0, RegularisationParams(1.0, 1.0)), "score must be non-negative"),
        ],
        ids=[
            "1-d", "no-samples", "row-width", "bits-1-d", "bits-not-binary",
            "transpose-empty", "swap-empty", "negative-score",
        ],
    )
    def test_contract_errors_name_the_fault(self, call, message):
        with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
            call()


@st.composite
def bit_blocks(draw):
    """(values x samples) 0/1 blocks: bool, int or float, C-contiguous or a transposed view."""
    v, s = draw(st.integers(0, 20)), draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.bool_, np.uint8, np.int64, np.float64]))
    if draw(st.booleans()):
        return draw(arrays(np.uint8, (s, v), elements=st.integers(0, 1))).astype(dtype).T
    return draw(arrays(np.uint8, (v, s), elements=st.integers(0, 1))).astype(dtype)


class TestPackBitRows:
    @settings(max_examples=300, deadline=None)
    @given(bit_blocks())
    def test_matches_packbits_of_the_uint8_cast(self, bits):
        want = np.packbits(bits.astype(np.uint8), axis=1)
        got = pack_bit_rows(bits)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestStandardPatternCardinality:
    def test_low_dimensional_batch_with_duplicates(self):
        # Five samples over seven values, one duplicated column pair: 4 patterns.
        columns = np.array(
            [
                [1, 0, 1, 1, 0, 0, 1],
                [0, 0, 1, 0, 1, 1, 0],
                [1, 1, 0, 1, 0, 1, 1],
                [0, 1, 1, 0, 1, 0, 0],
                [0, 0, 1, 0, 1, 1, 0],  # repeats the second sample
            ],
            dtype=np.uint8,
        )
        cap = ActivationCapture.from_bits(columns.T)
        assert cap.bits().shape == (7, 5)
        assert standard_pattern_cardinality(cap) == 4

    def test_higher_dimensional_batch_hits_sample_bound(self):
        # Same shape, all five columns distinct: the count reaches S = 5.
        cols = np.array(
            [
                [1, 0, 1, 1, 0],
                [0, 0, 1, 0, 1],
                [1, 1, 0, 1, 1],
                [0, 1, 1, 0, 0],
                [1, 0, 0, 1, 1],
                [0, 0, 1, 1, 0],
                [1, 1, 1, 0, 1],
            ],
            dtype=np.uint8,
        )
        cap = ActivationCapture.from_bits(cols)
        assert standard_pattern_cardinality(cap) == 5

    def test_identical_samples_collapse_to_one(self):
        bits = np.tile(np.array([[1], [0], [1]], dtype=np.uint8), (1, 6))
        assert standard_pattern_cardinality(ActivationCapture.from_bits(bits)) == 1

    def test_empty_capture_rejected(self):
        cap = ActivationCapture(np.zeros((0, 1), dtype=np.uint8), n_samples=4)
        with pytest.raises(ContractViolationError):
            standard_pattern_cardinality(cap)


class TestSwapScore:
    def test_all_zero_capture(self):
        cap = ActivationCapture.from_bits(np.zeros((10, 4), dtype=np.uint8))
        assert swap_score(cap) == 1

    def test_identical_samples_bound(self):
        rng = np.random.default_rng(3)
        col = (rng.random((50, 1)) < 0.5).astype(np.uint8)
        cap = ActivationCapture.from_bits(np.tile(col, (1, 8)))
        assert swap_score(cap) <= 2

    def test_matches_naive_oracle_on_fixed_instance(self):
        rng = np.random.default_rng(4018)
        bits = (rng.random((40, 8)) < 0.5).astype(np.uint8)
        cap = ActivationCapture.from_bits(bits)
        assert swap_score(cap) == naive_row_count(bits) == 36

    def test_matches_naive_oracle_on_random_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = int(rng.integers(1, 70))
            s = int(rng.integers(1, 20))
            bits = (rng.random((v, s)) < rng.uniform(0.1, 0.9)).astype(np.uint8)
            cap = ActivationCapture.from_bits(bits)
            assert swap_score(cap) == naive_row_count(bits)
            assert standard_pattern_cardinality(cap) == naive_col_count(bits)

    def test_wide_captures_use_multiword_path(self):
        rng = np.random.default_rng(6)
        bits = (rng.random((30, 100)) < 0.5).astype(np.uint8)
        cap = ActivationCapture.from_bits(bits)
        assert swap_score(cap) == naive_row_count(bits)
        assert standard_pattern_cardinality(cap) == naive_col_count(bits)


class TestCardinalityProperties:
    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = int(rng.integers(1, 40))
            s = int(rng.integers(1, 12))
            bits = (rng.random((v, s)) < 0.5).astype(np.uint8)
            cap = ActivationCapture.from_bits(bits)
            assert 1 <= standard_pattern_cardinality(cap) <= min(s, 2**v)
            assert 1 <= swap_score(cap) <= min(v, 2**s)

    def test_duplicating_a_sample_keeps_swap_score(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            bits = (rng.random((20, 6)) < 0.5).astype(np.uint8)
            col = int(rng.integers(6))
            grown = np.concatenate([bits, bits[:, col : col + 1]], axis=1)
            assert swap_score(ActivationCapture.from_bits(grown)) == swap_score(
                ActivationCapture.from_bits(bits)
            )

    def test_duplicating_a_value_keeps_standard_count(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            bits = (rng.random((20, 6)) < 0.5).astype(np.uint8)
            row = int(rng.integers(20))
            grown = np.concatenate([bits, bits[row : row + 1, :]], axis=0)
            assert standard_pattern_cardinality(
                ActivationCapture.from_bits(grown)
            ) == standard_pattern_cardinality(ActivationCapture.from_bits(bits))

    def test_transpose_duality(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            bits = (rng.random((15, 7)) < 0.5).astype(np.uint8)
            cap = ActivationCapture.from_bits(bits)
            assert swap_score(cap) == standard_pattern_cardinality(cap.transpose())


@st.composite
def bit_matrices(draw):
    """0/1 matrices with repeated rows and columns.

    S is drawn both as a multiple of 8 and not, and V and S both reach past
    64.  The sampled S give packed rows of every native key width (1, 2, 4
    and 8 bytes) and of widths with no native key (3, 5, 9 and 10 bytes).
    """
    s = draw(st.one_of(st.sampled_from([8, 16, 32, 64, 24, 40, 72, 80]), st.integers(1, 90)))
    v = draw(st.integers(1, 90))
    n_rows = draw(st.integers(1, v))
    n_cols = draw(st.integers(1, s))
    base = draw(arrays(np.uint8, (n_rows, n_cols), elements=st.integers(0, 1)))
    rows = draw(arrays(np.intp, v, elements=st.integers(0, n_rows - 1)))
    cols = draw(arrays(np.intp, s, elements=st.integers(0, n_cols - 1)))
    return base[np.ix_(rows, cols)]


def counts(bits: np.ndarray) -> tuple[int, int]:
    cap = ActivationCapture.from_bits(bits)
    return swap_score(cap), standard_pattern_cardinality(cap)


def void_row_count(packed: np.ndarray) -> int:
    """Distinct rows by np.unique of one void item per row, the wide-row path."""
    return int(np.unique(packed.view(np.dtype((np.void, packed.shape[1])))).size)


class TestCounterProperties:
    @settings(max_examples=150, deadline=None)
    @given(bit_matrices())
    def test_native_key_count_matches_void_view_count(self, bits):
        for matrix in (bits, bits.T):
            packed = ActivationCapture.from_bits(matrix).packed_rows
            assert _distinct_row_count(packed) == void_row_count(packed)

    @settings(max_examples=150, deadline=None)
    @given(bit_matrices())
    def test_counts_match_naive_oracle(self, bits):
        assert counts(bits) == (naive_row_count(bits), naive_col_count(bits))

    @settings(max_examples=100, deadline=None)
    @given(bit_matrices())
    def test_bounds(self, bits):
        v, s = bits.shape
        swap, per_sample = counts(bits)
        assert 1 <= swap <= min(v, 2**s)
        assert 1 <= per_sample <= min(s, 2**v)

    @settings(max_examples=100, deadline=None)
    @given(bit_matrices())
    def test_transpose_duality(self, bits):
        cap = ActivationCapture.from_bits(bits)
        flipped = cap.transpose()
        assert np.array_equal(flipped.bits(), bits.T)
        assert swap_score(cap) == standard_pattern_cardinality(flipped)
        assert standard_pattern_cardinality(cap) == swap_score(flipped)

    @settings(max_examples=100, deadline=None)
    @given(bit_matrices(), st.randoms(use_true_random=False))
    def test_permuting_rows_and_samples_keeps_counts(self, bits, rnd):
        rows = rnd.sample(range(bits.shape[0]), bits.shape[0])
        cols = rnd.sample(range(bits.shape[1]), bits.shape[1])
        assert counts(bits[np.ix_(rows, cols)]) == counts(bits)

    @settings(max_examples=100, deadline=None)
    @given(bit_matrices(), st.data())
    def test_duplicating_a_sample_keeps_counts(self, bits, data):
        col = data.draw(st.integers(0, bits.shape[1] - 1))
        grown = np.concatenate([bits, bits[:, col : col + 1]], axis=1)
        assert counts(grown) == counts(bits)


class TestRegularisation:
    def test_factor_is_one_at_centre(self):
        params = RegularisationParams(mu=2.0, sigma=0.5)
        assert regularisation_factor(2.0, params) == 1.0

    def test_factor_e_inverse_one_width_away(self):
        params = RegularisationParams(mu=2.0, sigma=0.49)
        value = regularisation_factor(2.0 + math.sqrt(0.49), params)
        assert value == pytest.approx(math.exp(-1), rel=1e-12)
        assert value == pytest.approx(0.367879, abs=1e-6)

    def test_tiny_centre_crushes_large_models(self):
        params = RegularisationParams(mu=0.3, sigma=0.3)
        value = regularisation_factor(5.0, params)
        assert value == pytest.approx(math.exp(-(4.7**2) / 0.3), rel=1e-12)
        assert value == pytest.approx(1.1e-32, rel=0.05)

    def test_symmetry_about_centre(self):
        params = RegularisationParams(mu=3.0, sigma=1.7)
        for d in np.linspace(0.01, 4.0, 100):
            left = regularisation_factor(3.0 - d, params)
            right = regularisation_factor(3.0 + d, params)
            assert left == pytest.approx(right, rel=1e-12)

    def test_strictly_decreasing_in_distance(self):
        params = RegularisationParams(mu=1.0, sigma=2.0)
        values = [regularisation_factor(1.0 + d, params) for d in np.linspace(0.0, 10.0, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_non_decreasing_in_sigma(self):
        for theta in (0.2, 1.5, 9.0):
            values = [
                regularisation_factor(theta, RegularisationParams(mu=1.0, sigma=sg))
                for sg in np.linspace(0.1, 20.0, 40)
            ]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_record_regularised_applies_the_bell_to_reg_swap_only(self):
        raw = ScoreRecord("a", 40, 40.0, 1.5, 100, 7, "b")
        params = RegularisationParams(mu=2.0, sigma=0.5)
        bell = raw.regularised(params)
        assert bell.reg_swap == regularised_swap_score(40, 1.5, params)
        assert bell.reg_swap < 40
        assert bell.regularised(None) == raw
        assert raw.regularised(None).reg_swap == 40.0
        assert (bell.arch_id, bell.swap, bell.size_mb, bell.flops, bell.seed, bell.batch) == (
            "a", 40, 1.5, 100, 7, "b",
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ContractViolationError):
            RegularisationParams(mu=1.0, sigma=0.0)
        with pytest.raises(ContractViolationError):
            RegularisationParams(mu=-1.0, sigma=1.0)

    def test_regularised_score_examples(self):
        params = RegularisationParams(mu=0.7, sigma=0.25)
        assert regularised_swap_score(100, 0.7, params) == 100.0
        assert regularised_swap_score(0, 123.4, params) == 0.0
        value = regularised_swap_score(1000, 0.7 + math.sqrt(0.25), params)
        assert value == pytest.approx(1000 * math.exp(-1), rel=1e-12)
        assert value == pytest.approx(367.879, abs=1e-3)

    def test_regularised_never_exceeds_raw(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = RegularisationParams(mu=rng.uniform(0.1, 5), sigma=rng.uniform(0.1, 5))
            raw = int(rng.integers(0, 1000))
            assert regularised_swap_score(raw, rng.uniform(0.01, 10), params) <= raw

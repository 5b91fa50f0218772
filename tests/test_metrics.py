import shutil
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from aecomm import comm, metrics, nn
from helpers import (KERNEL_FORMS, configured_cc, kernel_form, norm_errors_vectorized, normalization_error_direct,
                     qpsk_points)


def tx_with_outputs(raw):
    """Single linear-layer transmitter whose full-alphabet output is `raw`."""
    raw = np.asarray(raw, dtype=float)
    return nn.Mlp([raw.copy()], [np.zeros(2)])


def random_tx(M, seed, hidden=(20,)):
    return nn.build_mlp([M, *hidden, 2], np.random.default_rng(seed))


def alphabet_points(tx):
    """tx's alphabet output normalized to power 1 over the alphabet: the constellation train_run returns."""
    points, _ = comm.normalize_average(nn.mlp_forward(np.arange(tx.in_dim), tx)[0], 1.0)
    return points


def matched_filter(points):
    """Linear receiver with logits y @ points^T: ML, and minimum-distance, for equal-energy points."""
    return nn.Mlp([points.T.copy()], [np.zeros(len(points))])


class TestNormalizationError:
    def test_full_alphabet_batch_is_zero(self):
        tx = random_tx(8, seed=0)
        assert metrics.normalization_error(tx, np.arange(8), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_equal_multiplicity_batch_is_zero(self):
        tx = random_tx(4, seed=1)
        batch = np.array([0, 1, 2, 3] * 5)
        np.random.default_rng(2).shuffle(batch)
        assert metrics.normalization_error(tx, batch, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case(self):
        # raw rows (1,0),(0,1),(1,1),(2,0); batch {0,3}:
        # s_batch = sqrt(2/5), s_alphabet = sqrt(4/8),
        # error = |s_batch - s_alphabet| * mean(|x_0|, |x_3|)
        tx = tx_with_outputs([[1, 0], [0, 1], [1, 1], [2, 0]])
        err = metrics.normalization_error(tx, np.array([0, 3]), 1.0)
        expected = abs(np.sqrt(2 / 5) - np.sqrt(4 / 8)) * 1.5
        assert err == pytest.approx(expected, rel=1e-12)
        assert err == pytest.approx(0.11197687372930755, rel=1e-12)

    def test_nonnegative_and_scale_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = rng.normal(size=(8, 2))
            batch = rng.integers(0, 8, size=5)
            e1 = metrics.normalization_error(tx_with_outputs(raw), batch, 1.0)
            e2 = metrics.normalization_error(tx_with_outputs(3.7 * raw), batch, 1.0)
            assert e1 >= 0.0
            assert e2 == pytest.approx(e1, rel=1e-9)

    def test_vectorized_path_matches_direct(self):
        rng = np.random.default_rng(4)
        tx = random_tx(16, seed=5)
        raw, _ = nn.mlp_forward(np.eye(16), tx)
        idx = rng.integers(0, 16, size=(50, 6))
        fast = norm_errors_vectorized(raw, idx, 4.0)
        slow = [normalization_error_direct(tx, row, 4.0) for row in idx]
        assert np.allclose(fast, slow, rtol=1e-10, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        M=st.sampled_from([2, 4, 16, 128]),
        hidden=st.sampled_from([(1,), (3,), (20,), (10, 10)]),
        # batch sizes on both sides of numpy's 8- and 128-element pairwise-sum branches
        batch_size=st.one_of(st.integers(1, 10), st.integers(124, 132), st.integers(250, 300)),
        power=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_equals_direct_definition(self, M, hidden, batch_size, power, seed):
        rng = np.random.default_rng(seed)
        tx = nn.build_mlp([M, *hidden, 2], rng)
        batch = rng.integers(0, M, size=batch_size)
        raw, _ = nn.mlp_forward(np.arange(M), tx)
        got = metrics.normalization_error(tx, batch, power)
        if not raw[batch].any():  # one-unit layers give dead transmitters and all-zero batches
            assert np.isnan(got)
            with pytest.raises(comm.DegenerateInputError):
                normalization_error_direct(tx, batch, power)
            return
        # where the two scales nearly coincide, the definition subtracts two nearly
        # equal symbols, which leaves a rounding residue of the symbols' own size
        symbols = np.sqrt(power) + np.linalg.norm(comm.normalize_average(raw, power)[0][batch], axis=1).mean()
        assert got == pytest.approx(normalization_error_direct(tx, batch, power), rel=1e-12,
                                    abs=1e-12 * symbols)

    @pytest.mark.parametrize("batch", [[0, 8], [-1, 2]])
    def test_out_of_range_index_rejected(self, batch):
        with pytest.raises(ValueError, match="out of range"):
            metrics.normalization_error(random_tx(8, seed=0), np.array(batch), 1.0)

    @pytest.mark.parametrize("batch", [[True, False], [0.5, 1.0], [0.0, 1.0]])
    def test_non_integer_indices_rejected(self, batch):
        # booleans would score rows 1 and 0, floats would fail inside the gather
        with pytest.raises(ValueError, match="dtype"):
            metrics.normalization_error(random_tx(8, seed=0), np.array(batch), 1.0)

    @pytest.mark.parametrize("batch", [np.array([[0, 3], [1, 2]]), np.array(3)], ids=["2-D", "0-d"])
    def test_indices_not_one_batch_rejected(self, batch):
        # without the check, each form failed in its own way: the kernel through ctypes, numpy in a reduction
        for form in KERNEL_FORMS:
            with kernel_form(form), pytest.raises(ValueError, match="dimensions, expected 1"):
                metrics.normalization_error(random_tx(8, seed=0), batch, 1.0)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64])
    def test_every_integer_dtype_scores_alike(self, dtype):
        tx = random_tx(8, seed=0)
        batch = np.array([3, 0, 7, 7, 1])
        assert metrics.normalization_error(tx, batch.astype(dtype), 1.0) == metrics.normalization_error(tx, batch, 1.0)

    def test_degenerate_cases_are_nan(self):
        # no batch-scope scale: a batch of all-zero rows, or a dead transmitter
        tx = tx_with_outputs([[0, 0], [1, 0], [0, 0], [1, 1]])
        assert np.isnan(metrics.normalization_error(tx, np.array([0, 2, 0]), 1.0))
        assert np.isnan(metrics.normalization_error(tx_with_outputs(np.zeros((4, 2))), np.arange(4), 1.0))


_SIZES = st.one_of(st.integers(1, 40), st.tuples(st.integers(1, 7), st.integers(1, 7)))


def per_step_draws(rng, M, shape):
    """shape[0] steps of one integers draw of shape[1:] each, stacked."""
    return np.array([rng.integers(0, M, size=shape[1:]) for _ in range(shape[0])], dtype=np.int64).reshape(shape)


class TestDrawIndices:
    # train_run draws a block of k training batches as one integers call of size
    # (k, Bs). It must give the values and the generator state of k integers draws
    # of Bs, one per step, as the golden sums were made; integers must keep its
    # buffered 32-bit half in the bit generator for that. This checks it beyond the
    # configs train_run admits: other bit generators, M up to 2**33, odd and empty
    # shapes. A twin generator takes the same ops as the reference, except that
    # each "draw" is one 2-D call where the reference draws per step
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        ops=st.lists(st.one_of(
            st.tuples(st.just("draw"), st.integers(1, 32).map(lambda e: 1 << e),
                      st.tuples(st.integers(1, 7), st.integers(1, 40))),
            st.tuples(st.just("integers"), st.integers(1, 300), _SIZES),
            st.tuples(st.just("normal"), st.integers(1, 5), st.just(None)),
        ), min_size=1, max_size=12),
    )
    def test_equals_integers_and_leaves_the_same_state(self, seed, ops):
        ref, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for op, M, size in ops:
            if op == "normal":
                assert np.array_equal(twin.normal(size=M), ref.normal(size=M))
                continue
            if op == "draw":
                want = per_step_draws(ref, M, size)
            else:
                want = ref.integers(0, M, size=size)
            got = twin.integers(0, M, size=size)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
            np.testing.assert_equal(twin.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
    @pytest.mark.parametrize("M", [1, 2, 3, 6, 16, 100, 2**32, 2**33])
    @pytest.mark.parametrize("size", [0, (0, 3), 101, (4, 5)])
    def test_edge_cases_equal_integers(self, bit_generator, M, size):
        shape = size if isinstance(size, tuple) else (3, size)  # steps, Bs
        ref, twin = np.random.Generator(bit_generator(11)), np.random.Generator(bit_generator(11))
        ref.integers(0, 8, size=3), twin.integers(0, 8, size=3)  # leaves a buffered half
        want = per_step_draws(ref, M, shape)
        got = twin.integers(0, M, size=shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        np.testing.assert_equal(twin.bit_generator.state, ref.bit_generator.state)


def packed_reference(rng, M, n, bs):
    """n batches of Bs indices below M, a power of 2, by arithmetic on rng's raw words.

    Indices are cut from b-bit units: b = 8 up to M = 256, 16 up to 2**16, else 32.
    A batch takes ceil(Bs / u) whole words of u = 64 / b units, least significant
    unit first, and keeps the top log2(M) bits of its first Bs units.
    """
    b = 8 if M <= 1 << 8 else 16 if M <= 1 << 16 else 32
    u = 64 // b
    words = rng.bit_generator.random_raw((n, -(-bs // u))).astype(object)
    units = (words[:, :, None] >> (b * np.arange(u).astype(object))) & ((1 << b) - 1)
    return (units.reshape(n, -1)[:, :bs] >> (b - M.bit_length() + 1)).astype(np.int64)


class TestDrawPacked:
    @pytest.mark.parametrize("M", [2, 256, 512, 2**16, 2**17, 2**32])
    def test_equals_reference_and_takes_whole_words(self, M):
        # batch sizes that leave units of the last word unread at every unit size
        shapes = [(5, 3), (1, 1), (4, 9), (2, 31)]
        rng, ref, twin = (np.random.default_rng(7) for _ in range(3))
        for g in (rng, ref, twin):
            g.integers(0, 8, size=3)  # leaves a buffered 32-bit half, which must survive
        u = 8 if M <= 1 << 8 else 4 if M <= 1 << 16 else 2
        for n, bs in shapes:
            got = comm.draw_packed(rng, M, np.empty((n, bs), dtype=np.intp))
            assert np.array_equal(got, packed_reference(ref, M, n, bs))
            assert got.min() >= 0 and got.max() < M
        twin.bit_generator.random_raw(sum(n * -(-bs // u) for n, bs in shapes))
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


    @pytest.mark.parametrize("M", [2, 256, 512, 2**16, 2**17, 2**32])
    def test_fills_unit_type_buffers(self, M):
        # norm-error draws into a buffer of the unit type itself
        unit = np.uint8 if M <= 1 << 8 else np.uint16 if M <= 1 << 16 else np.uint32
        rng, ref = (np.random.default_rng(8) for _ in range(2))
        for g in (rng, ref):
            g.integers(0, 8, size=3)
        for n, bs in [(5, 3), (1, 1), (4, 9), (2, 31)]:
            out = np.empty((n, bs), unit)
            assert comm.draw_packed(rng, M, out) is out
            assert np.array_equal(out, packed_reference(ref, M, n, bs))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


def random_table(rng, M):
    """(power, norm) entries of M alphabet rows, as _alphabet_terms' table, spread over 6 decades."""
    return (rng.random(M) + 1j * rng.random(M)) * 10.0 ** rng.integers(-3, 3, size=M)


class TestBatchErrorForms:
    def test_kernel_loads(self):
        # the compiled loop must load wherever its compiler exists, so a host that
        # has one cannot pass the tests below on the numpy fallback alone
        if shutil.which(configured_cc()) is None:
            pytest.skip(f"the configured C compiler {configured_cc()!r} is not on PATH")
        assert metrics.batch_error_kernel() is not None

    @settings(max_examples=150, deadline=None)
    @given(
        # uint8, uint16 and uint32 indices
        M=st.sampled_from([2, 256, 512, 2**16, 2**17]),
        # every branch of numpy's pairwise sum (below 8, up to 128, split above) and its recursion
        bs=st.one_of(st.integers(1, 10), st.integers(124, 132), st.integers(250, 300), st.integers(1000, 2100)),
        n=st.integers(1, 4),
        s_alpha=st.floats(0.1, 10.0),
        power=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_writes_the_numpy_bytes(self, M, bs, n, s_alpha, power, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng, M)
        # +0.0 and -0.0 (the last row all of them: nan), a subnormal, and 1e308s whose sums overflow;
        # spots may repeat, and the last write to a row wins, so the zeros go last and stay zeros
        spots = rng.integers(0, M, size=5)
        table.real[spots[::-1]] = table.imag[spots[::-1]] = [1e308, 1e308, 5e-324, -0.0, 0.0]
        idx = comm.draw_packed(rng, M, np.empty((n + 1, bs), np.min_scalar_type(M - 1)))
        planted = rng.random(idx.shape) < 0.05
        idx[planted] = rng.choice(spots, size=planted.sum())
        idx[n] = rng.choice(spots[:2], size=bs)
        outs = []
        for form in KERNEL_FORMS:
            out = np.full(n + 1, 7.0)
            with kernel_form(form), np.errstate(all="ignore"):
                metrics._batch_errors((table, s_alpha), idx, power, out)
            outs.append(out.tobytes())
        assert outs[0] == outs[1]
        assert np.isnan(out[n]) == (not table.real[idx[n]].any())


    @pytest.mark.parametrize("case", ["int64", "int8", "strided", "fortran", "strided out"])
    def test_memory_the_kernel_cannot_read_runs_numpy(self, case):
        rng = np.random.default_rng(30)
        table = random_table(rng, 100)
        idx = rng.integers(0, 100, size=(3, 40)).astype(np.uint8)
        idx = {"int64": idx.astype(np.int64), "int8": idx.astype(np.int8), "strided": idx[:, ::2],
               "fortran": np.asfortranarray(idx)}.get(case, idx)
        outs = []
        for form in KERNEL_FORMS:
            out = np.zeros((3, 2))[:, 0] if case == "strided out" else np.zeros(3)
            with kernel_form(form):
                metrics._batch_errors((table, 0.8), idx, 2.0, out)
            outs.append(out.tobytes())
        assert outs[0] == outs[1]


class TestExpectedNormalizationError:
    def test_hand_case(self):
        # q = (1, 1, 2, 4): mean 2, sd sqrt(1.5); n = (1, 1, sqrt 2, 2); s_alpha = sqrt(P / 2)
        raw = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        terms = metrics._alphabet_terms(raw, 2.0)
        want = 1.0 * np.sqrt(1.5) / 2.0 * (4.0 + np.sqrt(2.0)) / 4.0 / np.sqrt(2 * np.pi * 16)
        assert metrics.expected_normalization_error(terms, 16) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("M", [16, 256])
    def test_equals_the_monte_carlo_mean_of_each_form(self, M):
        # 30 000 batches of 64 from draw_packed, scored in each form, on each of 5
        # transmitters: the mean is within 3 % (~7 standard errors) of the closed form.
        # Indices that miss part of the alphabet, or are not uniform over it, move it further
        rng = np.random.default_rng(M)
        power, bs, n_batches = comm.power_from_eb(M, 1.0), 64, 30_000
        idx = np.empty((n_batches, bs), np.min_scalar_type(M - 1))
        for _ in range(5):
            raw, _ = nn.mlp_forward(np.arange(M), nn.build_mlp([M, 60, 60, 2], rng))
            terms = metrics._alphabet_terms(raw, power)
            comm.draw_packed(rng, M, idx)
            closed = metrics.expected_normalization_error(terms, bs)
            for form in KERNEL_FORMS:
                errors = np.empty(n_batches)
                with kernel_form(form):
                    for a in range(0, n_batches, 3000):
                        metrics._batch_errors(terms, idx[a:a + 3000], power, errors[a:a + 3000])
                assert errors.mean() == pytest.approx(closed, rel=0.03), form


class TestNormErrorExperiment:
    def test_forced_alphabet_copies_control(self):
        tx = random_tx(4, seed=6)
        raw, _ = nn.mlp_forward(np.eye(4), tx)
        idx = np.tile(np.arange(4), (10, 3))  # 3 copies of the alphabet per batch
        errs = norm_errors_vectorized(raw, idx, 2.0)
        assert np.all(errs < 1e-12)

    def test_stats_shape_and_determinism(self):
        a = metrics.norm_error_experiment([4, 16], [4, 8], 3, 50, 1.0, (10,), seed=9)
        b = metrics.norm_error_experiment([4, 16], [4, 8], 3, 50, 1.0, (10,), seed=9)
        assert len(a) == 4
        assert [(s.M, s.batch_size, s.mean_error) for s in a] == [
            (s.M, s.batch_size, s.mean_error) for s in b
        ]
        assert all(s.mean_error >= 0 for s in a)

    @settings(max_examples=60, deadline=None)
    @given(
        M_list=st.lists(st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256, 512]), min_size=1, max_size=2),
        batch_sizes=st.lists(st.integers(1, 90), min_size=1, max_size=3),
        n_inits=st.integers(1, 3),
        n_batches=st.integers(1, 23),
        tx_hidden=st.sampled_from([(1,), (2,), (8,), (6, 6)]),
        block=st.integers(1, 1024),
        seed=st.integers(0, 2**16),
    )
    def test_blocked_sweep_equals_one_shot(
        self, M_list, batch_sizes, n_inits, n_batches, tx_hidden, block, seed
    ):
        # a block holds block // 16 indices, counted in whole words of 8: the
        # range gives several rows per block, one row per block (Bs above
        # that), and a last block that is only partly full.
        # M = 512 reads uint16 units, four to a word, the smaller M uint8 units.
        # Hidden widths of 1 and 2 give dead transmitters and all-zero batches.
        args = (M_list, batch_sizes, n_inits, n_batches, 1.0, tx_hidden, seed)
        with mock.patch.object(metrics, "_BLOCK", block):
            blocked = metrics.norm_error_experiment(*args)
        assert stats_key(blocked) == one_shot_norm_error(*args)

    def test_blocked_sweep_equals_one_shot_at_module_block(self):
        B = metrics._BLOCK
        # rows per block 4 with a partial last block, and one row per block
        args = ([2, 256], [B // 8, B + 3], 2, 6, 1.0, (4,), 11)
        assert stats_key(metrics.norm_error_experiment(*args)) == one_shot_norm_error(*args)

    def test_dead_transmitters_and_zero_batches_excluded(self):
        # hidden width 1 at seed 2: one of 30 transmitters outputs all zeros,
        # and single-unit ReLU outputs leave some batches all zero
        (stats,) = metrics.norm_error_experiment([4], [4], 30, 10, 1.0, (1,), seed=2)
        assert stats.dead_inits == 1 and stats.zero_batches > 0
        assert stats.n == 29 * 10 - stats.zero_batches
        assert np.isfinite(stats.mean_error) and np.isfinite(stats.std_error)

    def test_nothing_left_is_nan_with_n_zero(self):
        (stats,) = metrics.norm_error_experiment([4], [4], 1, 10, 1.0, (1,), seed=25)
        assert (stats.n, stats.dead_inits) == (0, 1)
        assert np.isnan(stats.mean_error)


def one_shot_norm_error(M_list, batch_sizes, n_inits, n_batches, eb, tx_hidden, seed):
    """The sweep with each cell's (n_batches, Bs) indices drawn in one call.

    Degenerate transmitters and batches are left out of the means and
    counted. Returns the rows stats_key makes of the sweep's stats.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for M in M_list:
        power = comm.power_from_eb(M, eb)
        means = [[] for _ in batch_sizes]
        counts = [0] * len(batch_sizes)
        dead = 0
        for _ in range(n_inits):
            tx = nn.build_mlp([M, *tx_hidden, 2], rng)
            raw, _ = nn.mlp_forward(np.arange(M), tx)
            dead += not raw.any()
            for j, bs in enumerate(batch_sizes):
                idx = packed_reference(rng, M, n_batches, bs)
                if raw.any():
                    with np.errstate(divide="ignore", invalid="ignore"):
                        errs = norm_errors_vectorized(raw, idx, power)
                    errs = errs[~np.isnan(errs)]
                    counts[j] += errs.size
                    if errs.size:
                        means[j].append(errs.mean())
        for j, bs in enumerate(batch_sizes):
            col = np.array(means[j])
            k = len(col)
            mean = float(col.mean()) if k else float("nan")
            stderr = float(col.std(ddof=1) / np.sqrt(k)) if k > 1 else 0.0
            zero = (n_inits - dead) * n_batches - counts[j]
            rows.append((M, bs, repr(mean), repr(stderr), counts[j], dead, zero))
    return rows


def stats_key(stats):
    """Every field of each cell; floats by repr, so a nan equals a nan."""
    return [
        (s.M, s.batch_size, repr(s.mean_error), repr(s.std_error), s.n,
         s.dead_inits, s.zero_batches)
        for s in stats
    ]


class TestValidationAccuracy:
    def test_noiseless_separable_is_perfect(self):
        points = qpsk_points()
        acc = metrics.validation_accuracy(points, matched_filter(points), 1e-10, 1000,
                                          np.random.default_rng(0))
        assert acc == 1.0

    def test_untrained_receiver_is_chance_level(self):
        accs = []
        for seed in range(16):
            rng = np.random.default_rng(seed)
            tx = nn.build_mlp([128, 100, 100, 2], rng)
            rx = nn.build_mlp([2, 100, 100, 128], rng)
            accs.append(
                metrics.validation_accuracy(
                    alphabet_points(tx), rx, 10**-4.5, 1000, np.random.default_rng(seed + 999)
                )
            )
        p = 1 / 128
        stderr = np.sqrt(p * (1 - p) / (16 * 128))
        assert abs(np.mean(accs) - p) < 3 * stderr

    def test_seed_invariance_within_stderr(self):
        rng = np.random.default_rng(10)
        points = alphabet_points(nn.build_mlp([16, 30, 2], rng))
        rx = nn.build_mlp([2, 30, 16], rng)
        n = 30 * 1000
        a1 = metrics.validation_accuracy(points, rx, 0.05, n, np.random.default_rng(1))
        a2 = metrics.validation_accuracy(points, rx, 0.05, n, np.random.default_rng(2))
        stderr = np.sqrt(a1 * (1 - a1) / n)
        assert abs(a1 - a2) < 3 * np.sqrt(2) * stderr

    def test_range(self):
        rng = np.random.default_rng(11)
        points = alphabet_points(nn.build_mlp([4, 8, 2], rng))
        rx = nn.build_mlp([2, 8, 4], rng)
        acc = metrics.validation_accuracy(points, rx, 0.5, 300, np.random.default_rng(3))
        assert 0.0 <= acc <= 1.0

    def test_equals_one_full_array_decode(self):
        # one draw of all labels, then one of all noise, off the one generator; at
        # M=128 the 1500 labels span two 512-row windows and a partial third
        rng = np.random.default_rng(12)
        points = alphabet_points(nn.build_mlp([128, 100, 100, 2], rng))
        rx = nn.build_mlp([2, 100, 100, 128], rng)
        acc = metrics.validation_accuracy(points, rx, 0.01, 1500, np.random.default_rng(4))
        data = np.random.default_rng(4)
        labels = data.integers(0, 128, size=1500)
        y = comm.awgn(comm.gather(points, labels), 0.01, data)
        assert acc == np.count_nonzero(comm.decode(nn.mlp_forward(y, rx)[0]) == labels) / 1500

    def test_every_receiver_pass_has_one_row_count(self):
        # validation decodes its 3000 labels as ser decodes one SNR point: at M=128,
        # five full 512-row windows and a partial one, so each label is decoded once
        rng = np.random.default_rng(19)
        points, _ = comm.normalize_average(rng.normal(size=(128, 2)), 1.0)
        rx = nn.build_mlp([2, 100, 100, 128], rng)
        rows = []

        def spy(X, mlp, **kw):
            rows.append(len(X))
            return forward(X, mlp, **kw)

        forward = nn.mlp_forward
        with mock.patch.object(nn, "mlp_forward", spy):
            metrics.validation_accuracy(points, rx, 0.01, 3000, np.random.default_rng(20))
        assert rows == [512] * 5 + [440]

    def test_memory_bounded_by_block(self):
        rng = np.random.default_rng(21)
        points, _ = comm.normalize_average(rng.normal(size=(128, 2)), 1.0)
        rx = nn.build_mlp([2, 100, 100, 128], rng)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            metrics.validation_accuracy(points, rx, 0.01, 40000, np.random.default_rng(22))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 16 * 2**20


def qpsk_ser_closed_form(snr_db):
    gamma = 10 ** (snr_db / 10.0)
    q = sps.norm.sf(np.sqrt(gamma))
    return 2 * q - q * q


class TestSerSweep:
    def test_qpsk_min_distance_matches_closed_form(self):
        points = qpsk_points()
        rows = metrics.ser_sweep(
            points, matched_filter(points), [4.0, 8.0, 12.0], 200000, np.random.default_rng(5), power=1.0
        )
        for snr_db, ser, lo, hi in rows:
            assert lo <= qpsk_ser_closed_form(snr_db) <= hi

    def test_monotone_nonincreasing_within_ci(self):
        points = qpsk_points()
        rows = metrics.ser_sweep(
            points, matched_filter(points), [0, 4, 8, 12, 16, 20], 50000, np.random.default_rng(6), power=1.0
        )
        sers = [r[1] for r in rows]
        widths = [r[3] - r[2] for r in rows]
        for k in range(len(sers) - 1):
            assert sers[k + 1] <= sers[k] + widths[k]

    def test_high_snr_separable_goes_to_zero(self):
        points = qpsk_points()
        rows = metrics.ser_sweep(points, matched_filter(points), [30.0], 20000, np.random.default_rng(7), 1.0)
        assert rows[0][1] == 0.0

    @pytest.mark.parametrize("n_symbols", [300, 1234, 5000])
    @pytest.mark.parametrize("decoder", ["rx", "matched-filter"])
    def test_blocked_decode_equals_full_array(self, decoder, n_symbols):
        # 300 rows is below one block for both receivers; 1234 and 5000 end in a partial block
        rng = np.random.default_rng(13)
        points, _ = comm.normalize_average(rng.normal(size=(128, 2)), 1.0)
        rx = nn.build_mlp([2, 100, 100, 128], rng) if decoder == "rx" else matched_filter(points)
        snrs = [0.0, 10.0, 30.0]
        blocked = metrics.ser_sweep(points, rx, snrs, n_symbols, np.random.default_rng(14), power=1.0)
        full = full_array_ser(points, rx, snrs, n_symbols, np.random.default_rng(14), power=1.0)
        assert blocked == full

    def test_every_receiver_pass_has_one_row_count(self):
        # full windows, then the partial last one as it is: each label is decoded once
        rng = np.random.default_rng(17)
        points, _ = comm.normalize_average(rng.normal(size=(128, 2)), 1.0)
        rx = nn.build_mlp([2, 100, 100, 128], rng)
        block = metrics._BLOCK // 128
        rows = []

        def spy(X, mlp, **kw):
            rows.append(len(X))
            return forward(X, mlp, **kw)

        forward = nn.mlp_forward
        with mock.patch.object(nn, "mlp_forward", spy):
            metrics.ser_sweep(points, rx, [0.0, 10.0], 3 * block + 7, np.random.default_rng(18), power=1.0)
        assert rows == ([block] * 3 + [7]) * 2

    def test_partial_window_reuses_the_forward_set(self):
        # the last window's 7 rows are the leading rows of the full windows' arrays,
        # so the workspace holds one forward set, of `block` rows
        rng = np.random.default_rng(19)
        points, _ = comm.normalize_average(rng.normal(size=(128, 2)), 1.0)
        rx = nn.build_mlp([2, 100, 100, 128], rng)
        block = metrics._BLOCK // 128
        ws = {}
        metrics._decode_errors(points, rx, 2 * block + 7, 1.0, np.random.default_rng(20), ws)
        assert [Z.shape for bufs in ws.values() for Z in bufs] == [(block, 100), (block, 100), (block, 128)]

    @pytest.mark.parametrize("decoder", ["rx", "matched-filter"])
    def test_memory_bounded_by_block(self, decoder):
        rng = np.random.default_rng(15)
        points, _ = comm.normalize_average(rng.normal(size=(128, 2)), 1.0)
        rx = nn.build_mlp([2, 100, 100, 128], rng) if decoder == "rx" else matched_filter(points)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            metrics.ser_sweep(points, rx, [10.0], 100000, np.random.default_rng(16), power=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 16 * 2**20

    def test_memory_per_symbol(self):
        # the labels are held whole, 8 B each, and integers holds no buffer beside
        # them; the noise, the sent and received symbols and the logits are held per
        # window. Holding the symbols and noise whole would take 40 B per symbol
        rng = np.random.default_rng(23)
        points, _ = comm.normalize_average(rng.normal(size=(128, 2)), 1.0)
        n_symbols = 10**6
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            metrics.ser_sweep(points, matched_filter(points), [10.0], n_symbols, np.random.default_rng(24), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 8 * n_symbols + 2**20

    def test_wilson_interval(self):
        lo, hi = metrics.wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.05
        lo, hi = metrics.wilson_interval(50, 100)
        assert lo < 0.5 < hi


def full_array_ser(points, rx, snr_db_list, n_symbols, rng, power):
    """ser_sweep with each SNR point decoded in one pass over all its symbols."""
    rows = []
    for snr_db in snr_db_list:
        sigma2 = comm.sigma2_from_snr(power, snr_db)
        labels = rng.integers(0, points.shape[0], size=n_symbols)
        y = comm.awgn(comm.gather(points, labels), sigma2, rng)
        errors = int(np.count_nonzero(comm.decode(nn.mlp_forward(y, rx)[0]) != labels))
        lo, hi = metrics.wilson_interval(errors, n_symbols)
        rows.append((float(snr_db), errors / n_symbols, lo, hi))
    return rows

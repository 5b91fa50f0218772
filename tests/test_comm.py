import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aecomm import cli, comm
from helpers import KERNEL_FORMS, gradient_check, kernel_form, load_constellation_csv, softmax


def random_matrix(seed, rows=6, cols=2, scale=1.0):
    return np.random.default_rng(seed).normal(scale=scale, size=(rows, cols))


class TestPowerFromEb:
    def test_binary(self):
        assert comm.power_from_eb(2, 1.0) == 1.0

    def test_m128(self):
        assert comm.power_from_eb(128, 1.0) == 7.0

    def test_half_eb(self):
        assert comm.power_from_eb(16, 0.5) == 2.0

    def test_power_overflow_rejected(self):
        assert comm.power_from_eb(2, 1e308) == 1e308
        with pytest.raises(ValueError, match="infinite power"):
            comm.power_from_eb(256, 1e308)

    @pytest.mark.parametrize("M", [1, 3, 6, 100])
    def test_non_power_of_two(self, M):
        with pytest.raises(ValueError):
            comm.power_from_eb(M, 1.0)


class TestNormalizeAverage:
    def test_hand_case(self):
        X = np.array([[1.0, 0.0], [0.0, 3.0]])
        out, s = comm.normalize_average(X, 1.0)
        assert s == pytest.approx(np.sqrt(0.2), rel=1e-12)
        assert np.allclose(out, [[0.4472135954999579, 0.0], [0.0, 1.3416407864998738]], atol=1e-12)

    def test_fixed_point(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        out, s = comm.normalize_average(X, 1.0)
        assert s == 1.0
        assert np.array_equal(out, X)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.1, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_mean_power_postcondition(self, seed, rows, power):
        X = random_matrix(seed, rows=rows, scale=3.0)
        out, _ = comm.normalize_average(X, power)
        assert np.mean(np.sum(out * out, axis=1)) == pytest.approx(power, rel=1e-12)

    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, seed, c):
        X = random_matrix(seed)
        out1, _ = comm.normalize_average(X, 1.0)
        out2, _ = comm.normalize_average(c * X, 1.0)
        assert np.allclose(out1, out2, rtol=1e-10, atol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(comm.DegenerateInputError):
            comm.normalize_average(np.zeros((3, 2)), 1.0)

    def test_overflowing_power_sum_gives_nan(self):
        # finite rows whose squares overflow have no finite scale: nan, not zeros
        X = np.array([[1e200, 0.0], [0.0, -1e200], [1.0, 2.0]])
        with np.errstate(over="ignore"):
            out, s = comm.normalize_average(X, 1.0)
        assert np.isnan(s)
        assert np.isnan(out).all()


class TestNormalizeAverageBackward:
    def test_zero_upstream(self):
        X = random_matrix(2)
        _, s = comm.normalize_average(X, 1.0)
        dX = comm.normalize_average_backward(np.zeros_like(X), X, s)
        assert np.array_equal(dX, np.zeros_like(X))

    def test_aggregate_orthogonal_passthrough(self):
        # s = 1 and sum_i <dX'_i, x_i> = 0  =>  dX = dX'
        X = np.array([[1.0, 0.0], [0.0, 1.0]])  # Q = N*P with P = 1
        dXp = np.array([[0.0, 2.0], [3.0, 0.0]])  # row-wise orthogonal to X
        dX = comm.normalize_average_backward(dXp, X, 1.0)
        assert np.allclose(dX, dXp, atol=1e-15)

    def test_matches_finite_differences(self):
        X0 = random_matrix(5, rows=5)
        w = random_matrix(6, rows=5)

        def f(vec):
            X = vec.reshape(X0.shape)
            out, s = comm.normalize_average(X, 1.7)
            dX = comm.normalize_average_backward(w, X, s)
            return float(np.sum(w * out)), dX.ravel()

        assert gradient_check(f, X0.ravel()) < 1e-6


class TestGather:
    def test_identity(self):
        X = random_matrix(7)
        assert np.array_equal(comm.gather(X, np.arange(6)), X)

    def test_duplicates(self):
        X = random_matrix(8)
        out = comm.gather(X, np.array([5, 5, 5]))
        assert np.array_equal(out, np.stack([X[5]] * 3))

    def test_rows_bit_equal(self):
        X = random_matrix(9, rows=10)
        idx = np.random.default_rng(10).integers(0, 10, size=30)
        out = comm.gather(X, idx)
        for k, j in enumerate(idx):
            assert np.array_equal(out[k], X[j])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            comm.gather(random_matrix(0), np.array([6]))

    def test_float_indices_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            comm.gather(random_matrix(0), np.array([0.0, 1.0]))

    def test_fills_out(self):
        X = random_matrix(15, rows=10)
        idx = np.array([3, 0, 3, 9], np.uint8)
        out = np.full((4, 2), np.nan)
        assert comm.gather(X, idx, out=out) is out
        assert np.array_equal(out, X[[3, 0, 3, 9]])


class TestGatherBackward:
    # at most 200 rows, so every index fits uint8; at 100 columns the flat index
    # idx * 100 + col would wrap in uint8 or int16
    @settings(max_examples=200, deadline=None)
    @given(
        n_rows=st.integers(1, 200),
        n_batch=st.integers(0, 64),
        cols=st.sampled_from([1, 2, 100]),
        dtype=st.sampled_from([np.uint8, np.int16, np.uint64, np.int64]),
        whole=st.booleans(),
        prefill=st.sampled_from([None, "nan", "garbage"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_row_order_loop_bit_for_bit(self, n_rows, n_batch, cols, dtype, whole, prefill, seed):
        rng = np.random.default_rng(seed)
        idx = (np.arange(n_rows) if whole else rng.integers(0, n_rows, size=n_batch)).astype(dtype)
        d = rng.normal(size=(len(idx), cols))
        d[rng.random(d.shape) < 0.3] = -0.0
        expected = np.zeros((n_rows, cols))
        for r, j in enumerate(idx):  # repeated indices summed in row order, onto +0.0
            expected[j] += d[r]
        garbage = rng.bytes(8 * expected.size)
        for form in KERNEL_FORMS:  # the kernel form takes intp indices only
            out = None
            if prefill == "nan":
                out = np.full(expected.shape, np.nan)
            elif prefill == "garbage":
                out = np.frombuffer(garbage, np.float64).reshape(expected.shape).copy()
            with kernel_form(form):
                got = comm.gather_backward(d, idx, n_rows, out=out)
            assert out is None or got is out
            assert got.tobytes() == expected.tobytes(), form  # tells -0.0 from +0.0

    @settings(max_examples=50, deadline=None)
    @given(n_rows=st.integers(1, 50), n_batch=st.integers(1, 64), cols=st.integers(1, 5),
           whole=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_of_gather(self, n_rows, n_batch, cols, whole, seed):
        # <gather(X, i), D> = <X, gather_backward(D, i, n)>
        rng = np.random.default_rng(seed)
        idx = np.arange(n_rows) if whole else rng.integers(0, n_rows, size=n_batch)
        X, D = rng.normal(size=(n_rows, cols)), rng.normal(size=(len(idx), cols))
        lhs = float(np.vdot(comm.gather(X, idx), D))
        rhs = float(np.vdot(X, comm.gather_backward(D, idx, n_rows)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_permutation(self):
        d = random_matrix(11)
        assert np.array_equal(comm.gather_backward(d, np.arange(6), 6), d)

    def test_accumulation(self):
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = comm.gather_backward(d, np.array([2, 2]), 4)
        expected = np.zeros((4, 2))
        expected[2] = [4.0, 6.0]
        assert np.array_equal(out, expected)

    def test_composite_with_normalization(self):
        # gradient of gather(normalize_average(X)) wrt X, against finite differences
        X0 = random_matrix(12, rows=5)
        idx = np.array([0, 3, 3, 1])
        w = random_matrix(13, rows=4)

        def f(vec):
            X = vec.reshape(X0.shape)
            out, s = comm.normalize_average(X, 1.0)
            sel = comm.gather(out, idx)
            dall = comm.gather_backward(w, idx, 5)
            dX = comm.normalize_average_backward(dall, X, s)
            return float(np.sum(w * sel)), dX.ravel()

        assert gradient_check(f, X0.ravel()) < 1e-6


class TestAwgn:
    def test_near_zero_noise(self):
        X = random_matrix(14)
        Y = comm.awgn(X, 1e-300, np.random.default_rng(0))
        assert np.allclose(Y, X, atol=1e-100)

    def test_component_variance(self):
        Z = comm.awgn(np.zeros((10**6, 2)), 0.8, np.random.default_rng(15))
        assert Z.mean() == pytest.approx(0.0, abs=0.005)
        assert Z.var() == pytest.approx(0.4, rel=0.01)

    def test_sigma2_from_snr(self):
        assert comm.sigma2_from_snr(1.0, 45.0) == pytest.approx(10 ** -4.5, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [4000, -4000, 10**400, float("nan")])
    def test_sigma2_outside_positive_floats_rejected(self, snr_db):
        with pytest.raises(ValueError, match="noise variance"):
            comm.sigma2_from_snr(1.0, snr_db)


class TestDecode:
    def test_one_hot(self):
        assert np.array_equal(comm.decode(np.eye(4)), np.arange(4))

    def test_tie_breaks_low(self):
        assert comm.decode(np.array([[0.2, 0.9, 0.9]]))[0] == 1

    def test_softmax_monotone(self):
        logits = np.random.default_rng(16).normal(size=(20, 7))
        assert np.array_equal(comm.decode(logits), comm.decode(softmax(logits)))


class TestConstellationCsv:
    def test_roundtrip_exact(self, tmp_path, monkeypatch):
        # the train command writes constellation.csv; arbitrary doubles stand in
        # for the trained points, so every one must survive the text round trip
        points = random_matrix(17, rows=8)
        train_and_score = cli._train_and_score

        def with_points(config, cfg):
            result, accuracy = train_and_score(config, cfg)
            return dataclasses.replace(result, constellation=points), accuracy

        monkeypatch.setattr(cli, "_train_and_score", with_points)
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"M": 8, "batch_size": 8, "data_budget": 64,
                                   "val_batches": 1, "val_batch_size": 8}))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        path = tmp_path / "o" / "constellation.csv"
        loaded = load_constellation_csv(path)
        assert np.array_equal(points, loaded)
        header = path.read_text().splitlines()[0]
        assert header == "index,re,im"

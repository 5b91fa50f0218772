"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 5 runs a reduced 3x3-seed variant by default; set
AECOMM_FULL_ACCEPTANCE=1 to run the full 10x10-seed sweep (~25 min on 2 cores).
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import csv
import json
import os

import numpy as np
import pytest
from scipy import stats as sps

from aecomm import cli, comm, metrics, nn, train
from helpers import e2e_loss_fn, gradient_check, qpsk_points


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def relu_kink_margin(architecture, tx, rx, batch, noise, power):
    """Smallest |pre-activation| over all ReLU layers of the end-to-end forward.

    Central differences are invalid when a ReLU input sits within the step
    size of its kink, so random configurations are screened on this margin.
    """
    M = tx.in_dim
    X = np.eye(M) if architecture == "proposed" else np.eye(M)[batch]
    raw, tx_cache = nn.mlp_forward(X, tx)
    if np.sum(raw * raw) == 0.0:
        return 0.0
    points, _ = comm.normalize_average(raw, power)
    y = (comm.gather(points, batch) if architecture == "proposed" else points) + noise
    _, rx_cache = nn.mlp_forward(y, rx)
    margin = np.inf
    for mlp, cache in ((tx, tx_cache), (rx, rx_cache)):
        # every layer but the last is ReLU; the cache keeps its output, so
        # its pre-activation is recomputed from the layer input as the forward does
        for (A, _), W, b in zip(cache[:-1], mlp.weights, mlp.biases):
            margin = min(margin, float(np.min(np.abs(A @ W + b))))
    return margin


def test_criterion_1_gradient_fidelity():
    """20 random configs per architecture: analytic vs central differences."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for architecture in train.ARCHITECTURES:
        done = 0
        while done < 20:
            M = int(rng.choice([4, 16, 128]))
            bs = int(rng.choice([4, 32]))
            n_hidden = int(rng.integers(1, 3))
            tx = nn.build_mlp([M, *(int(rng.integers(3, 7)) for _ in range(n_hidden)), 2], rng)
            rx = nn.build_mlp([2, *(int(rng.integers(3, 7)) for _ in range(n_hidden)), M], rng)
            batch = rng.integers(0, M, size=bs)
            noise = rng.normal(scale=0.05, size=(bs, 2))
            if relu_kink_margin(architecture, tx, rx, batch, noise, 1.0) < 1e-3:
                continue
            f, x0 = e2e_loss_fn(architecture, tx, rx, batch, noise, 1.0)
            err = gradient_check(f, x0, h=1e-5)
            assert err < 1e-5, f"{architecture} M={M} Bs={bs}: rel error {err}"
            worst = max(worst, err)
            done += 1
    report(1, f"(worst relative error {worst:.3g})")


def test_criterion_2_normalization_exactness():
    """Per-step power constraints over 1,000 training steps of each architecture."""
    for architecture in train.ARCHITECTURES:
        cfg = train.TrainConfig(
            M=16, batch_size=32, snr_db=20.0, architecture=architecture,
            tx_hidden=(30,), rx_hidden=(30,), data_budget=32 * 1000,
            init_seed=5, data_seed=6,
        )
        tx, rx = train.init_model(cfg)
        opt = nn.Adam(*nn.pack_params(tx, rx), lr=cfg.lr)
        data_rng = np.random.default_rng(cfg.data_seed)
        noise_rng = np.random.default_rng(np.random.SeedSequence(cfg.data_seed).spawn(1)[0])
        for _ in range(cfg.n_steps):
            batch = data_rng.integers(0, cfg.M, size=cfg.batch_size)
            noise = noise_rng.normal(0, np.sqrt(cfg.sigma2 / 2), size=(cfg.batch_size, 2))
            _, symbols = train.loss_and_grads(tx, rx, batch, noise, cfg.power, architecture)
            # proposed returns the alphabet constellation, baseline the batch symbols
            mean_power = float(np.mean(np.sum(symbols * symbols, axis=1)))
            assert abs(mean_power - cfg.power) <= 1e-9 * cfg.power
            opt.step()
    report(2)


def test_criterion_3_zero_error_on_alphabet_multiples():
    """Normalization error vanishes when the batch is k whole copies of the alphabet."""
    rng = np.random.default_rng(77)
    for _ in range(100):
        M = int(rng.choice([2, 4, 8, 16]))
        k = int(rng.integers(1, 5))
        hidden = int(rng.integers(5, 40))
        tx = nn.build_mlp([M, hidden, 2], rng)
        batch = np.tile(np.arange(M), k)
        rng.shuffle(batch)
        power = comm.power_from_eb(M, float(rng.uniform(0.2, 3.0)))
        assert metrics.normalization_error(tx, batch, power) < 1e-12
    report(3)


def test_criterion_4_batch_size_and_alphabet_trends():
    """Normalization-error sweep: decreasing in batch size, increasing in M."""
    M_list = [4, 16, 64, 256]
    bs_list = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    stats = metrics.norm_error_experiment(M_list, bs_list, 30, 1000, 1.0, (60, 60), seed=0)
    table = {(s.M, s.batch_size): s for s in stats}
    for M in M_list:
        inversions = 0
        for a, b in zip(bs_list, bs_list[1:]):
            lo, hi = table[(M, a)], table[(M, b)]
            if hi.mean_error > lo.mean_error:
                inversions += 1
                combined = 2.0 * np.hypot(lo.std_error, hi.std_error)
                assert hi.mean_error - lo.mean_error < combined, (M, a, b)
        assert inversions <= 1, f"M={M}: {inversions} batch-size inversions"
    for bs in bs_list:
        means = [table[(M, bs)].mean_error for M in M_list]
        assert all(x < y for x, y in zip(means, means[1:])), f"Bs={bs}: not increasing in M"
    report(4)


def _accuracy_table(tmp_path, batch_sizes, init_seeds, data_seeds):
    """Paired validation accuracies at paper scale, keyed by (Bs, arch).

    The runs go through `aecomm compare` at its default worker count, the
    same process pool a user's sweep runs in.
    """
    cfg = tmp_path / "compare.json"
    cfg.write_text(json.dumps({
        "M": 128, "snr_db": 45.0, "power": 1.0, "tx_hidden": [100, 100], "rx_hidden": [100, 100],
        "lr": 0.008, "data_budget": 76800, "val_batches": 30, "val_batch_size": 1000, "val_seed": 0,
        "batch_sizes": batch_sizes, "init_seeds": init_seeds, "data_seeds": data_seeds,
    }))
    assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    table = {(bs, arch): [] for bs in batch_sizes for arch in train.ARCHITECTURES}
    # rows come in (Bs, init_seed, data_seed) order, so each list keeps the pairing
    with open(tmp_path / "out" / "accuracy.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            table[(int(row["Bs"]), row["arch"])].append(float(row["accuracy"]))
    return table


def _bootstrap_fraction_negative(samples, rng, n_boot=10000):
    samples = np.asarray(samples)
    idx = rng.integers(0, len(samples), size=(n_boot, len(samples)))
    return float(np.mean(samples[idx].mean(axis=1) < 0.0))


def _check_comparison(table, batch_sizes, median_batch_sizes):
    rng = np.random.default_rng(12345)
    gaps = {}
    for bs in batch_sizes:
        proposed = np.asarray(table[(bs, "proposed")])
        baseline = np.asarray(table[(bs, "baseline")])
        if bs in median_batch_sizes:
            assert np.median(proposed) == 1.0, f"Bs={bs}: proposed median {np.median(proposed)}"
        diffs = proposed - baseline  # paired by shared seeds
        assert proposed.mean() > baseline.mean(), f"Bs={bs}: no mean improvement"
        assert _bootstrap_fraction_negative(diffs, rng) <= 0.05, f"Bs={bs}"
        gaps[bs] = diffs
    lo_bs, hi_bs = min(batch_sizes), max(batch_sizes)
    assert gaps[hi_bs].mean() < gaps[lo_bs].mean(), "gap did not shrink with batch size"
    # bootstrap the gap difference with independent resampling per batch size
    idx_lo = rng.integers(0, len(gaps[lo_bs]), size=(10000, len(gaps[lo_bs])))
    idx_hi = rng.integers(0, len(gaps[hi_bs]), size=(10000, len(gaps[hi_bs])))
    shrink = gaps[lo_bs][idx_lo].mean(axis=1) - gaps[hi_bs][idx_hi].mean(axis=1)
    assert float(np.mean(shrink < 0.0)) <= 0.05


def test_criterion_5_paired_accuracy_comparison_smoke(tmp_path):
    """Reduced Fig.-5 variant: 3x3 seeds, batch sizes 16 and 256, paper scale per run."""
    batch_sizes = [16, 256]
    table = _accuracy_table(tmp_path, batch_sizes, init_seeds=[0, 1, 2], data_seeds=[100, 101, 102])
    _check_comparison(table, batch_sizes, median_batch_sizes=batch_sizes)
    means = {k: round(float(np.mean(v)), 4) for k, v in table.items()}
    report(5, f"(smoke variant; means {means})")


@pytest.mark.skipif(
    not os.environ.get("AECOMM_FULL_ACCEPTANCE"),
    reason="full 10x10-seed sweep (~25 min on 2 cores); set AECOMM_FULL_ACCEPTANCE=1",
)
def test_criterion_5_paired_accuracy_comparison_full(tmp_path):
    batch_sizes = [16, 32, 64, 128, 256]
    table = _accuracy_table(
        tmp_path, batch_sizes, init_seeds=list(range(10)), data_seeds=list(range(100, 110))
    )
    _check_comparison(table, batch_sizes, median_batch_sizes=batch_sizes)
    report(5, "(full scale)")


def test_criterion_6_scope_equivalence():
    """Batch = alphabet once each: both architectures produce bit-identical forwards."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        M = 16
        tx = nn.build_mlp([M, 25, 2], rng)
        rx = nn.build_mlp([2, 25, M], rng)
        batch = np.arange(M)
        noise = np.random.default_rng(seed + 500).normal(scale=0.01, size=(M, 2))
        loss_b, sent_b = train.loss_and_grads(tx, rx, batch, noise, 1.0, "baseline")
        loss_p, points_p = train.loss_and_grads(tx, rx, batch, noise, 1.0, "proposed")
        assert loss_b == loss_p
        assert np.array_equal(sent_b, points_p)
    report(6)


def test_criterion_7_qpsk_ser_sanity():
    """Injected QPSK with a trained receiver vs the closed-form error probability."""
    points = qpsk_points(power=1.0)
    snr_db_list = [4.0, 8.0, 12.0]
    rng = np.random.default_rng(0)
    rx = nn.build_mlp([2, 4], rng)  # softmax receiver; ML boundaries are linear
    opt = nn.Adam(*nn.pack_params(rx), lr=0.02)
    for step in range(6000):
        if step == 3000:
            opt.lr = 0.002
        sigma2 = comm.sigma2_from_snr(1.0, snr_db_list[step % 3])
        labels = rng.integers(0, 4, size=1024)
        y = comm.awgn(comm.gather(points, labels), sigma2, rng)
        logits, cache = nn.mlp_forward(y, rx)
        _, dlogits = nn.softmax_cross_entropy(logits, labels)
        nn.mlp_backward(dlogits, cache, rx)
        opt.step()

    rows = metrics.ser_sweep(points, rx, snr_db_list, 30000, np.random.default_rng(78), power=1.0)
    for snr_db, ser, lo, hi in rows:
        gamma = 10 ** (snr_db / 10.0)
        q = sps.norm.sf(np.sqrt(gamma))
        closed_form = 2 * q - q * q
        assert lo <= closed_form <= hi, f"SNR {snr_db} dB: SER {ser} vs {closed_form}"
    report(7)


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Every command rerun with the same config yields byte-identical data files."""
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "M": 4, "batch_size": 32, "architecture": "proposed", "data_budget": 3200,
        "tx_hidden": [16], "rx_hidden": [16], "val_batches": 3, "val_batch_size": 100,
    }))
    norm_cfg = tmp_path / "norm.json"
    norm_cfg.write_text(json.dumps({
        "M_list": [4, 16], "batch_sizes": [4, 16], "n_inits": 3, "n_batches": 50,
        "tx_hidden": [10],
    }))
    compare_cfg = tmp_path / "compare.json"
    compare_cfg.write_text(json.dumps({
        "M": 4, "batch_sizes": [8], "init_seeds": [0], "data_seeds": [100],
        "data_budget": 800, "tx_hidden": [10], "rx_hidden": [10],
        "val_batches": 2, "val_batch_size": 50,
    }))
    outputs = {}
    for label in ("a", "b"):
        base = tmp_path / label
        assert cli.main(["train", "--config", str(train_cfg), "--out", str(base / "train")]) == 0
        assert cli.main(["norm-error", "--config", str(norm_cfg), "--out", str(base / "norm")]) == 0
        assert cli.main(["compare", "--config", str(compare_cfg), "--out", str(base / "cmp")]) == 0
        ser_cfg = tmp_path / f"ser_{label}.json"
        ser_cfg.write_text(json.dumps({
            "run_json": str(base / "train" / "run.json"), "n_symbols": 2000,
        }))
        assert cli.main(["ser", "--config", str(ser_cfg), "--out", str(base / "ser")]) == 0
        outputs[label] = {
            rel: (base / rel).read_bytes()
            for rel in (
                "train/run.json", "train/constellation.csv",
                "norm/norm_error.csv", "cmp/accuracy.csv", "ser/ser.csv",
            )
        }
    assert outputs["a"] == outputs["b"]
    report(8)

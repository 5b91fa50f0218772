"""Measurement instruments: per-batch normalization error, validation accuracy
on a zero-normalization-error set, and a Monte-Carlo symbol-error-rate sweep.

The normalization error of a batch B is mean_i |x_i - x'_i| where x are the
transmitter outputs normalized over the batch and x' the outputs normalized
over the whole alphabet (then gathered at B's indices). It is zero exactly
when the two scale factors coincide on the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import comm, nn

# two-sided 95% normal quantile, for Wilson intervals
_Z95 = 1.959963984540054


@dataclass
class NormErrorStats:
    M: int
    batch_size: int
    eb: float
    mean_error: float
    std_error: float  # standard error of the mean over initializations
    n_inits: int
    n_batches: int


def normalization_error(
    tx: nn.Mlp,
    batch_indices: np.ndarray,
    power: float,
) -> float:
    """Mean distance between batch-scope and alphabet-scope normalized symbols."""
    M = tx.in_dim
    batch_indices = np.asarray(batch_indices)
    raw, _ = nn.mlp_forward(np.arange(M), tx)
    x_batch, _ = comm.normalize_average(comm.gather(raw, batch_indices), power)
    all_norm, _ = comm.normalize_average(raw, power)
    x_alpha = comm.gather(all_norm, batch_indices)
    return float(np.linalg.norm(x_batch - x_alpha, axis=1).mean())


def _norm_errors_vectorized(
    raw: np.ndarray,
    indices: np.ndarray,
    power: float,
) -> np.ndarray:
    """Normalization error for many batches at once.

    Both normalizations scale the same raw rows, so the error of a batch is
    |s_batch - s_alphabet| times the mean raw-row norm of the batch.
    """
    row_power = np.sum(raw * raw, axis=1)
    row_norm = np.sqrt(row_power)
    s_alpha = np.sqrt(raw.shape[0] * power / row_power.sum())
    q_batch = row_power[indices].sum(axis=1)
    s_batch = np.sqrt(indices.shape[1] * power / q_batch)
    return np.abs(s_batch - s_alpha) * row_norm[indices].mean(axis=1)


def norm_error_experiment(
    M_list: list[int],
    batch_sizes: list[int],
    n_inits: int,
    n_batches: int,
    eb: float,
    tx_hidden: tuple[int, ...],
    seed: int,
) -> list[NormErrorStats]:
    """Average normalization error of randomly initialized transmitters.

    For each (M, batch_size) cell: n_inits transmitters, n_batches uniformly
    sampled batches each, with P = eb * log2(M).
    """
    if not M_list or not batch_sizes:
        raise ValueError("M_list and batch_sizes must be nonempty")
    rng = np.random.default_rng(seed)
    stats = []
    for M in M_list:
        power = comm.power_from_eb(M, eb)
        # per-init mean error for every batch size, raw outputs computed once
        init_means = np.empty((n_inits, len(batch_sizes)))
        for i in range(n_inits):
            tx = nn.build_mlp([M, *tx_hidden, 2], rng)
            raw, _ = nn.mlp_forward(np.arange(M), tx)
            for j, bs in enumerate(batch_sizes):
                idx = rng.integers(0, M, size=(n_batches, bs))
                init_means[i, j] = _norm_errors_vectorized(raw, idx, power).mean()
        for j, bs in enumerate(batch_sizes):
            col = init_means[:, j]
            stderr = col.std(ddof=1) / np.sqrt(n_inits) if n_inits > 1 else 0.0
            stats.append(
                NormErrorStats(M, bs, eb, float(col.mean()), float(stderr), n_inits, n_batches)
            )
    return stats


def validation_accuracy(
    tx: nn.Mlp,
    rx: nn.Mlp,
    power: float,
    sigma2: float,
    n_batches: int,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """Categorical accuracy on alphabet-normalized symbols (zero normalization error)."""
    M = tx.in_dim
    raw, _ = nn.mlp_forward(np.arange(M), tx)
    points, _ = comm.normalize_average(raw, power)
    correct = 0
    for _ in range(n_batches):
        labels = rng.integers(0, M, size=batch_size)
        y = comm.awgn(comm.gather(points, labels), sigma2, rng)
        logits, _ = nn.mlp_forward(y, rx)
        correct += int(np.count_nonzero(comm.decode(logits) == labels))
    return correct / (n_batches * batch_size)


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one trial")
    p = errors / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (_Z95 / denom) * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def ser_sweep(
    points: np.ndarray,
    rx: nn.Mlp | None,
    snr_db_list: list[float],
    n_symbols: int,
    rng: np.random.Generator,
    power: float | None = None,
) -> list[tuple[float, float, float, float]]:
    """Monte-Carlo symbol error rate per SNR point, with 95% Wilson CI.

    Decodes with the receiver network when given, else by minimum distance to
    the constellation. Power defaults to the constellation's mean row power.
    """
    if power is None:
        power = float(np.mean(np.sum(points * points, axis=1)))
    rows = []
    for snr_db in snr_db_list:
        sigma2 = comm.sigma2_from_snr(power, snr_db)
        labels = rng.integers(0, points.shape[0], size=n_symbols)
        y = comm.awgn(comm.gather(points, labels), sigma2, rng)
        if rx is not None:
            logits, _ = nn.mlp_forward(y, rx)
            decided = comm.decode(logits)
        else:
            d2 = ((y[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
            decided = np.argmin(d2, axis=1)
        errors = int(np.count_nonzero(decided != labels))
        lo, hi = wilson_interval(errors, n_symbols)
        rows.append((float(snr_db), errors / n_symbols, lo, hi))
    return rows

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


# Floats in the widest array of one block: norm-error draws as many whole
# batches at a time as keep its complex gather (2 floats per index) within it,
# each batch counted up to whole raw words of 8 indices (so at most 32 KiB of
# raw words at M <= 256), and at least one batch; the decoders (ser,
# validation) draw the noise of, send and decode as many rows as keep the
# widest per-row activation within it. Bounded blocks stay in cache.
# norm-error holds its index, gather and per-batch buffers, 24 B per index of
# its largest block, for the whole sweep. Held whole, 8 B each: norm-error's
# n_batches errors per init and batch size, and the decoders' labels.
_BLOCK = 1 << 16


@dataclass
class NormErrorStats:
    M: int
    batch_size: int
    mean_error: float  # nan when nothing was left to average
    std_error: float  # standard error of the mean over initializations
    n: int  # batches averaged, over those initializations
    dead_inits: int  # excluded: the whole alphabet output was zero
    zero_batches: int  # excluded: every row of the batch was zero


def normalization_error(tx: nn.Mlp, batch_indices: np.ndarray, power: float) -> float:
    """Mean distance between batch- and alphabet-scope normalized symbols: the closed
    form of _batch_errors on one batch, nan for an all-zero batch or a dead transmitter."""
    raw, _ = nn.mlp_forward(np.arange(tx.in_dim), tx)
    idx = np.asarray(batch_indices)[None]
    if idx.size and not 0 <= idx.min() <= idx.max() < tx.in_dim:
        raise ValueError("batch index out of range")
    out = np.empty(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        _batch_errors(_alphabet_terms(raw, power), idx, power, out, np.empty(idx.shape, complex), np.empty(1))
    return float(out[0])


def _alphabet_terms(raw: np.ndarray, power: float) -> tuple[np.ndarray, float]:
    """Per-row power + 1j * per-row norm of the raw alphabet output, one table that
    one gather reads both from, and the alphabet-scope scale."""
    table = np.empty(raw.shape[0], dtype=complex)
    np.sum(raw * raw, axis=1, out=table.real)
    np.sqrt(table.real, out=table.imag)
    return table, np.sqrt(raw.shape[0] * power / table.real.sum())


def _batch_errors(terms: tuple, indices: np.ndarray, power: float, out: np.ndarray,
                  gathered: np.ndarray, norms: np.ndarray) -> None:
    """Normalization error of each row of batch indices, from _alphabet_terms, into out.

    Both normalizations scale the same raw rows, so the error of a batch is
    |s_batch - s_alphabet| times the mean raw-row norm of the batch. A batch
    of all-zero rows has no batch-scope scale; its error is nan. gathered
    (complex, indices' shape) and norms (one per row) are scratch.
    """
    table, s_alpha = terms
    np.take(table, indices, out=gathered, mode="clip")
    np.divide(np.add.reduce(gathered.imag, axis=1, out=norms), indices.shape[1], out=norms)
    np.add.reduce(gathered.real, axis=1, out=out)
    np.divide(indices.shape[1] * power, out, out=out)
    np.sqrt(out, out=out)
    np.subtract(out, s_alpha, out=out)
    np.abs(out, out=out)
    np.multiply(out, norms, out=out)


@np.errstate(divide="ignore", invalid="ignore")  # zero batches: nan
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
    sampled batches each, with P = eb * log2(M). The batches come from
    comm.draw_packed, which gives each batch whole raw words, so the blocks
    of whole batches that each init draws at a time give the values of one
    (n_batches, batch_size) draw.

    Degenerate cases are excluded and counted, not averaged: an init whose
    whole alphabet output is zero (a dead-ReLU transmitter, with no scale at
    either scope), and a batch whose rows are all zero. Their batches are
    still drawn, so every other cell keeps its values. A cell with nothing
    left has n == 0 and a nan mean.
    """
    rng = np.random.default_rng(seed)
    # batches per block: the complex gather holds 2 floats per index, and Bs is
    # taken up to whole words of 8 units (uint8, M <= 256)
    rows = {bs: min(max(1, _BLOCK // (16 * -(-bs // 8))), n_batches) for bs in batch_sizes}
    errors = np.empty(n_batches)
    cells = max(n * bs for bs, n in rows.items())
    indices, gathered, norms = np.empty(cells, np.intp), np.empty(cells, complex), np.empty(max(rows.values()))
    stats = []
    for M in M_list:
        power = comm.power_from_eb(M, eb)
        # per-init mean error and batches averaged, for every batch size
        init_means = np.full((n_inits, len(batch_sizes)), np.nan)
        kept = np.zeros((n_inits, len(batch_sizes)), dtype=np.int64)
        dead = 0
        for i in range(n_inits):
            tx = nn.build_mlp([M, *tx_hidden, 2], rng)
            raw, _ = nn.mlp_forward(np.arange(M), tx)
            terms = _alphabet_terms(raw, power) if np.any(raw) else None
            dead += terms is None
            for j, bs in enumerate(batch_sizes):
                for a in range(0, n_batches, rows[bs]):
                    n = min(rows[bs], n_batches - a)
                    idx = comm.draw_packed(rng, M, indices[:n * bs].reshape(n, bs))
                    if terms is not None:
                        _batch_errors(terms, idx, power, errors[a:a + n],
                                      gathered[:n * bs].reshape(n, bs), norms[:n])
                if terms is not None:
                    valid = errors[~np.isnan(errors)]
                    kept[i, j] = len(valid)
                    if len(valid):
                        init_means[i, j] = valid.mean()
        for j, bs in enumerate(batch_sizes):
            col = init_means[kept[:, j] > 0, j]
            k = len(col)
            mean = float(col.mean()) if k else float("nan")
            stderr = col.std(ddof=1) / np.sqrt(k) if k > 1 else 0.0
            stats.append(NormErrorStats(
                M, bs, mean, float(stderr), int(kept[:, j].sum()),
                dead_inits=dead, zero_batches=int((n_inits - dead) * n_batches - kept[:, j].sum()),
            ))
    return stats


def _decode_errors(points: np.ndarray, rx: nn.Mlp, n: int, sigma2: float,
                   rng: np.random.Generator, ws: dict) -> int:
    """Wrong decisions of rx on n uniform labels sent as points[labels] through AWGN of
    variance sigma2. The labels are drawn whole (8 B each); then each window of
    _BLOCK // (widest layer) rows draws its noise and is decoded. The draws are those
    of one draw of all labels and then one of all noise, off the same rng."""
    block = max(1, _BLOCK // max(W.shape[1] for W in rx.weights))
    labels = rng.integers(0, points.shape[0], size=n)
    errors = 0
    for a in range(0, n, block):
        y = comm.awgn(comm.gather(points, labels[a:a + block]), sigma2, rng)
        logits, _ = nn.mlp_forward(y, rx, ws=ws)
        errors += int(np.count_nonzero(comm.decode(logits) != labels[a:a + block]))
    return errors


def validation_accuracy(
    points: np.ndarray,
    rx: nn.Mlp,
    sigma2: float,
    n_batches: int,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """Categorical accuracy of rx on n_batches * batch_size symbols of the
    alphabet-normalized constellation `points`, decoded as ser_sweep decodes one SNR point.

    The sent symbols are the deployed constellation itself, so the set has zero
    normalization error.
    """
    n = n_batches * batch_size
    return (n - _decode_errors(points, rx, n, sigma2, rng, {})) / n


def wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    p = errors / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (_Z95 / denom) * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def ser_sweep(
    points: np.ndarray,
    rx: nn.Mlp,
    snr_db_list: list[float],
    n_symbols: int,
    rng: np.random.Generator,
    power: float,
) -> list[tuple[float, float, float, float]]:
    """Monte-Carlo symbol error rate of rx on `points` per SNR point, with 95% Wilson CI."""
    ws = {}
    rows = []
    for snr_db in snr_db_list:
        sigma2 = comm.sigma2_from_snr(power, snr_db)
        errors = _decode_errors(points, rx, n_symbols, sigma2, rng, ws)
        lo, hi = wilson_interval(errors, n_symbols)
        rows.append((float(snr_db), errors / n_symbols, lo, hi))
    return rows

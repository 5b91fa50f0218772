"""Measurement instruments: per-batch normalization error, validation accuracy
on a zero-normalization-error set, and a Monte-Carlo symbol-error-rate sweep.

The normalization error of a batch B is mean_i |x_i - x'_i| where x are the
transmitter outputs normalized over the batch and x' the outputs normalized
over the whole alphabet (then gathered at B's indices). It is zero exactly
when the two scale factors coincide on the batch.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from . import comm, nn

# two-sided 95% normal quantile, for Wilson intervals
_Z95 = 1.959963984540054


# Floats in the widest array of one block: norm-error draws as many whole
# batches at a time as keep the numpy form's complex gather (2 floats per
# index) within it, each batch counted up to whole raw words of 8 indices (so
# at most 32 KiB of raw words at M <= 256), and at least one batch; the
# decoders (ser, validation) draw the noise of, send and decode as many rows as
# keep the widest per-row activation within it. Bounded blocks stay in cache.
# norm-error holds its index buffer, in draw_packed's unit type (1 B per index
# at M <= 256), for the whole sweep, and where no kernel loads the numpy form's
# gather and per-batch buffers, 16 B per index. Held whole, 8 B each:
# norm-error's n_batches errors per init and batch size, and the decoders' labels.
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
    idx = np.asarray(batch_indices)
    if idx.dtype.kind not in "iu":
        raise ValueError(f"batch indices have dtype {idx.dtype}, expected integers")
    if idx.ndim != 1:
        raise ValueError(f"batch indices have {idx.ndim} dimensions, expected 1")
    if idx.size and not 0 <= idx.min() <= idx.max() < tx.in_dim:
        raise ValueError("batch index out of range")
    raw, _ = nn.mlp_forward(np.arange(tx.in_dim), tx)
    out = np.empty(1)
    with np.errstate(divide="ignore", invalid="ignore"):
        _batch_errors(_alphabet_terms(raw, power), idx[None].astype(np.min_scalar_type(tx.in_dim - 1)), power, out)
    return float(out[0])


def _alphabet_terms(raw: np.ndarray, power: float) -> tuple[np.ndarray, float]:
    """Per-row power + 1j * per-row norm of the raw alphabet output, one table that
    one gather reads both from, and the alphabet-scope scale."""
    table = np.empty(raw.shape[0], dtype=complex)
    np.sum(raw * raw, axis=1, out=table.real)
    np.sqrt(table.real, out=table.imag)
    return table, np.sqrt(raw.shape[0] * power / table.real.sum())


def expected_normalization_error(terms: tuple, batch_size: int) -> float:
    """First-order mean normalization error of a batch of batch_size rows drawn uniformly, with
    replacement, from the alphabet of _alphabet_terms; it draws nothing.

    With q = |x|^2 and n = |x| over the raw alphabet rows, s_batch = sqrt(P / mean_batch q)
    moves by s_alpha * d / (2 mean q) for a small shift d of its mean q, and d ~ N(0, var q / Bs)
    has mean |d| = sd(q) * sqrt(2 / (pi Bs)). Times the mean norm, that is
    s_alpha * cv(q) * mean(n) / sqrt(2 pi Bs), sd taken with ddof 0. It runs low at small Bs.
    """
    table, s_alpha = terms
    q = table.real
    return float(s_alpha * q.std() / q.mean() * table.imag.mean() / np.sqrt(2 * np.pi * batch_size))


def _batch_errors(terms: tuple, indices: np.ndarray, power: float, out: np.ndarray, scratch=None) -> None:
    """Normalization error of each row of batch indices, from _alphabet_terms, into out.

    Both normalizations scale the same raw rows, so the error of a batch is
    |s_batch - s_alphabet| times the mean raw-row norm of the batch. A batch
    of all-zero rows has no batch-scope scale; its error is nan.

    The rows run as one C loop (batch_error_kernel) where it loads and finds
    the memory it reads: C-contiguous arrays of the complex table, of indices
    in draw_packed's unit type (uint8, uint16 or uint32) and of a writeable
    float64 out, one per row. Else they run as _batch_errors_numpy, with the
    same bits, through scratch: a complex and a float buffer of at least
    indices.size and len(out), allocated here if None.
    """
    table, s_alpha = terms
    kernel = batch_error_kernel()
    reads = (kernel is not None and table.dtype == complex and indices.dtype.kind == "u" and out.dtype == float
             and out.flags.writeable and len(out) == len(indices)
             and table.flags.c_contiguous and indices.flags.c_contiguous and out.flags.c_contiguous)
    if reads and kernel(table.ctypes.data, indices.ctypes.data, indices.itemsize, *indices.shape,
                        indices.shape[1] * power, s_alpha, out.ctypes.data):
        return
    gathered, norms = scratch or (np.empty(indices.size, complex), np.empty(len(out)))
    _batch_errors_numpy(terms, indices, power, out, gathered[:indices.size].reshape(indices.shape), norms[:len(out)])


def _batch_errors_numpy(terms: tuple, indices: np.ndarray, power: float, out: np.ndarray,
                        gathered: np.ndarray, norms: np.ndarray) -> None:
    """_batch_errors as eight ufuncs: the fallback where no kernel loads, and the reference the
    kernel must equal bit for bit. gathered (complex, indices' shape) and norms (one per row)
    are scratch."""
    table, s_alpha = terms
    np.take(table, indices, out=gathered, mode="clip")
    np.divide(np.add.reduce(gathered.imag, axis=1, out=norms), indices.shape[1], out=norms)
    np.add.reduce(gathered.real, axis=1, out=out)
    np.divide(indices.shape[1] * power, out, out=out)
    np.sqrt(out, out=out)
    np.subtract(out, s_alpha, out=out)
    np.abs(out, out=out)
    np.multiply(out, norms, out=out)


def _batch_errors_self_check(kernel) -> bool:
    """Whether `kernel` writes _batch_errors_numpy's bytes at each unit type, on rows of 1, 7, 8,
    127, 128, 129 and 300 indices: every branch of numpy's pairwise sum and one split of it.

    The table holds 0.0, -0.0, a subnormal and values whose sums overflow. The first two rows
    index only a zero each (nan errors), the third none of those four entries, and the last
    starts with the overflowing entry twice and the subnormal.
    """
    rng = np.random.default_rng(0)
    table = (rng.random(256) + 1j * rng.random(256)) * 10.0 ** rng.integers(-3, 3, size=256)
    table.real[:4] = table.imag[:4] = [0.0, -0.0, 5e-324, 1e308]
    for bs in (1, 7, 8, 127, 128, 129, 300):
        idx = np.stack([np.zeros(bs), np.ones(bs), rng.integers(4, 256, size=bs),
                        np.r_[3, 3, 2, rng.integers(0, 256, size=bs)][:bs]]).astype(np.intp)
        want, got = np.empty(4), np.empty(4)
        with np.errstate(all="ignore"):
            _batch_errors_numpy((table, 0.75), idx, 2.5, want, np.empty(idx.shape, complex), np.empty(4))
        for unit in (np.uint8, np.uint16, np.uint32):
            units = idx.astype(unit)
            ran = kernel(table.ctypes.data, units.ctypes.data, units.itemsize, *units.shape, bs * 2.5, 0.75,
                         got.ctypes.data)
            if not ran or got.tobytes() != want.tobytes():
                return False
    return True


@functools.cache
def batch_error_kernel():
    """_batch_errors' C loop from nn's compiled kernels.c, or None where it does not compile, load, or
    equal _batch_errors_numpy bit for bit; norm-error then runs that, and one stderr line says why."""
    return nn.compiled_kernel("batch_errors", ctypes.c_int, [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int,
                              ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_double, ctypes.c_void_p],
                              _batch_errors_self_check, "batch-error kernel", "norm-error runs as numpy ufuncs")


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
    # batches per block: the numpy form's complex gather holds 2 floats per
    # index, and Bs is taken up to whole words of 8 units (uint8, M <= 256)
    rows = {bs: min(max(1, _BLOCK // (16 * -(-bs // 8))), n_batches) for bs in batch_sizes}
    errors = np.empty(n_batches)
    cells = max(n * bs for bs, n in rows.items())
    scratch = None if batch_error_kernel() else (np.empty(cells, complex), np.empty(max(rows.values())))
    stats = []
    for M in M_list:
        power = comm.power_from_eb(M, eb)
        indices = np.empty(cells, np.min_scalar_type(M - 1))  # draw_packed's unit type
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
                        _batch_errors(terms, idx, power, errors[a:a + n], scratch)
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
    n: int,
    rng: np.random.Generator,
) -> float:
    """Categorical accuracy of rx on n symbols of the alphabet-normalized constellation
    `points`, decoded as ser_sweep decodes one SNR point.

    The sent symbols are the deployed constellation itself, so the set has zero
    normalization error.
    """
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

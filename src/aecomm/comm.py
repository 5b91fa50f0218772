"""Communication-specific layers: norm-error's packed uniform message source,
power normalization, batch slicing, the AWGN channel, and hard decoding.
Training batches and validation and SER labels come from Generator.integers.

Symbols live in R^2 (one complex value per row). Power conventions: P is the
total symbol energy, sigma2 the total complex noise variance (split sigma2/2
per real component), and SNR = P / sigma2.
"""

from __future__ import annotations

import math

import numpy as np


class DegenerateInputError(ValueError):
    """Raised when normalization is asked to rescale an (all-)zero signal."""


def sigma2_from_snr(power: float, snr_db: float) -> float:
    """Total complex noise variance for a given transmit power and SNR in dB.

    Raises ValueError on a power <= 0, or a power or SNR that gives no finite positive variance.
    """
    if power <= 0:
        raise ValueError("power must be positive")
    try:
        sigma2 = power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"SNR {snr_db} dB at power {power} gives noise variance {sigma2}")
    return sigma2


def power_from_eb(M: int, eb: float) -> float:
    """Transmit power for energy-per-bit eb: P = eb * log2(M), finite. M must be a power of 2."""
    if M < 2 or (M & (M - 1)) != 0:
        raise ValueError(f"alphabet size must be a power of 2, got {M}")
    if eb <= 0:
        raise ValueError("energy per bit must be positive")
    with np.errstate(over="ignore"):
        power = eb * np.log2(M)
    if not np.isfinite(power):
        raise ValueError(f"energy per bit {eb} at M={M} gives infinite power")
    return power


def normalize_average(X: np.ndarray, power: float) -> tuple[np.ndarray, float]:
    """Scale X so the mean row power equals `power`.

    Returns (X', s) with X' = s * X and s = sqrt(N * power / sum_j |x_j|^2),
    or s = nan when that sum overflows (a finite X with no finite scale).
    """
    q = float(np.add.reduce(X * X, axis=None))
    if q == 0.0:
        raise DegenerateInputError("all-zero input cannot satisfy an average power constraint")
    s = np.sqrt(X.shape[0] * power / q) if q < math.inf else math.nan
    return s * X, s


def normalize_average_backward(dXp: np.ndarray, X: np.ndarray, s: float) -> np.ndarray:
    """Gradient of the average-power normalization X' = s(X) * X.

    dX_j = s * (dX'_j - x_j * sum_i <dX'_i, x_i> / Q) with Q = sum |x_k|^2.
    The second term couples every row to every other row: gradient reaches all
    rows of X even when only a few rows of X' are used downstream.
    """
    q = float(np.add.reduce(X * X, axis=None))
    inner = float(np.add.reduce(dXp * X, axis=None))
    return s * (dXp - X * (inner / q))


def gather(X_all: np.ndarray, indices: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows X_all[indices], duplicates allowed, into out if given. Indices must be integers in range."""
    if indices.dtype.kind not in "iu":
        raise ValueError(f"gather indices have dtype {indices.dtype}, expected integers")
    if indices.size and (np.minimum.reduce(indices) < 0 or np.maximum.reduce(indices) >= len(X_all)):
        raise ValueError(f"gather index out of range [0, {len(X_all)})")
    return np.take(X_all, indices, axis=0, out=out, mode="clip")  # in range: checked above


def gather_backward(dX_batch: np.ndarray, indices: np.ndarray, n_rows: int, out=None, flat=None) -> np.ndarray:
    """Scatter-add of batch gradients onto n_rows zero rows in row order, into out (C-contiguous) if
    given; indices as gather checked them. flat, intp and shaped like dX_batch, takes the flat index."""
    out = np.empty((n_rows, dX_batch.shape[1])) if out is None else out
    if indices.size == n_rows and (indices[1:] > indices[:-1]).all():  # 0..n_rows-1
        return np.add(dX_batch, 0.0, out=out)  # 0.0 + d, as the scatter onto zeros gives
    flat = np.empty(dX_batch.shape, np.intp) if flat is None else flat
    np.copyto(flat, indices[:, None])  # in intp, so a narrow index dtype cannot wrap
    flat *= out.shape[1]
    flat += np.arange(out.shape[1])
    out.fill(0.0)
    np.add.at(out.reshape(-1), flat.reshape(-1), dX_batch.reshape(-1))
    return out


def draw_packed(rng: np.random.Generator, M: int, out: np.ndarray) -> np.ndarray:
    """Fill out, an (n, Bs) integer array, with n batches of Bs uniform indices below M,
    a power of 2, and return it.

    An index is read from a unit of the smallest unsigned type that holds M - 1, so
    u = 8, 4 or 2 units fill a raw 64-bit word, read little-endian. Each batch takes
    ceil(Bs / u) whole raw words of rng's bit generator; its indices are the top
    log2(M) bits of its first Bs units, and the rest of its last word is dropped. So
    batches drawn in any split equal one draw of them all, and the generator's
    buffered 32-bit half is neither read nor written.
    """
    unit = np.dtype(f"<u{np.min_scalar_type(M - 1).itemsize}")
    n, bs = out.shape
    u = 8 // unit.itemsize
    words = -(-bs // u)
    units = rng.bit_generator.random_raw(n * words).astype("<u8", copy=False).view(unit)
    return np.right_shift(units.reshape(n, words * u)[:, :bs], 8 * unit.itemsize + 1 - int(M).bit_length(),
                          out=out)


def awgn_noise(shape: tuple[int, ...], sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """White Gaussian noise with variance sigma2/2 per real component."""
    return rng.normal(0.0, math.sqrt(sigma2 / 2.0), size=shape)


def awgn(X: np.ndarray, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Add white Gaussian noise with variance sigma2/2 per real component."""
    return X + awgn_noise(X.shape, sigma2, rng)


def decode(logits: np.ndarray) -> np.ndarray:
    """Per-row argmax; ties go to the lowest index."""
    return np.argmax(logits, axis=1)

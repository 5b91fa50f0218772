"""Communication-specific layers: norm-error's packed uniform message source,
power normalization, batch slicing (whose scatter-add adjoint runs as one C
loop of nn's compiled library), the AWGN channel, and hard decoding.
Training batches and validation and SER labels come from Generator.integers.

Symbols live in R^2 (one complex value per row). Power conventions: P is the
total symbol energy, sigma2 the total complex noise variance (split sigma2/2
per real component), and SNR = P / sigma2.
"""

from __future__ import annotations

import ctypes
import functools
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


def gather_backward(dX_batch: np.ndarray, indices: np.ndarray, n_rows: int, out: np.ndarray | None = None) -> np.ndarray:
    """Scatter-add of batch gradients onto n_rows zero rows in row order, into out (C-contiguous) if
    given; indices as gather checked them.

    It runs as one C loop (scatter_add_kernel) where that loads and may take the arrays as raw
    memory: intp indices, one per row, and aligned, writeable, C-contiguous float64 rows and out.
    Else it runs as _scatter_add_numpy, with the same bits.
    """
    cols = dX_batch.shape[1]
    out = np.empty((n_rows, cols)) if out is None else out
    kernel = scatter_add_kernel()
    if (kernel is not None and indices.dtype == np.intp and indices.flags.carray
            and dX_batch.dtype == out.dtype == np.float64 and dX_batch.flags.carray and out.flags.carray
            and dX_batch.shape == (len(indices), cols) and out.shape == (n_rows, cols)):
        kernel(dX_batch.ctypes.data, indices.ctypes.data, len(indices), cols, out.ctypes.data, n_rows)
        return out
    return _scatter_add_numpy(dX_batch, indices, out)


def _scatter_add_numpy(dX_batch: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """gather_backward as one np.add.at of whole rows: the fallback where no kernel loads, and the
    reference the kernel must equal bit for bit."""
    out.fill(0.0)
    np.add.at(out, indices, dX_batch)
    return out


def _scatter_add_self_check(kernel) -> bool:
    """Whether `kernel` writes _scatter_add_numpy's bits (nn.bits) over garbage on 33 rows of 5 columns into
    10 rows, two of which no index names. Index 3 takes 1, 1e16 and -1e16 first in column 0, which
    sum to 0 in row order and to 1 in reverse; the batch holds -0.0, inf and nan."""
    from . import nn  # nn imports this module

    rng = np.random.default_rng(0)
    indices = np.r_[3, 3, 3, rng.integers(0, 8, size=30)].astype(np.intp)
    d = rng.normal(size=(33, 5)) * 10.0 ** rng.integers(-8, 9, size=(33, 5))
    d[:3, 0] = [1.0, 1e16, -1e16]
    d[rng.random(d.shape) < 0.2] = -0.0
    d[5:7, 2] = [np.inf, np.nan]
    want, got = (np.frombuffer(rng.bytes(400), np.float64).reshape(10, 5).copy() for _ in range(2))
    _scatter_add_numpy(d, indices, want)
    kernel(d.ctypes.data, indices.ctypes.data, *d.shape, got.ctypes.data, len(got))
    return nn.bits(want) == nn.bits(got)


@functools.cache
def scatter_add_kernel():
    """gather_backward's C loop from nn's compiled kernels.c, or None where it does not compile, load, or
    equal _scatter_add_numpy bit for bit; gather_backward then runs that, and one stderr line says why."""
    from . import nn

    return nn.compiled_kernel("scatter_add", None, [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
                                                    ctypes.c_void_p, ctypes.c_ssize_t],
                              _scatter_add_self_check, "scatter-add kernel", "the scatter-add runs as numpy ufuncs")


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

"""Communication-specific layers: norm-error's packed uniform message source,
power normalization, batch slicing and its scatter-add adjoint (each of these
four runs as one C loop of nn's compiled library, with a numpy form as fallback
and reference), the AWGN channel, and hard decoding. Training batches and
validation and SER labels come from Generator.integers.

Symbols live in R^2 (one complex value per row). Power conventions: P is the
total symbol energy, sigma2 the total complex noise variance (split sigma2/2
per real component), and SNR = P / sigma2.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
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


def _raw(out: np.ndarray | None, *arrays: np.ndarray) -> bool:
    """Whether a C loop may take these arrays, and out unless it is None, as raw memory of one shape:
    aligned, writeable, C-contiguous float64."""
    shape = arrays[0].shape
    return all(nn._readable(a) and a.shape == shape for a in arrays) and (
        out is None or (nn._readable(out) and out.shape == shape))


def normalize_average(X: np.ndarray, power: float, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Scale X so the mean row power equals `power`.

    Returns (X', s) with X' = s * X, into out if given, and s = sqrt(N * power / sum_j |x_j|^2),
    or s = nan when that sum overflows (a finite X with no finite scale). It runs as one C loop
    (normalize_kernels) where that loads and may take X and out as raw memory; else as
    _normalize_numpy, with the same bits.
    """
    kernels, num = normalize_kernels(), X.shape[0] * power
    if kernels is None or not _raw(out, X) or not isinstance(num, (int, float)):
        return _normalize_numpy(X, power, out)
    out = np.empty_like(X) if out is None else out
    s = kernels[0](nn.address(X), X.size, num, nn.address(out))
    if s == -1.0:
        raise DegenerateInputError("all-zero input cannot satisfy an average power constraint")
    return out, s


def _normalize_numpy(X: np.ndarray, power: float, out: np.ndarray | None) -> tuple[np.ndarray, float]:
    """normalize_average as numpy ufuncs: the fallback where no kernel loads, and the reference the
    kernel must equal bit for bit."""
    q = float(np.add.reduce(X * X, axis=None))
    if q == 0.0:
        raise DegenerateInputError("all-zero input cannot satisfy an average power constraint")
    s = np.sqrt(X.shape[0] * power / q) if q < math.inf else math.nan
    return np.multiply(s, X, out=out), s


def normalize_average_backward(dXp: np.ndarray, X: np.ndarray, s: float, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the average-power normalization X' = s(X) * X, into out if given.

    dX_j = s * (dX'_j - x_j * sum_i <dX'_i, x_i> / Q) with Q = sum |x_k|^2.
    The second term couples every row to every other row: gradient reaches all
    rows of X even when only a few rows of X' are used downstream. It runs as one C loop
    (normalize_kernels) where that loads and may take dXp, X and out as raw memory of one shape;
    else, and for Q = 0, as _normalize_backward_numpy, with the same bits.
    """
    kernels = normalize_kernels()
    if kernels is not None and _raw(out, dXp, X) and isinstance(s, (int, float)):
        out = np.empty_like(X) if out is None else out
        if kernels[1](nn.address(dXp), nn.address(X), X.size, s, nn.address(out)):
            return out
    return _normalize_backward_numpy(dXp, X, s, out)


def _normalize_backward_numpy(dXp: np.ndarray, X: np.ndarray, s: float, out: np.ndarray | None) -> np.ndarray:
    """normalize_average_backward as numpy ufuncs: the fallback where no kernel loads, and the
    reference the kernel must equal bit for bit."""
    q = float(np.add.reduce(X * X, axis=None))
    inner = float(np.add.reduce(dXp * X, axis=None))
    return np.multiply(s, dXp - X * (inner / q), out=out)


def _normalize_self_check(kernels) -> bool:
    """Whether both loops of `kernels` give their numpy forms' scale and outputs (nn.bits), the
    backward one at the scale the forward one gives, and for an all-zero X write nothing: the
    forward loop returns -1.0 and the backward one 0.

    X has 1-9, 63-65, 127-129, 256 and 300 rows of 2 columns, so both sums run every branch of
    numpy's pairwise sum, with values over six decades, -0.0 and a subnormal. Each X meets a finite
    dX' over six decades, whose inner product's order shows in the bits, and one holding nan and
    +-inf; then an all-zero X, and an X whose power sum overflows, so s = nan.
    """
    forward, backward = kernels
    rng = np.random.default_rng(0)
    cases = []
    for rows in (*range(1, 10), 63, 64, 65, 127, 128, 129, 256, 300):
        X = rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-3, 3, size=(rows, 2))
        X[rng.random(X.shape) < 0.2] = -0.0
        X[0, 0] = 5e-324
        cases.append(X)
    cases += [np.zeros((3, 2)), np.array([[1e200, 0.0], [0.0, -1e200], [1.0, 2.0]])]
    for X, special in itertools.product(cases, (False, True)):
        dXp = rng.normal(size=X.shape) * 10.0 ** rng.integers(-3, 3, size=X.shape)
        if special:
            dXp.flat[rng.integers(0, dXp.size, size=3)] = [np.nan, np.inf, -np.inf]
        got, grad = np.full((2, *X.shape), np.pi)
        s = forward(X.ctypes.data, X.size, X.shape[0] * 2.5, got.ctypes.data)
        ran = backward(dXp.ctypes.data, X.ctypes.data, X.size, s, grad.ctypes.data)
        if not X.any():
            if s != -1.0 or ran or not (got == np.pi).all() or not (grad == np.pi).all():
                return False
            continue
        with np.errstate(all="ignore"):
            want, s_want = _normalize_numpy(X, 2.5, None)
            want_grad = _normalize_backward_numpy(dXp, X, s_want, None)
        if not ran or [nn.bits(a) for a in (np.array([s]), got, grad)] != [
                nn.bits(a) for a in (np.array([s_want]), want, want_grad)]:
            return False
    return True


@functools.cache
def normalize_kernels():
    """(normalize_average's, normalize_average_backward's) C loops from nn's compiled kernels.c, or None
    where they do not compile, load, or equal their numpy forms bit for bit; both then run those, and
    one stderr line says why."""
    V, N, D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    return nn.compiled_kernel({"normalize_average": (D, [V, N, D, V]),
                               "normalize_average_backward": (ctypes.c_int, [V, V, N, D, V])},
                              _normalize_self_check, "normalization kernels", "the normalization runs as numpy ufuncs")


def gather(X_all: np.ndarray, indices: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rows X_all[indices], duplicates allowed, into out if given. Indices must be integers in range.

    It runs as one C loop (gather_kernel) that checks the range and copies the rows, where that
    loads and may take the arrays as raw memory: 1-D C-contiguous intp indices, and aligned,
    writeable, C-contiguous float64 rows and out. Else it runs as _gather_numpy, with the same
    bits and errors.
    """
    if indices.dtype.kind not in "iu":
        raise ValueError(f"gather indices have dtype {indices.dtype}, expected integers")
    kernel = gather_kernel()
    if (kernel is None or indices.dtype != np.intp or indices.ndim != 1 or not indices.flags.c_contiguous
            or X_all.ndim != 2 or not nn._readable(X_all)
            or (out is not None and (out.shape != (len(indices), X_all.shape[1]) or not nn._readable(out)))):
        return _gather_numpy(X_all, indices, out)
    out = np.empty((len(indices), X_all.shape[1])) if out is None else out
    if not kernel(nn.address(X_all), *X_all.shape, nn.address(indices), len(indices), nn.address(out)):
        raise ValueError(f"gather index out of range [0, {len(X_all)})")
    return out


def _gather_numpy(X_all: np.ndarray, indices: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """gather as numpy calls: the fallback where no kernel loads, and the reference the kernel must
    equal bit for bit."""
    if indices.size and (np.minimum.reduce(indices) < 0 or np.maximum.reduce(indices) >= len(X_all)):
        raise ValueError(f"gather index out of range [0, {len(X_all)})")
    return np.take(X_all, indices, axis=0, out=out, mode="clip")  # in range: checked above


def _gather_self_check(kernel) -> bool:
    """Whether `kernel` copies _gather_numpy's rows over garbage, 0, 1 and 9 of 10 rows of 3 columns
    that hold -0.0, inf and nan, and for indices -1 or 10 returns 0, writing nothing."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    X[1:4, 0] = [-0.0, np.inf, np.nan]
    for indices in (np.r_[0, 9, 9, rng.integers(0, 10, size=30)], np.r_[9], np.r_[3, -1, 3], np.r_[0, 10]):
        indices = indices.astype(np.intp)
        got = np.frombuffer(rng.bytes(24 * len(indices)), np.float64).reshape(len(indices), 3).copy()
        before = got.tobytes()
        ran = kernel(X.ctypes.data, *X.shape, indices.ctypes.data, len(indices), got.ctypes.data)
        in_range = bool((indices >= 0).all() and (indices < 10).all())
        if ran != in_range or got.tobytes() != (_gather_numpy(X, indices, None).tobytes() if in_range else before):
            return False
    return True


@functools.cache
def gather_kernel():
    """gather's C loop from nn's compiled kernels.c, or None where it does not compile, load, or equal
    _gather_numpy bit for bit; gather then runs that, and one stderr line says why."""
    return nn.compiled_kernel({"gather_rows": (ctypes.c_int, [ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
                                                              ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p])},
                              _gather_self_check, "gather kernel", "the gather runs as numpy calls")


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
        kernel(nn.address(dX_batch), nn.address(indices), len(indices), cols, nn.address(out), n_rows)
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
    return nn.compiled_kernel({"scatter_add": (None, [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
                                                      ctypes.c_void_p, ctypes.c_ssize_t])},
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


from . import nn  # noqa: E402 -- last: nn imports this module

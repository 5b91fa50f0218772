"""Minimal dense-network machinery: forward/backward passes and Adam.

Everything operates on float64 numpy arrays. An MLP is a flat list of dense layers: a ReLU on
each but the last, which is linear. The forward pass returns a cache for the backward pass,
which writes the parameter gradients into the MLP's own arrays. Callers keep layer shapes
consistent; only indices and labels, which numpy would clip or wrap, are range-checked: an
index input's dtype and range by comm.gather, its row lookup, and a backward pass, whose
scatter-add is comm.gather_backward, trusts the indices its forward pass checked. pack_params
moves several MLPs' parameters and gradients into one contiguous vector each, which Adam updates.
compiled_kernel serves the C loops of kernels.c from one library that the first caller in a process
compiles: Adam's step, the dense layers of mlp_forward and of mlp_backward, comm's scatter-add and
metrics' batch errors. The dense loops call the cblas_dgemm that np.matmul calls (numpy's OpenBLAS,
found by blas_function), where numpy would call it, so every form gives the same bits.

mlp_forward, mlp_backward and softmax_cross_entropy write their per-call
arrays into a workspace: a plain dict, passed as `ws`, so repeated calls
allocate nothing. The forward pass keeps one set of arrays, sized to its
longest call so far, and serves a call of fewer rows from their leading rows;
the backward pass and the cross-entropy keep one entry per row count. A layer
keeps only arrays read again: its ReLU overwrites its pre-activation, and its
dZ the upstream gradient. The forward and backward entries also keep the
address table of their C loop, rebuilt only when another array takes a place
in it. A workspace serves one network. Its arrays are overwritten by the next
forward call, or the next call of the same other pass on the same row count,
so results taken from one are valid until then. Without a workspace a call
returns fresh arrays.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import operator
import os
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import comm


@dataclass
class Mlp:
    """Dense network parameters: weights[k] is (in_dim, out_dim), biases[k] is (out_dim,).

    Every layer but the last applies a ReLU; the last is linear; the shapes
    chain. grads, no constructor argument, holds one gradient array per
    parameter, ordered like param_list(); mlp_backward overwrites it each call.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    grads: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.grads = [np.zeros_like(p) for p in self.param_list()]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    def param_list(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] (aliases, not copies)."""
        out = []
        for W, b in zip(self.weights, self.biases):
            out.extend((W, b))
        return out


def glorot_init(in_dim: int, out_dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Glorot-uniform weight matrix and zero bias for one dense layer."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    W = rng.uniform(-limit, limit, size=(in_dim, out_dim))
    b = np.zeros(out_dim)
    return W, b


def build_mlp(layer_sizes: Sequence[int], rng: np.random.Generator) -> Mlp:
    """Glorot-initialized MLP over [input, *hidden, output] sizes: ReLU on hidden layers, linear on the last."""
    layers = [glorot_init(m, n, rng) for m, n in zip(layer_sizes, layer_sizes[1:])]
    return Mlp([W for W, _ in layers], [b for _, b in layers])


def _buffers(ws: dict | None, key: tuple, build):
    """Entry `key` of workspace `ws`, set to build() on first use; build() itself without one."""
    if ws is None:
        return build()
    bufs = ws.get(key)
    if bufs is None:
        bufs = ws[key] = build()
    return bufs


def mlp_forward(X: np.ndarray, mlp: Mlp, *, ws: dict | None = None) -> tuple[np.ndarray, list]:
    """Forward pass. Returns output and a cache of (layer input, output) pairs.

    X is an (N, in_dim) float array, or a 1-D integer array of N message
    indices standing for the one-hot rows of those indices. For an index
    input the first layer is the row lookup comm.gather(W0, X) + b0, which
    equals the one-hot matmul whenever W0 is finite.

    The cache's arrays live in the workspace `ws`. A hidden layer's output is
    its ReLU, written over its pre-activation: max(z, 0) > 0 exactly when z > 0.
    The layers after any row lookup run as one C loop (dense_forward_kernel) where
    it loads and numpy would call gemm; else as _forward_numpy, with the same bits.
    """
    ws = {} if ws is None else ws
    n, bufs = len(X), ws.get("forward")
    if bufs is None or len(bufs[0]) < n:  # one set, grown to the longest call
        bufs = ws["forward"] = _Arrays(np.empty((n, W.shape[1])) for W in mlp.weights)
    if X.ndim == 2 and X.shape[1] != mlp.in_dim:  # checked before a C loop reads X
        raise ValueError(f"input has {X.shape[1]} columns, the first layer takes {mlp.in_dim}")
    Zs = [Z if len(Z) == n else Z[:n] for Z in bufs]  # a full-length call reuses the objects, and their plan
    if X.ndim == 1:
        comm.gather(mlp.weights[0], X, out=Zs[0])
    cache = list(zip([X, *Zs[:-1]], Zs))
    kernel = dense_forward_kernel()
    plan = None if kernel is None else _plan(bufs, (*mlp.weights, *mlp.biases, *Zs), lambda: _forward_rows(mlp, Zs))
    if plan is not None and plan.table is not None and n >= 2 and (X.ndim == 1 or _readable(X)):
        kernel(plan.gemm, plan.table, len(Zs), None if X.ndim == 1 else plan.address(0, X), n)
    else:
        _forward_numpy(cache, mlp)
    return Zs[-1], cache


def _forward_numpy(cache: list, mlp: Mlp) -> None:
    """mlp_forward's layers as numpy ufuncs, into the cache's outputs; the first layer's output
    already holds its rows where its input is an index array. The fallback where no kernel loads,
    and the reference the kernel must equal bit for bit."""
    last = len(cache) - 1
    for k, ((A, Z), W, b) in enumerate(zip(cache, mlp.weights, mlp.biases, strict=True)):
        if A.ndim == 2:
            np.matmul(A, W, out=Z)
        Z += b
        if k < last:
            np.maximum(Z, 0.0, out=Z)


def mlp_backward(
    dY: np.ndarray, cache: list, mlp: Mlp, *, ws: dict | None = None
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Backward pass through mlp_forward's cache on mlp, for a dY shaped like that forward's output.

    Overwrites mlp.grads and returns (dX, mlp.grads). dX is None for an
    index input, whose gradient nothing uses; its first weight gradient is the
    scatter-add comm.gather_backward. dX and the upstream gradients live in the
    workspace `ws`. The layers run as one C loop (dense_backward_kernel) where it
    loads and numpy would call gemm; else as _backward_numpy, with the same bits.
    """
    # per layer the gradient of its input (none for an index input); a hidden layer's
    # dZ overwrites the one it receives, in the layer above's buffer
    n, X, grads = len(dY), cache[0][0], mlp.grads
    dAs = _buffers(ws, ("backward", n, X.ndim), lambda: _Arrays(
        None if A_in.ndim == 1 else np.empty((n, A_in.shape[1])) for A_in, _ in cache))
    kernel = dense_backward_kernel()
    plan = None if kernel is None else _plan(
        dAs, (*mlp.weights, *grads, *(a for pair in cache[1:] for a in pair), cache[0][1], *dAs),
        lambda: _backward_rows(mlp, cache, dAs))
    if (plan is not None and plan.table is not None and n >= 2 and dY.shape == cache[-1][1].shape
            and _readable(dY) and (X.ndim == 1 or (X.shape == (n, mlp.in_dim) and _readable(X)))):
        kernel(plan.gemm, plan.table, len(cache), None if X.ndim == 1 else plan.address(0, X),
               plan.address(1, dY), n)
    else:
        _backward_numpy(dY, cache, mlp, dAs)
    if X.ndim == 2:
        return dAs[0], grads
    comm.gather_backward(dAs[1] if len(cache) > 1 else dY, X, len(grads[0]), out=grads[0])
    return None, grads


def _backward_numpy(dY: np.ndarray, cache: list, mlp: Mlp, dAs: list) -> None:
    """mlp_backward's layers as numpy ufuncs, all but an index input's scatter. The fallback where
    no kernel loads, and the reference the kernel must equal bit for bit."""
    grads, last = mlp.grads, len(cache) - 1
    dZ = dY
    for k in range(last, -1, -1):
        A_in, Z = cache[k]
        if k < last:
            np.multiply(dZ, np.greater(Z, 0.0), out=dZ)  # ReLU subgradient at 0 taken as 0
        np.add.reduce(dZ, axis=0, out=grads[2 * k + 1])
        if A_in.ndim == 2:
            np.matmul(A_in.T, dZ, out=grads[2 * k])
            dZ = np.matmul(dZ, mlp.weights[k].T, out=dAs[k])


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, *, ws: dict | None = None
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of row-wise softmax against integer labels, one per logit row.

    Returns (loss, dloss/dlogits); the gradient already carries the 1/rows
    factor and lives in the workspace `ws`.
    """
    labels = np.asarray(labels)
    n, m = logits.shape
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= m:
        raise ValueError("label out of range")
    # one buffer holds the shifted logits, then their exponentials, then the gradient
    e, rows = _buffers(ws, ("softmax", n, m), lambda: (np.empty((n, m)), np.arange(n)))
    np.subtract(logits, np.maximum.reduce(logits, axis=1, keepdims=True), out=e)
    picked = e[rows, labels]
    np.exp(e, out=e)
    z = np.add.reduce(e, axis=1, keepdims=True)
    log_probs = picked - np.log(z[:, 0])
    loss = float(-(np.add.reduce(log_probs, axis=None) / n))  # minus the mean
    e /= z  # softmax(logits)
    e[rows, labels] -= 1.0
    e /= n
    return loss, e


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

# -O3: GCC 12 vectorizes Adam's loop only there; -fno-math-errno: else sqrt stays scalar;
# -ffp-contract=off: else a*b + c may fuse into an FMA, which rounds once, not twice;
# -fno-trapping-math, which changes no IEEE result: else the ReLU mask's multiply becomes a branch
_KERNELS_C = pathlib.Path(__file__).with_name("kernels.c")
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math")


def _adam_scalars(lr: float, t: int) -> tuple[float, float]:
    """(lr_t, eps_t) of step t: lr_t = lr * root_b2t / (1 - b1**t), eps_t = eps * root_b2t."""
    root_b2t = np.sqrt(1.0 - BETA2 ** t)
    return lr * root_b2t / (1.0 - BETA1 ** t), EPSILON * root_b2t


def _adam_numpy(p, g, m, v, u, lr_t, eps_t) -> None:
    """One Adam step as twelve whole-vector ufuncs, overwriting g and the scratch vector u.

    The fallback where no kernel loads, and the reference the kernel must equal bit for bit.
    """
    # v = b2*v + (1-b2)*g*g;  m = b1*m + (1-b1)*g, through g itself once v has read it
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=u)
    u *= g
    v += u
    m *= BETA1
    g *= 1.0 - BETA1
    m += g
    # p -= lr_t * m / (sqrt(v) + eps_t)
    np.sqrt(v, out=g)
    g += eps_t
    np.multiply(m, lr_t, out=u)
    u /= g
    p -= u


def _adam_self_check(kernel) -> bool:
    """Whether `kernel` leaves p, m and v byte-equal to _adam_numpy's over steps t = 351..358.

    The gradients hold signed zeros, a subnormal and values whose squares overflow; 1 - BETA1**t
    rounds to 1.0 from t = 356 on; the odd length also runs a vectorized loop's remainder.
    """
    g0 = np.r_[0.0, -0.0, 5e-324, 1e200, -1e160, 1e154,
               np.random.default_rng(0).normal(size=31) * 10.0 ** np.arange(-15, 16)]
    states = np.zeros((2, 3, g0.size))  # (numpy form, kernel) x (p, m, v)
    states[:, 0] = np.linspace(-1.0, 1.0, g0.size)
    with np.errstate(all="ignore"):
        for t in range(351, 359):
            lr_t, eps_t = _adam_scalars(0.01, t)
            g = g0 * (t % 3 - 1.0)
            (p, m, v), (q, n, w) = states
            kernel(q.ctypes.data, g.ctypes.data, n.ctypes.data, w.ctypes.data, g.size,
                   BETA1, BETA2, 1.0 - BETA1, 1.0 - BETA2, eps_t, lr_t)
            _adam_numpy(p, g, m, v, np.empty_like(g), lr_t, eps_t)
    return states[0].tobytes() == states[1].tobytes()


@functools.cache
def _library() -> tuple[ctypes.CDLL | None, str]:
    """kernels.c, beside this file, compiled with the configured C compiler on the first call in a
    process: (the library, "") or (None, why not). It is built in a temporary directory, removed once
    loaded."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]
    try:
        with tempfile.TemporaryDirectory() as tmp:
            subprocess.run([*cc, *_CFLAGS, "-o", f"{tmp}/kernels.so", str(_KERNELS_C), "-lm"],
                           capture_output=True, check=True, timeout=60)
            return ctypes.CDLL(f"{tmp}/kernels.so"), ""  # mapped, so it outlives its file
    except (OSError, subprocess.SubprocessError) as exc:  # the compiler's first error line, if it gave one
        errors = [line for line in (getattr(exc, "stderr", None) or b"").decode(errors="replace").splitlines()
                  if "error" in line]
        return None, f"{cc[0]}: {errors[0] if errors else exc}"


def compiled_kernel(name: str, restype, argtypes: list, self_check, what: str, fallback: str):
    """Function `name` of the compiled kernels.c, if self_check(it) holds; else None, after one
    stderr line saying why no `what` loaded and that the program runs `fallback`."""
    lib, reason = _library()
    if lib is not None:
        try:
            kernel = getattr(lib, name)
        except AttributeError as exc:
            reason = str(exc)
        else:
            kernel.restype, kernel.argtypes = restype, argtypes
            if self_check(kernel):
                return kernel
            reason = "its results differ from numpy's"
    print(f"note: no compiled {what} ({reason}); {fallback}", file=sys.stderr)
    return None


@functools.cache
def adam_kernel():
    """Adam's C loop from the compiled kernels.c, or None where it does not compile, load, or
    equal _adam_numpy bit for bit; Adam then runs _adam_numpy, and one stderr line says why."""
    return compiled_kernel("adam_step", None, [ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] + [ctypes.c_double] * 6,
                           _adam_self_check, "Adam kernel", "Adam runs as numpy ufuncs")


def blas_function(*names: str):
    """The first of the functions `names` that a loaded BLAS library exports, or None.

    A library counts as BLAS where "blas" is in its file name; the libraries are those
    /proc/self/maps lists (Linux only), tried in the order of their paths.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}  # the path may hold spaces
    except OSError:
        return None
    for path in sorted(p for p in paths if "blas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library marked "(deleted)"
            continue
        for name in names:
            if hasattr(lib, name):
                return getattr(lib, name)
    return None


@functools.cache
def _dgemm() -> int | None:
    """Address of the cblas_dgemm that np.matmul calls, taken from the loaded OpenBLAS built with 64-bit
    integers (numpy's own), or None after one stderr line. Another BLAS, or one built with 32-bit
    integers, would take other arguments, so it is not used."""
    dgemm = blas_function("scipy_cblas_dgemm64_", "cblas_dgemm64_")
    if dgemm is None:
        print("note: no 64-bit-integer cblas_dgemm found in the loaded BLAS; dense passes run as numpy ufuncs",
              file=sys.stderr)
        return None
    return ctypes.cast(dgemm, ctypes.c_void_p).value


def _readable(a: np.ndarray) -> bool:
    """Whether a C loop may take a as raw memory: aligned, writeable, C-contiguous float64."""
    return a.dtype == np.float64 and a.flags.carray


def _forward_rows(mlp: Mlp, Zs: list) -> list | None:
    """dense_forward's layer rows (in, out, W, b, Z) for mlp writing Zs, or None where it cannot serve
    them: layers that do not chain, each with a bias and outputs of its width, arrays it cannot read
    raw, or a width below 2, where numpy calls gemv or its own loop, not gemm."""
    shapes = [W.shape for W in mlp.weights]
    if not (len(mlp.biases) == len(Zs) == len(shapes) and all(len(s) == 2 and min(s) >= 2 for s in shapes)
            and all(a[1] == b[0] for a, b in zip(shapes, shapes[1:]))
            and all(b.shape == Z.shape[1:] == (s[1],) for b, Z, s in zip(mlp.biases, Zs, shapes))
            and all(map(_readable, (*mlp.param_list(), *Zs)))):
        return None
    return [(*W.shape, W.ctypes.data, b.ctypes.data, Z.ctypes.data) for W, b, Z in zip(mlp.weights, mlp.biases, Zs)]


def _backward_rows(mlp: Mlp, cache: list, dAs: list) -> list | None:
    """dense_backward's layer rows (in, out, W, Z, gW, gb, dA) for mlp on cache, into dAs, or None
    where it cannot serve them. dA is 0 for an index input's first layer."""
    Zs = [Z for _, Z in cache]
    if not (_forward_rows(mlp, Zs) and all(A is Z for (A, _), Z in zip(cache[1:], Zs))
            and all(len(Z) == len(Zs[0]) for Z in Zs)
            and all(map(_readable, (*mlp.grads, *(dA for dA in dAs if dA is not None))))
            and all(g.shape == p.shape for g, p in zip(mlp.grads, mlp.param_list(), strict=True))
            and all(dA is None or dA.shape == (len(Zs[0]), W.shape[0]) for dA, W in zip(dAs, mlp.weights))):
        return None
    return [(*W.shape, W.ctypes.data, Z.ctypes.data, gW.ctypes.data, gb.ctypes.data, 0 if dA is None else dA.ctypes.data)
            for W, Z, gW, gb, dA in zip(mlp.weights, Zs, mlp.grads[::2], mlp.grads[1::2], dAs)]


class _Plan:
    """A dense loop's table, one row of widths and addresses per layer (None where the loop cannot
    serve the arrays), with the arrays whose addresses it holds. It also keeps the array that each
    of two per-call arguments got last, and its address, looked up again only for another array:
    a lookup costs ~2 us."""

    __slots__ = ("arrays", "gemm", "table", "_rows", "_held")

    def __init__(self, arrays: tuple, rows: list | None):
        self.arrays, self.gemm, self._held = arrays, _dgemm(), [(None, 0), (None, 0)]
        self._rows = None if rows is None else (ctypes.c_int64 * (len(rows) * len(rows[0])))(*itertools.chain(*rows))
        self.table = None if rows is None else ctypes.addressof(self._rows)

    def address(self, slot: int, a: np.ndarray) -> int:
        held, address = self._held[slot]
        if held is not a:
            address = a.ctypes.data
            self._held[slot] = (a, address)
        return address


class _Arrays(list):
    """A workspace entry's arrays, and the _Plan of the loop that reads or writes them (None until built)."""

    plan = None


def _plan(entry: _Arrays, arrays: tuple, rows) -> _Plan:
    """entry's plan while it holds the addresses of these very arrays, else a new one of rows()."""
    plan = entry.plan
    if plan is None or len(plan.arrays) != len(arrays) or not all(map(operator.is_, plan.arrays, arrays)):
        plan = entry.plan = _Plan(arrays, rows())
    return plan


def bits(a: np.ndarray) -> bytes:
    """a's bytes, with every nan as one: the compiled loops equal their numpy forms bit for bit but
    for the sign and payload of a nan where two unequal nans meet in one addition. IEEE 754 leaves
    open which comes out, and numpy's own choice varies with an array's length."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _dense_checks():
    """(network, input, upstream gradient, its forward cache computed by _forward_numpy) for the dense
    self-checks: a [6, 9, 7, 3] network on 11 rows, with an index and a matrix input, with finite and
    with nan and inf values.

    Weights span six decades, so a changed summation order shows. With finite values, through the
    first layer's column 0 an index input gives -0.0 pre-activations; column 1 of the second layer is
    zero after its ReLU in every row, and receives only negative gradients, so its dZ column is all
    -0.0; dY holds -0.0. The other cases hold nan and inf inputs, biases and gradients.
    """
    for index_input, special in itertools.product((True, False), repeat=2):
        rng = np.random.default_rng(2)
        mlp = build_mlp([6, 9, 7, 3], rng)
        for W, b in zip(mlp.weights, mlp.biases):
            W *= 10.0 ** rng.integers(-3, 3, size=W.shape)
            b[:] = rng.normal(size=b.shape)
        mlp.weights[0][:, 0] = mlp.biases[0][0] = -0.0
        mlp.biases[1][1] = -1e300
        mlp.weights[2][1] = -np.abs(mlp.weights[2][1])
        X = np.r_[0:6, 0:5] if index_input else rng.normal(size=(11, 6))
        dY = np.abs(rng.normal(size=(11, 3)))
        dY[0, 2] = -0.0
        if special:
            mlp.biases[0][2:4] = [np.inf, -np.inf]
            mlp.biases[1][3] = np.nan
            dY[-1, :2] = [np.inf, np.nan]
            if not index_input:
                X[-2:, :2] = [[np.nan, 1.0], [np.inf, -np.inf]]
        Zs = [np.empty((len(X), W.shape[1])) for W in mlp.weights]
        if index_input:
            comm.gather(mlp.weights[0], X, out=Zs[0])
        cache = list(zip([X, *Zs[:-1]], Zs))
        with np.errstate(all="ignore"):
            _forward_numpy(cache, mlp)
        yield mlp, X, dY, cache


def _dense_forward_self_check(kernel) -> bool:
    """Whether `kernel` writes _forward_numpy's bits in every case of _dense_checks."""
    for mlp, X, _, cache in _dense_checks():
        Zs = [np.empty_like(Z) for _, Z in cache]
        if X.ndim == 1:
            comm.gather(mlp.weights[0], X, out=Zs[0])
        plan = _Plan((), _forward_rows(mlp, Zs))  # held: the table lives as long as the plan
        kernel(plan.gemm, plan.table, len(Zs), None if X.ndim == 1 else X.ctypes.data, len(X))
        if [bits(Z) for Z in Zs] != [bits(Z) for _, Z in cache]:
            return False
    return True


def _dense_backward_self_check(kernel) -> bool:
    """Whether `kernel` writes _backward_numpy's bits, gradients and upstream buffers, in every case
    of _dense_checks."""
    for mlp, X, dY, cache in _dense_checks():
        out = []
        for form in ("numpy", "kernel"):
            mlp.grads = [np.full_like(p, np.pi) for p in mlp.param_list()]
            dAs = [None if A.ndim == 1 else np.full((len(X), A.shape[1]), np.pi) for A, _ in cache]
            if form == "kernel":
                plan = _Plan((), _backward_rows(mlp, cache, dAs))
                kernel(plan.gemm, plan.table, len(cache), None if X.ndim == 1 else X.ctypes.data, dY.ctypes.data,
                       len(X))
            else:
                with np.errstate(all="ignore"):
                    _backward_numpy(dY, cache, mlp, dAs)
            out.append([bits(a) for a in (*mlp.grads, *dAs) if a is not None])
        if out[0] != out[1]:
            return False
    return True


_DENSE_ARGS = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p]


@functools.cache
def dense_forward_kernel():
    """mlp_forward's C loop from the compiled kernels.c, or None where no dgemm is found or the loop
    does not compile, load, or equal _forward_numpy bit for bit; the forward pass then runs that, and
    one stderr line says why."""
    if _dgemm() is None:
        return None
    return compiled_kernel("dense_forward", None, _DENSE_ARGS + [ctypes.c_ssize_t], _dense_forward_self_check,
                           "dense forward kernel", "the forward pass runs as numpy ufuncs")


@functools.cache
def dense_backward_kernel():
    """mlp_backward's C loop from the compiled kernels.c, or None where no dgemm is found or the loop
    does not compile, load, or equal _backward_numpy bit for bit; the backward pass then runs that,
    and one stderr line says why."""
    if _dgemm() is None:
        return None
    return compiled_kernel("dense_backward", None, _DENSE_ARGS + [ctypes.c_void_p, ctypes.c_ssize_t],
                           _dense_backward_self_check, "dense backward kernel", "the backward pass runs as numpy ufuncs")


def _check_vector(a: np.ndarray, shape: tuple) -> None:
    # the kernel reads and writes raw memory: nothing numpy would convert, stride or refuse to write
    if a.dtype != np.float64 or not a.flags.carray or a.shape != shape:
        raise ValueError(f"Adam needs aligned, writeable, C-contiguous float64 vectors of shape {shape}")


@dataclass
class Adam:
    """Adam over one flat parameter vector p, updated in place, with BETA1, BETA2 and EPSILON.

    p and the gradient vector g are the two vectors pack_params returns: aligned, writeable,
    C-contiguous float64 of one shape, bound once and never rebound. step() reads g, which the
    backward pass rewrites whole before each step, and may use it as scratch. A step is Kingma &
    Ba's efficient form (end of their section 2): the bias corrections fold into the step size
    and epsilon, an update equal to the textbook one in exact arithmetic. It runs as one C loop
    over the vector (adam_kernel), or, where none loads, as _adam_numpy's twelve whole-vector
    ufuncs: the same bits, through one more scratch vector.
    """

    p: np.ndarray
    g: np.ndarray
    lr: float
    t: int = field(default=0, init=False)  # steps taken

    def __post_init__(self):
        _check_vector(self.p, self.p.shape)
        _check_vector(self.g, self.p.shape)
        self.m, self.v = np.zeros_like(self.p), np.zeros_like(self.p)
        self._kernel = adam_kernel()
        self._update = np.empty_like(self.p) if self._kernel is None else None
        self._addresses = tuple(a.ctypes.data for a in (self.p, self.g, self.m, self.v))

    @property
    def params(self) -> list[np.ndarray]:
        """[p], read-only: perfbench/tracer.py sums p.size over it on every traced step. It goes
        once the benchmark reads p (ROADMAP item 4)."""
        return [self.p]

    def step(self) -> None:
        self.t += 1
        lr_t, eps_t = _adam_scalars(self.lr, self.t)
        if self._kernel is None:
            _adam_numpy(self.p, self.g, self.m, self.v, self._update, lr_t, eps_t)
        else:
            self._kernel(*self._addresses, self.p.size, BETA1, BETA2, 1.0 - BETA1, 1.0 - BETA2, eps_t, lr_t)


def pack_params(*mlps: Mlp) -> tuple[np.ndarray, np.ndarray]:
    """Move the parameters of `mlps` into one contiguous float64 vector.

    Returns (params, grads). Afterwards every weight, bias and gradient array
    of each Mlp is a view into params or grads, laid out in param_list()
    order, one Mlp after another.
    """
    arrays = [p for mlp in mlps for p in mlp.param_list()]
    params = np.concatenate([p.ravel() for p in arrays])
    grads = np.zeros_like(params)
    bounds = np.cumsum([0] + [p.size for p in arrays])
    p_views = [params[a:b].reshape(p.shape) for a, b, p in zip(bounds, bounds[1:], arrays)]
    g_views = [grads[a:b].reshape(p.shape) for a, b, p in zip(bounds, bounds[1:], arrays)]
    start = 0
    for mlp in mlps:
        stop = start + 2 * len(mlp.weights)
        mlp.weights, mlp.biases = p_views[start:stop:2], p_views[start + 1 : stop : 2]
        mlp.grads = g_views[start:stop]
        start = stop
    return params, grads

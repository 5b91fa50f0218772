"""Minimal dense-network machinery: forward/backward passes and Adam.

Everything operates on float64 numpy arrays. An MLP is a flat list of dense layers: a ReLU on
each but the last, which is linear. The forward pass returns a cache for the backward pass,
which writes the parameter gradients into the MLP's own arrays. Callers keep layer shapes
consistent; only indices and labels, which numpy would clip or wrap, are range-checked: an
index input's dtype and range by comm.gather, its row lookup, and a backward pass, whose
scatter-add is comm.gather_backward, trusts the indices its forward pass checked. pack_params
moves several MLPs' parameters and gradients into one contiguous vector each, which Adam updates.
compiled_kernel serves the C loops of kernels.c, Adam's step and metrics' batch errors, from one
library that the first caller in a process compiles.

mlp_forward, mlp_backward and softmax_cross_entropy write their per-call
arrays into a workspace: a plain dict, passed as `ws`, so repeated calls
allocate nothing. The forward pass keeps one set of arrays, sized to its
longest call so far, and serves a call of fewer rows from their leading rows;
the backward pass and the cross-entropy keep one entry per row count. A layer
keeps only arrays read again: its ReLU overwrites its pre-activation, and its
dZ the upstream gradient. A workspace serves one network. Its arrays are
overwritten by the next forward call, or the next call of the same other pass
on the same row count, so results taken from one are valid until then.
Without a workspace a call returns fresh arrays.
"""

from __future__ import annotations

import ctypes
import functools
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
    """
    ws = {} if ws is None else ws
    n, bufs = len(X), ws.get("forward")
    if bufs is None or len(bufs[0]) < n:  # one set, grown to the longest call
        bufs = ws["forward"] = [np.empty((n, W.shape[1])) for W in mlp.weights]
    last = len(mlp.weights) - 1
    cache = []
    A = X
    for k, (W, b, Z) in enumerate(zip(mlp.weights, mlp.biases, bufs, strict=True)):
        Z = Z[:n]
        if A.ndim == 1:
            comm.gather(W, A, out=Z)
        else:
            np.matmul(A, W, out=Z)
        Z += b
        cache.append((A, Z))
        A = Z if k == last else np.maximum(Z, 0.0, out=Z)
    return A, cache


def mlp_backward(
    dY: np.ndarray, cache: list, mlp: Mlp, *, ws: dict | None = None
) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Backward pass through mlp_forward's cache on mlp, for a dY shaped like that forward's output.

    Overwrites mlp.grads and returns (dX, mlp.grads). dX is None for an
    index input, whose gradient nothing uses. dX and the upstream gradients
    live in the workspace `ws`.
    """
    # per layer: the ReLU mask (None on the linear last layer), then dA or the flat scatter
    # index; a hidden layer's dZ overwrites the dA it receives, in the layer above's buffer
    last = len(cache) - 1
    bufs = _buffers(ws, ("backward", len(dY), cache[0][0].ndim), lambda: [
        (np.empty(Z.shape, bool) if k < last else None,
         np.empty(Z.shape, np.intp) if A_in.ndim == 1 else np.empty((len(Z), A_in.shape[1])))
        for k, (A_in, Z) in enumerate(cache)])
    grads = mlp.grads
    dA = dY
    for k in range(last, -1, -1):
        (A_in, Z), (mask, dA_out) = cache[k], bufs[k]
        dZ = dA
        if mask is not None:
            # ReLU subgradient at 0 taken as 0
            np.multiply(dZ, np.greater(Z, 0.0, out=mask), out=dZ)
        if A_in.ndim == 1:
            comm.gather_backward(dZ, A_in, len(grads[2 * k]), out=grads[2 * k], flat=dA_out)
            dA = None
        else:
            np.matmul(A_in.T, dZ, out=grads[2 * k])
            dA = np.matmul(dZ, mlp.weights[k].T, out=dA_out)
        np.add.reduce(dZ, axis=0, out=grads[2 * k + 1])
    return dA, grads


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
# -ffp-contract=off: else a*b + c may fuse into an FMA, which rounds once, not twice
_KERNELS_C = pathlib.Path(__file__).with_name("kernels.c")
_CFLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


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

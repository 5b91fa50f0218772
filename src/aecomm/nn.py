"""Minimal dense-network machinery: forward/backward passes and Adam.

Everything operates on float64 numpy arrays. An MLP is a flat list of dense layers: a ReLU on
each but the last, which is linear. The forward pass returns a cache for the backward pass,
which writes the parameter gradients into the MLP's own arrays. Callers keep layer shapes
consistent; only indices and labels, which numpy would clip or wrap, are range-checked, and a
backward pass trusts the indices its forward pass checked. pack_params moves several MLPs'
parameters and gradients into one contiguous vector each, which Adam updates.

mlp_forward, mlp_backward and softmax_cross_entropy write their per-call
arrays into a workspace: a plain dict, passed as `ws`, that keeps one entry
per pass and row count, so repeated calls allocate nothing. A layer keeps only
arrays read again: its ReLU overwrites its pre-activation, and its dZ the
upstream gradient. A workspace serves one network. Its arrays are overwritten
by the next call of the same pass on the same row count, so results taken
from one are valid until then. Without a workspace a call returns fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


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
    input the first layer is the row lookup W0[X] + b0, which equals the
    one-hot matmul whenever W0 is finite.

    The cache's arrays live in the workspace `ws`. A hidden layer's output is
    its ReLU, written over its pre-activation: max(z, 0) > 0 exactly when z > 0.
    """
    if X.ndim == 1:
        if X.dtype.kind not in "iu":
            raise ValueError(f"index input has dtype {X.dtype}, expected integers")
        if X.size and (np.minimum.reduce(X) < 0 or np.maximum.reduce(X) >= mlp.in_dim):
            raise ValueError(f"index input out of range [0, {mlp.in_dim})")
    bufs = _buffers(ws, ("forward", len(X)), lambda: [np.empty((len(X), W.shape[1])) for W in mlp.weights])
    last = len(mlp.weights) - 1
    cache = []
    A = X
    for k, (W, b, Z) in enumerate(zip(mlp.weights, mlp.biases, bufs, strict=True)):
        if A.ndim == 1:
            np.take(W, A, axis=0, out=Z, mode="clip")  # in range: checked above
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
            _one_hot_grad(grads[2 * k], A_in, dZ, dA_out)
            dA = None
        else:
            np.matmul(A_in.T, dZ, out=grads[2 * k])
            dA = np.matmul(dZ, mlp.weights[k].T, out=dA_out)
        np.add.reduce(dZ, axis=0, out=grads[2 * k + 1])
    return dA, grads


def _one_hot_grad(out: np.ndarray, idx: np.ndarray, dZ: np.ndarray, flat: np.ndarray) -> None:
    """out = onehot(idx).T @ dZ: row idx[r] of out receives dZ[r].

    Repeated indices are summed in row order. OpenBLAS accumulates the matmul
    in the same order up to a few hundred rows (bit-equal at M=128 for 256
    rows); past its blocking size the two can differ in the last bit. flat,
    shaped like dZ, takes the flat scatter index.
    """
    if idx.size == out.shape[0] and (idx[1:] > idx[:-1]).all():  # 0..M-1, the whole alphabet
        out[...] = dZ
    else:
        out.fill(0.0)
        n_cols = out.shape[1]
        np.copyto(flat, idx[:, None])  # in intp, so a narrow index dtype cannot wrap
        flat *= n_cols
        flat += np.arange(n_cols)
        np.add.at(out.reshape(-1), flat.reshape(-1), dZ.reshape(-1))


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


@dataclass
class Adam:
    """Adam over one flat parameter vector, updated in place, with BETA1, BETA2 and EPSILON.

    params is a one-item list holding that vector (see pack_params); step takes
    the matching one-item gradient list and consumes it as scratch: the caller
    rewrites it whole before the next step. A step is a fixed sequence of whole-vector
    ufuncs over five vectors (parameters, gradients, m, v, one scratch; 372 KB each at
    paper scale) in the update formula's own evaluation order, so every element rounds as
    in the per-array expression; once 1 - BETA1**t rounds to 1.0, its division is skipped.
    """

    params: list[np.ndarray]
    lr: float
    t: int = field(default=0, init=False)  # steps taken

    def __post_init__(self):
        if len(self.params) != 1:
            raise ValueError("Adam takes a one-item list holding the flat parameter vector")
        p = self.params[0]
        self.m, self.v, self._update = np.zeros_like(p), np.zeros_like(p), np.empty_like(p)

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != 1 or grads[0].shape != self.params[0].shape:
            raise ValueError("gradient does not match the parameter vector")
        (p,), (g,) = self.params, grads
        m, v, u = self.m, self.v, self._update
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        # v = b2*v + (1-b2)*g*g;  m = b1*m + (1-b1)*g, through g itself once v has read it
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=u)
        u *= g
        v += u
        m *= BETA1
        g *= 1.0 - BETA1
        m += g
        # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), with m / b1t = m once b1t is 1.0
        np.multiply(m if b1t == 1.0 else np.divide(m, b1t, out=u), self.lr, out=u)
        np.divide(v, b2t, out=g)
        np.sqrt(g, out=g)
        g += EPSILON
        u /= g
        p -= u


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

"""Shared test utilities: the finite-difference gradient checker, flat-vector
loss wrappers for it, and reference helpers that only the tests use."""

import contextlib
import shlex
import sysconfig

import numpy as np
import pytest

from aecomm import comm, metrics, nn, train

KERNEL_FORMS = ("kernel", "numpy")
# the cached function that loads each compiled loop
KERNEL_GETTERS = ((nn, "adam_kernel"), (nn, "dense_forward_kernel"), (nn, "dense_backward_kernel"),
                  (nn, "cross_entropy_kernel"), (comm, "scatter_add_kernel"), (comm, "gather_kernel"),
                  (comm, "normalize_kernels"), (metrics, "batch_error_kernel"))


@contextlib.contextmanager
def kernel_form(form: str):
    """Each compiled loop runs `form` inside: "numpy", the fallbacks, or "kernel", what the getters
    of KERNEL_GETTERS load (the fallbacks where nothing loads; the test_kernel_loads tests say
    whether something does). An Adam keeps the form it is built in."""
    with pytest.MonkeyPatch.context() as mp:
        if form == "numpy":
            for module, getter in KERNEL_GETTERS:
                mp.setattr(module, getter, lambda: None)
        yield


def configured_cc() -> str:
    """The program nn's kernel loader compiles with."""
    return (shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"])[0]


def e2e_loss_fn(architecture, tx, rx, batch, noise, power):
    """Wrap an end-to-end training loss as f(flat params) -> (loss, flat grad).

    Packs tx and rx into one parameter vector, as training does. Noise is
    frozen, so the loss is a deterministic function of the parameters and
    central differences are valid.
    """
    params, grads = nn.pack_params(tx, rx)

    def f(vec):
        params[:] = vec
        loss, _ = train.loss_and_grads(tx, rx, batch, noise, power, architecture)
        return loss, grads.copy()

    return f, params.copy()


def qpsk_points(power=1.0):
    """The four QPSK symbols at total symbol energy `power`."""
    a = np.sqrt(power / 2.0)
    return np.array([[a, a], [-a, a], [-a, -a], [a, -a]])


def softmax(logits):
    """Row-wise softmax, stabilized by max subtraction."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def load_constellation_csv(path):
    """The points of a constellation.csv (`index,re,im` rows), as an M x 2 array."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "index,re,im":
            raise ValueError(f"unexpected constellation header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    points = np.empty((len(rows), 2))
    for idx, re, im in rows:
        points[int(idx)] = (float(re), float(im))
    return points


def norm_errors_vectorized(raw, indices, power):
    """Normalization error of each row of batch indices, from the raw alphabet output, in numpy."""
    out = np.empty(len(indices))
    metrics._batch_errors_numpy(metrics._alphabet_terms(raw, power), indices, power, out,
                                np.empty(indices.shape, complex), np.empty(len(indices)))
    return out


def normalization_error_direct(tx, batch_indices, power):
    """metrics.normalization_error by its definition: normalize the batch's raw rows
    over the batch and the whole alphabet output over the alphabet, then average the
    distance between each row's two normalized symbols. Raises DegenerateInputError
    where either scope has nothing to scale."""
    M = tx.in_dim
    batch_indices = np.asarray(batch_indices)
    raw, _ = nn.mlp_forward(np.arange(M), tx)
    x_batch, _ = comm.normalize_average(comm.gather(raw, batch_indices), power)
    all_norm, _ = comm.normalize_average(raw, power)
    x_alpha = comm.gather(all_norm, batch_indices)
    return float(np.linalg.norm(x_batch - x_alpha, axis=1).mean())


def gradient_check(f, x, h=1e-5):
    """Max relative error between the analytic gradient of f and central differences.

    f maps a flat parameter vector to (value, gradient). The error for each
    component is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    _, analytic = f(x)
    analytic = np.asarray(analytic, dtype=float)
    worst = 0.0
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        fp, _ = f(xp)
        xm = x.copy()
        xm[i] -= h
        fm, _ = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError("non-finite loss during gradient check")
        numeric = (fp - fm) / (2.0 * h)
        err = abs(analytic[i] - numeric) / max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, err)
    return worst

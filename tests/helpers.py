"""Shared test utilities: flat-vector loss wrappers for gradient checking."""

import numpy as np

from aecomm import nn, train


def e2e_loss_fn(architecture, tx, rx, batch, noise, power):
    """Wrap an end-to-end training loss as f(flat params) -> (loss, flat grad).

    Packs tx and rx into one parameter vector, as training does. Noise is
    frozen, so the loss is a deterministic function of the parameters and
    central differences are valid.
    """
    params, grads = nn.pack_params(tx, rx)
    scope = train.SCOPES[architecture]

    def f(vec):
        params[:] = vec
        loss, _ = train.loss_and_grads(tx, rx, batch, noise, power, scope)
        return loss, grads.copy()

    return f, params.copy()


def qpsk_points(power=1.0):
    """The four QPSK symbols at total symbol energy `power`."""
    a = np.sqrt(power / 2.0)
    return np.array([[a, a], [-a, a], [-a, -a], [a, -a]])

"""End-to-end training of the autoencoder link, for both architectures.

Baseline: one-hot batch -> transmitter -> average-power normalization over the
batch -> AWGN -> receiver -> cross-entropy.

Proposed: full alphabet -> transmitter -> average-power normalization over all
M messages -> gather the batch rows -> AWGN -> receiver -> cross-entropy. The
backward pass scatter-adds through the gather and then applies the coupled
normalization gradient, so every transmitter output row receives gradient even
when absent from the batch.

Paired runs share init_seed (identical initialization) and data_seed, which
seeds the batch sequence and, through its spawned child SeedSequence, an
independent noise stream; so the architecture is the only varied factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import comm, nn

ARCHITECTURES = ("baseline", "proposed")
# Symbols per draw: train_run draws the batches and the noise of _DRAW // batch_size
# steps at a time (at least one step), so its draws do not grow with data_budget
_DRAW = 4096


@dataclass
class TrainConfig:
    M: int = 128
    batch_size: int = 64
    snr_db: float = 45.0
    power: float = 1.0
    architecture: str = "proposed"
    tx_hidden: tuple[int, ...] = (100, 100)
    rx_hidden: tuple[int, ...] = (100, 100)
    lr: float = 0.008
    data_budget: int = 76800
    init_seed: int = 0
    data_seed: int = 0

    def __post_init__(self):
        if self.M < 2 or (self.M & (self.M - 1)) != 0:
            raise ValueError("M must be a power of 2")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        if self.data_budget < self.batch_size:
            raise ValueError("data_budget must be >= batch_size (at least one step)")
        try:
            lr = float(self.lr)
        except OverflowError:  # an int too large for a float
            lr = math.nan
        if not 0 < lr < math.inf:
            raise ValueError("lr must be a positive finite number")
        # the noise variance, fixed here; sigma2_from_snr rejects a power or SNR that has none
        self.sigma2 = comm.sigma2_from_snr(self.power, self.snr_db)
        if min(self.init_seed, self.data_seed) < 0:
            raise ValueError("seeds must be >= 0")
        self.tx_hidden = tuple(self.tx_hidden)
        self.rx_hidden = tuple(self.rx_hidden)
        if any(h < 1 for h in self.tx_hidden + self.rx_hidden):
            raise ValueError("hidden layer sizes must be >= 1")

    @property
    def n_steps(self) -> int:
        return self.data_budget // self.batch_size

    def describe(self, step: int) -> str:
        """This run at 0-based `step`, as a failure message names it."""
        return (f"{self.architecture} run at Bs={self.batch_size}, init_seed={self.init_seed},"
                f" data_seed={self.data_seed}, step {step}")


@dataclass
class RunResult:
    loss_curve: list[float]  # ends at the first non-finite loss, if any
    tx: nn.Mlp
    rx: nn.Mlp
    constellation: np.ndarray  # M x 2, alphabet-normalized


def init_model(config: TrainConfig) -> tuple[nn.Mlp, nn.Mlp]:
    """Transmitter and receiver from a single init stream (architecture-independent)."""
    rng = np.random.default_rng(config.init_seed)
    tx = nn.build_mlp([config.M, *config.tx_hidden, 2], rng)
    rx = nn.build_mlp([2, *config.rx_hidden, config.M], rng)
    return tx, rx


def constellation(tx: nn.Mlp, power: float) -> np.ndarray:
    """The constellation a run deploys: tx's output for each message, normalized to `power`."""
    return comm.normalize_average(nn.mlp_forward(np.arange(tx.in_dim), tx)[0], power)[0]


def loss_and_grads(
    tx: nn.Mlp,
    rx: nn.Mlp,
    batch: np.ndarray,
    noise: np.ndarray,
    power: float,
    architecture: str,
    *,
    ws: dict | None = None,
) -> tuple[float, np.ndarray]:
    """Loss of one batch; the gradients land in tx.grads and rx.grads.

    "baseline" normalizes the batch's transmitter outputs and returns those
    sent symbols. "proposed" normalizes all M outputs, gathers the batch rows,
    and returns the whole constellation.
    The arrays live in the workspace `ws`, the returned symbols too: per batch size and
    architecture, the alphabet's indices, the normalized transmitter outputs, the received
    symbols, one sub-workspace per network (see nn) and, for "proposed", the sent symbols and the
    scatter-add of their gradient, which its normalization's gradient overwrites.
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}")
    baseline = architecture == "baseline"
    n, rows = len(batch), len(batch) if baseline else tx.in_dim  # rows: the transmitter's outputs
    alphabet, symbols, received, tx_ws, rx_ws, sent, dsymbols = nn._buffers(ws, (n, architecture), lambda: (
        np.arange(tx.in_dim), np.empty((rows, 2)), np.empty((n, 2)), {}, {},
        *((None, None) if baseline else (np.empty((n, 2)), np.empty((rows, 2))))))
    raw, tx_cache = nn.mlp_forward(batch if baseline else alphabet, tx, ws=tx_ws)
    symbols, s = comm.normalize_average(raw, power, out=symbols)
    sent = symbols if baseline else comm.gather(symbols, batch, out=sent)
    logits, rx_cache = nn.mlp_forward(np.add(sent, noise, out=received), rx, ws=rx_ws)
    loss, dlogits = nn.softmax_cross_entropy(logits, batch, ws=ws)

    dsent, _ = nn.mlp_backward(dlogits, rx_cache, rx, ws=rx_ws)
    dsymbols = dsent if baseline else comm.gather_backward(dsent, batch, rows, out=dsymbols)
    draw = comm.normalize_average_backward(dsymbols, raw, s, out=dsymbols)  # read whole before written
    nn.mlp_backward(draw, tx_cache, tx, ws=tx_ws)
    return loss, symbols


def train_step(
    tx: nn.Mlp,
    rx: nn.Mlp,
    optimizer: nn.Adam,
    batch: np.ndarray,
    noise: np.ndarray,
    config: TrainConfig,
    *,
    ws: dict | None = None,
) -> float:
    """One gradient step on `batch`, with `noise` the channel noise of its rows; optimizer holds
    the flat vectors of tx and rx (nn.pack_params). ws is the workspace that loss_and_grads
    writes its per-step arrays into.
    """
    loss, _ = loss_and_grads(tx, rx, batch, noise, config.power, config.architecture, ws=ws)
    optimizer.step()
    return loss


def train_run(config: TrainConfig) -> RunResult:
    """Train for data_budget // batch_size steps; deterministic given the seeds.

    Every step writes its activations and gradients into one workspace that
    lives as long as this call, so steps after the first allocate no large arrays.
    The batches and the noise are drawn per block of _DRAW // batch_size steps.
    """
    tx, rx = init_model(config)
    optimizer = nn.Adam(*nn.pack_params(tx, rx), lr=config.lr)
    data_rng = np.random.default_rng(config.data_seed)
    noise_rng = np.random.default_rng(np.random.SeedSequence(config.data_seed).spawn(1)[0])
    ws: dict = {}

    def steps():
        # a block's batches, then its noise: the generators are independent, integers keeps
        # its buffered 32-bit half inside the bit generator and the normals hold no state,
        # so the values and both final states equal one draw per step or per run
        per_draw = max(1, _DRAW // config.batch_size)
        for first in range(0, config.n_steps, per_draw):
            k = min(per_draw, config.n_steps - first)
            batches = data_rng.integers(0, config.M, size=(k, config.batch_size))
            yield from zip(batches, comm.awgn_noise((k, config.batch_size, 2), config.sigma2, noise_rng))

    loss_curve: list[float] = []
    try:
        for batch, step_noise in steps():
            loss = train_step(tx, rx, optimizer, batch, step_noise, config, ws=ws)
            loss_curve.append(loss)
            if not math.isfinite(loss):
                break
        return RunResult(loss_curve, tx, rx, constellation(tx, config.power))
    except comm.DegenerateInputError as exc:  # a transmitter whose outputs are all zero
        raise comm.DegenerateInputError(f"{config.describe(len(loss_curve))}: {exc}") from exc

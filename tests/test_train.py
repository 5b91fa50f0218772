import collections
import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecomm import comm, nn, train
from helpers import KERNEL_FORMS, e2e_loss_fn, gradient_check, kernel_form


def small_config(**kw):
    defaults = dict(
        M=4,
        batch_size=8,
        snr_db=15.0,
        power=1.0,
        architecture="proposed",
        tx_hidden=(10,),
        rx_hidden=(10,),
        lr=0.008,
        data_budget=64,
        init_seed=1,
        data_seed=2,
    )
    defaults.update(kw)
    return train.TrainConfig(**defaults)


def record_rngs(monkeypatch):
    """The generators np.random.default_rng makes from now on, each as (a copy at creation, itself)."""
    made = []
    real = np.random.default_rng

    def recording(*args):
        rng = real(*args)
        made.append((copy.deepcopy(rng), rng))
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


class TestGradients:
    @pytest.mark.parametrize("arch", train.ARCHITECTURES)
    def test_end_to_end_matches_finite_differences(self, arch):
        rng = np.random.default_rng(100)
        tx = nn.build_mlp([8, 5, 2], rng)
        rx = nn.build_mlp([2, 5, 8], rng)
        batch = rng.integers(0, 8, size=6)
        noise = rng.normal(scale=0.05, size=(6, 2))
        f, x0 = e2e_loss_fn(arch, tx, rx, batch, noise, 1.0)
        assert gradient_check(f, x0) < 1e-5

    def test_unsampled_rows_receive_gradient(self):
        # the normalization coupling pushes gradient to rows outside the batch
        rng = np.random.default_rng(101)
        tx = nn.build_mlp([8, 6, 2], rng)
        rx = nn.build_mlp([2, 6, 8], rng)
        batch = np.array([0, 1, 2])  # rows 3..7 never gathered
        noise = rng.normal(scale=0.05, size=(3, 2))

        raw, tx_cache = nn.mlp_forward(np.eye(8), tx)
        points, s = comm.normalize_average(raw, 1.0)
        y = comm.gather(points, batch) + noise
        logits, rx_cache = nn.mlp_forward(y, rx)
        _, dlogits = nn.softmax_cross_entropy(logits, batch)
        dy, _ = nn.mlp_backward(dlogits, rx_cache, rx)
        dpoints = comm.gather_backward(dy, batch, 8)
        draw = comm.normalize_average_backward(dpoints, raw, s)

        assert np.all(dpoints[3:] == 0.0)
        assert np.all(np.linalg.norm(draw[3:], axis=1) > 0.0)


class TestScopeEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_alphabet_batch_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        tx = nn.build_mlp([8, 12, 2], rng)
        rx = nn.build_mlp([2, 12, 8], rng)
        batch = np.arange(8)
        noise = np.random.default_rng(seed + 50).normal(scale=0.01, size=(8, 2))
        loss_b, sent_b = train.loss_and_grads(tx, rx, batch, noise, 1.0, "baseline")
        loss_p, points_p = train.loss_and_grads(tx, rx, batch, noise, 1.0, "proposed")
        assert loss_b == loss_p
        assert np.array_equal(sent_b, comm.gather(points_p, batch))


class TestTrainingBehaviour:
    def test_loss_decreases_early(self):
        ok = 0
        for seed in range(10):
            cfg = train.TrainConfig(
                M=4,
                batch_size=128,
                snr_db=45.0,
                architecture="baseline",
                tx_hidden=(16,),
                rx_hidden=(16,),
                lr=0.008,
                data_budget=128 * 10,
                init_seed=seed,
                data_seed=seed + 1000,
            )
            result = train.train_run(cfg)
            if result.loss_curve[-1] < result.loss_curve[0]:
                ok += 1
        assert ok >= 9

    def test_power_constraints_per_step(self):
        # proposed: alphabet constraint exact each step; baseline: batch constraint
        for arch in train.ARCHITECTURES:
            cfg = small_config(architecture=arch, data_budget=8 * 30)
            tx, rx = train.init_model(cfg)
            opt = nn.Adam(*nn.pack_params(tx, rx), lr=cfg.lr)
            data_rng = np.random.default_rng(cfg.data_seed)
            noise_rng = np.random.default_rng(np.random.SeedSequence(cfg.data_seed).spawn(1)[0])
            for _ in range(cfg.n_steps):
                batch = data_rng.integers(0, cfg.M, size=cfg.batch_size)
                noise = noise_rng.normal(0, np.sqrt(cfg.sigma2 / 2), size=(cfg.batch_size, 2))
                _, symbols = train.loss_and_grads(tx, rx, batch, noise, cfg.power, arch)
                mean_power = np.mean(np.sum(symbols * symbols, axis=1))
                assert mean_power == pytest.approx(cfg.power, rel=1e-9)
                opt.step()

    def test_cross_scope_constraint_generally_violated(self):
        # baseline's batch-normalized symbols do not satisfy the alphabet
        # constraint, and the proposed symbols' batch power fluctuates
        cfg = small_config(architecture="baseline", M=8, batch_size=4)
        tx, rx = train.init_model(cfg)
        rng = np.random.default_rng(0)
        violated_alphabet = violated_batch = 0
        for _ in range(20):
            batch = rng.integers(0, cfg.M, size=cfg.batch_size)
            noise = np.zeros((cfg.batch_size, 2))
            _, sent = train.loss_and_grads(tx, rx, batch, noise, cfg.power, "baseline")
            raw, _ = nn.mlp_forward(np.eye(cfg.M), tx)
            # alphabet power implied by the batch scale factor
            _, s = comm.normalize_average(comm.gather(raw, batch), cfg.power)
            alphabet_power = np.mean(np.sum((s * raw) ** 2, axis=1))
            if abs(alphabet_power - cfg.power) > 1e-6:
                violated_alphabet += 1

            _, points = train.loss_and_grads(tx, rx, batch, noise, cfg.power, "proposed")
            batch_power = np.mean(np.sum(comm.gather(points, batch) ** 2, axis=1))
            if abs(batch_power - cfg.power) > 1e-6:
                violated_batch += 1
        assert violated_alphabet > 15
        assert violated_batch > 15


class TestTrainRun:
    def test_single_step_budget(self):
        result = train.train_run(small_config(data_budget=8, batch_size=8))
        assert len(result.loss_curve) == 1

    def test_budget_truncation(self):
        result = train.train_run(small_config(data_budget=30, batch_size=8))
        assert len(result.loss_curve) == 3

    def test_bit_identical_reruns(self):
        r1 = train.train_run(small_config())
        r2 = train.train_run(small_config())
        assert r1.loss_curve == r2.loss_curve
        assert np.array_equal(r1.constellation, r2.constellation)
        for a, b in zip(r1.tx.param_list() + r1.rx.param_list(),
                        r2.tx.param_list() + r2.rx.param_list()):
            assert np.array_equal(a, b)

    def test_paired_runs_share_init_and_batches(self):
        cfg_b = small_config(architecture="baseline")
        cfg_p = small_config(architecture="proposed")
        tx_b, rx_b = train.init_model(cfg_b)
        tx_p, rx_p = train.init_model(cfg_p)
        for a, b in zip(tx_b.param_list() + rx_b.param_list(),
                        tx_p.param_list() + rx_p.param_list()):
            assert np.array_equal(a, b)
        # identical data seed => identical batch sequence
        rng_b = np.random.default_rng(cfg_b.data_seed)
        rng_p = np.random.default_rng(cfg_p.data_seed)
        for _ in range(cfg_b.n_steps):
            assert np.array_equal(
                rng_b.integers(0, cfg_b.M, size=cfg_b.batch_size),
                rng_p.integers(0, cfg_p.M, size=cfg_p.batch_size),
            )

    def test_batch_and_noise_streams_independent(self, monkeypatch):
        # the batches come from data_seed's generator and the noise from its spawned
        # child: the two streams share no raw word, and paired runs share both
        made = record_rngs(monkeypatch)
        for arch in train.ARCHITECTURES:
            train.train_run(small_config(architecture=arch))
        monkeypatch.undo()
        assert len(made) == 6  # init, data and noise: baseline's, then proposed's
        for (start, end), (paired_start, paired_end) in zip(made[:3], made[3:]):
            assert paired_start.bit_generator.state == start.bit_generator.state
            assert paired_end.bit_generator.state == end.bit_generator.state
        (data_rng, _), (noise_rng, _) = made[1:3]
        cfg = small_config()
        assert data_rng.bit_generator.state == np.random.default_rng(cfg.data_seed).bit_generator.state
        child = np.random.default_rng(np.random.SeedSequence(cfg.data_seed).spawn(1)[0])
        assert noise_rng.bit_generator.state == child.bit_generator.state
        assert np.intersect1d(data_rng.bit_generator.random_raw(4096),
                              noise_rng.bit_generator.random_raw(4096)).size == 0

    @pytest.mark.parametrize("M, batch_size", [(16, 48), (128, 16), (2, 5000)])
    def test_block_draws_equal_one_draw_per_step(self, monkeypatch, M, batch_size):
        # 3 full blocks of _DRAW // Bs steps and a partial fourth (at Bs > _DRAW,
        # 13 blocks of one step), each one 2-D integers draw and one noise draw,
        # give the values and final generator states of a loop that draws per step
        per_draw = max(1, train._DRAW // batch_size)
        config = small_config(M=M, batch_size=batch_size, data_budget=batch_size * (3 * per_draw + 10))
        made = record_rngs(monkeypatch)
        result = train.train_run(config)
        monkeypatch.undo()
        _, (_, run_data_rng), (_, run_noise_rng) = made  # init, data, noise

        tx, rx = train.init_model(config)
        opt = nn.Adam(*nn.pack_params(tx, rx), lr=config.lr)
        data_rng = np.random.default_rng(config.data_seed)
        noise_rng = np.random.default_rng(np.random.SeedSequence(config.data_seed).spawn(1)[0])
        ws = {}
        losses = [train.train_step(tx, rx, opt, data_rng.integers(0, config.M, size=config.batch_size),
                                   comm.awgn_noise((config.batch_size, 2), config.sigma2, noise_rng), config, ws=ws)
                  for _ in range(config.n_steps)]
        assert result.loss_curve == losses
        for a, b in zip(result.tx.param_list() + result.rx.param_list(), tx.param_list() + rx.param_list(),
                        strict=True):
            assert np.array_equal(a, b)
        assert run_data_rng.bit_generator.state == data_rng.bit_generator.state
        assert run_noise_rng.bit_generator.state == noise_rng.bit_generator.state

    def test_memory_does_not_grow_with_data_budget(self):
        # two draw blocks against eight: the last step of one block holds it while
        # the next is drawn, and only the loss curve grows, by ~32 B a step; the
        # batches and noise drawn whole would add 24 B a symbol (576 KiB here)
        train.train_run(small_config())  # first-call allocations, outside the measurement
        peaks = []
        for blocks in (2, 8):
            config = small_config(M=16, batch_size=64, data_budget=blocks * train._DRAW)
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                train.train_run(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - start)
        assert peaks[1] - peaks[0] < 64 * 1024

    def test_constellation_satisfies_alphabet_constraint(self):
        result = train.train_run(small_config())
        power = np.mean(np.sum(result.constellation ** 2, axis=1))
        assert power == pytest.approx(1.0, rel=1e-12)
        # the instruments decode the constellation in place of the transmitter, so
        # it must be tx's alphabet normalized at the run's power, bit for bit, also
        # after a divergence (a huge lr overflows the weights within a few steps)
        for arch in train.ARCHITECTURES:
            for config in (small_config(architecture=arch, power=2.5),
                           small_config(architecture=arch, lr=1e100, data_budget=80)):
                with np.errstate(all="ignore"):
                    result = train.train_run(config)
                    raw, _ = nn.mlp_forward(np.arange(config.M), result.tx)
                    expected, _ = comm.normalize_average(raw, config.power)
                    recomputed = train.constellation(result.tx, config.power)
                assert math.isfinite(result.loss_curve[-1]) == (config.lr < 1)
                assert np.array_equal(result.constellation, expected, equal_nan=True)
                assert np.array_equal(recomputed, result.constellation, equal_nan=True)

    def test_loss_finite_throughout(self):
        result = train.train_run(small_config(data_budget=8 * 50))
        assert np.all(np.isfinite(result.loss_curve))

    def test_parameters_share_one_buffer(self, monkeypatch):
        # tx and rx train as views into the optimizer's single flat vector, so
        # a whole-model update is one Adam step over sum(sizes) parameters
        seen = []
        real_step = train.train_step

        def spy(tx, rx, optimizer, *rest, **kwargs):
            seen.append((tx, rx, optimizer))
            return real_step(tx, rx, optimizer, *rest, **kwargs)

        monkeypatch.setattr(train, "train_step", spy)
        result = train.train_run(train.TrainConfig(batch_size=16, data_budget=16))
        (tx, rx, opt), = seen
        # the benchmark's tracer counts Adam's bytes as sum(p.size for p in opt.params)
        assert sum(p.size for p in opt.params) == opt.p.size == opt.g.size == 46530  # paper scale: M=128, [100, 100]
        for p in tx.param_list() + rx.param_list() + result.tx.param_list():
            assert np.shares_memory(p, opt.p)
        for g in tx.grads + rx.grads:
            assert np.shares_memory(g, opt.g)

    @pytest.mark.parametrize("architecture", train.ARCHITECTURES)
    def test_dead_transmitter_failure_names_the_run(self, architecture):
        # init_seed 25 gives this one-unit transmitter an all-zero output at init
        config = small_config(tx_hidden=(1,), rx_hidden=(2,), init_seed=25, architecture=architecture)
        with pytest.raises(comm.DegenerateInputError) as info:
            train.train_run(config)
        assert str(info.value) == (
            f"{architecture} run at Bs=8, init_seed=25, data_seed=2, step 0:"
            " all-zero input cannot satisfy an average power constraint")

    @pytest.mark.parametrize("scope", ["bogus", "batch"])
    def test_unknown_scope_rejected(self, scope):
        # loss_and_grads takes the architecture; a former scope name is none
        rng = np.random.default_rng(0)
        tx = nn.build_mlp([4, 3, 2], rng)
        rx = nn.build_mlp([2, 3, 4], rng)
        with pytest.raises(ValueError):
            train.loss_and_grads(tx, rx, np.array([0, 1]), np.zeros((2, 2)), 1.0, scope)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            small_config(M=6)
        with pytest.raises(ValueError):
            small_config(architecture="other")
        with pytest.raises(ValueError):
            small_config(batch_size=8, data_budget=4)  # zero steps
        with pytest.raises(ValueError):
            small_config(power=-1.0)
        with pytest.raises(ValueError):
            small_config(lr=-0.1)
        with pytest.raises(ValueError):
            small_config(tx_hidden=(0,))
        with pytest.raises(ValueError):
            small_config(init_seed=-1)
        # a non-finite snr_db or power has no noise variance; lr has its own check
        for bad in ({"power": float("nan")}, {"snr_db": math.inf}, {"power": math.inf}, {"lr": math.nan}):
            with pytest.raises(ValueError):
                small_config(**bad)

    @pytest.mark.parametrize("snr_db, power", [(4000, 1.0), (-4000, 1.0), (-3000, 1e10), (3300, 1e-30)])
    def test_snr_whose_noise_variance_under_or_overflows_rejected(self, snr_db, power):
        # finite, but 10 ** (-snr_db / 10) scaled by power leaves the positive floats
        with pytest.raises(ValueError, match="noise variance"):
            small_config(snr_db=snr_db, power=power)


def run_steps(config, n_steps, ws):
    """n_steps train_step calls from config's seeds; returns (losses, the parameter vector, optimizer).

    ws is one workspace shared by every step, or None for a fresh one per call.
    """
    tx, rx = train.init_model(config)
    opt = nn.Adam(*nn.pack_params(tx, rx), lr=config.lr)
    data_rng = np.random.default_rng(config.data_seed)
    noise_rng = np.random.default_rng(np.random.SeedSequence(config.data_seed).spawn(1)[0])
    losses = [
        train.train_step(tx, rx, opt, data_rng.integers(0, config.M, size=config.batch_size),
                         comm.awgn_noise((config.batch_size, 2), config.sigma2, noise_rng), config, ws=ws)
        for _ in range(n_steps)
    ]
    return losses, opt.p, opt


class TestWorkspace:
    @settings(max_examples=40, deadline=None)
    @given(
        log2_M=st.integers(1, 6),
        batch_size=st.integers(1, 80),  # past M, duplicate indices are certain
        tx_hidden=st.lists(st.integers(1, 24), min_size=1, max_size=2),
        rx_hidden=st.lists(st.integers(1, 24), min_size=1, max_size=2),
        architecture=st.sampled_from(train.ARCHITECTURES),
        n_steps=st.integers(2, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_shared_workspace_bit_identical(self, log2_M, batch_size, tx_hidden, rx_hidden,
                                            architecture, n_steps, seed):
        config = small_config(M=2**log2_M, batch_size=batch_size, data_budget=batch_size * n_steps,
                              tx_hidden=tx_hidden, rx_hidden=rx_hidden, architecture=architecture,
                              init_seed=seed, data_seed=seed + 1)
        try:
            ref_losses, ref_params, ref_opt = run_steps(config, n_steps, ws=None)
        except comm.DegenerateInputError:  # a dead-ReLU transmitter fails the same way with one
            with pytest.raises(comm.DegenerateInputError):
                run_steps(config, n_steps, ws={})
            return
        losses, params, opt = run_steps(config, n_steps, ws={})
        assert losses == ref_losses
        assert np.array_equal(params, ref_params)
        assert np.array_equal(opt.m, ref_opt.m) and np.array_equal(opt.v, ref_opt.v)
        assert opt.t == ref_opt.t == n_steps

    def test_row_count_change_between_calls(self):
        # one workspace serves batches of changing size without handing back
        # an array of a stale shape or stale contents; grads starts as nan
        # because Adam.step leaves scratch values there, so every entry must be rewritten
        rng = np.random.default_rng(40)
        tx = nn.build_mlp([8, 6, 5, 2], rng)
        rx = nn.build_mlp([2, 7, 8], rng)
        params, grads = nn.pack_params(tx, rx)
        ws = {}
        for n in (8, 3, 8, 12, 3, 1):
            for architecture in train.ARCHITECTURES:
                batch = rng.integers(0, 8, size=n)
                noise = rng.normal(scale=0.1, size=(n, 2))
                grads.fill(np.nan)
                loss, symbols = train.loss_and_grads(tx, rx, batch, noise, 1.0, architecture, ws=ws)
                got = grads.copy()
                grads.fill(np.nan)
                ref_loss, ref_symbols = train.loss_and_grads(tx, rx, batch, noise, 1.0, architecture)
                assert loss == ref_loss
                assert np.array_equal(symbols, ref_symbols)
                assert np.array_equal(got, grads)

    @pytest.mark.parametrize("architecture", train.ARCHITECTURES)
    def test_steady_state_step_allocates_no_large_arrays(self, architecture):
        # numpy reports its array data to tracemalloc; paper scale, Bs=256
        config = train.TrainConfig(batch_size=256, architecture=architecture)
        tx, rx = train.init_model(config)
        opt = nn.Adam(*nn.pack_params(tx, rx), lr=config.lr)
        data_rng, noise_rng = np.random.default_rng(1), np.random.default_rng(2)
        ws = {}

        def step():
            batch = data_rng.integers(0, config.M, size=config.batch_size)
            noise = comm.awgn_noise((config.batch_size, 2), config.sigma2, noise_rng)
            train.train_step(tx, rx, opt, batch, noise, config, ws=ws)

        step()  # fills the workspace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 256 * 1024

    @pytest.mark.parametrize("form", KERNEL_FORMS)
    @pytest.mark.parametrize("architecture, workspace_kib", [("baseline", 2127), ("proposed", 1725)])
    def test_step_keeps_only_arrays_read_again(self, architecture, workspace_kib, form):
        # paper scale, Bs=256. Per layer the workspace holds one forward array (a
        # hidden layer's ReLU overwrites its pre-activation) and, but for an index
        # input, one input-gradient buffer (dZ overwrites the upstream gradient): the
        # numpy form's ReLU masks and scatter index are temporaries. Adam holds m and
        # v of 46 530 parameters, and one scratch vector more only where it runs the numpy form
        config = train.TrainConfig(batch_size=256, architecture=architecture)
        tx, rx = train.init_model(config)
        with kernel_form(form):
            opt = nn.Adam(*nn.pack_params(tx, rx), lr=config.lr)
            ws = {}
            train.train_step(tx, rx, opt, np.random.default_rng(1).integers(0, config.M, size=256),
                             comm.awgn_noise((256, 2), config.sigma2, np.random.default_rng(2)), config, ws=ws)

        def kib(holder):  # the distinct base arrays that `holder` reaches
            bases, todo = {}, [holder]
            while todo:
                x = todo.pop()
                if isinstance(x, np.ndarray):
                    while x.base is not None:
                        x = x.base
                    bases[id(x)] = x
                elif isinstance(x, (list, tuple)):
                    todo.extend(x)
                elif isinstance(x, dict):
                    todo.extend(x.values())
            return sum(a.nbytes for a in bases.values()) / 1024

        assert kib(ws) == workspace_kib
        assert kib(vars(opt)) - kib([opt.p, opt.g]) == (2 + (opt._kernel is None)) * 46530 * 8 / 1024  # 727 KiB


# The functions the benchmark's tracer (perfbench/tracer.py) replaces by
# module attribute, and the position of the Mlp argument it reads to tell
# the transmitter's pass from the receiver's. A step that reached them some
# other way would vanish from the per-layer trace. A name the tracer wraps but
# the code lacks is reported as a missing span, not a failure.
TRACED = {
    train: ("train_step",),
    nn: ("mlp_forward", "mlp_backward", "softmax_cross_entropy"),
    comm: ("gather", "gather_backward", "normalize_average", "normalize_average_backward", "awgn"),
}
MLP_ARG = {"mlp_forward": 1, "mlp_backward": 2}


class TestTracerVisibility:
    @staticmethod
    def install_counters(monkeypatch):
        counts = collections.Counter()

        def counting(name, fn):
            pos = MLP_ARG.get(name.split(".")[1])

            def wrapper(*args, **kwargs):
                if pos is None:
                    counts[name] += 1
                else:
                    assert isinstance(args[pos], nn.Mlp)
                    counts[f"{name}.{'rx' if args[pos].in_dim == 2 else 'tx'}"] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, names in TRACED.items():
            for attr in names:
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
        monkeypatch.setattr(nn.Adam, "step", counting("nn.Adam.step", nn.Adam.step))
        return counts

    @pytest.mark.parametrize("architecture", train.ARCHITECTURES)
    def test_per_step_calls(self, monkeypatch, architecture):
        counts = self.install_counters(monkeypatch)
        runs = []
        for n_steps in (2, 3):
            counts.clear()
            train.train_run(small_config(architecture=architecture, data_budget=8 * n_steps))
            runs.append(dict(counts))
        per_step = {
            "train.train_step": 1,
            "nn.mlp_forward.tx": 1, "nn.mlp_forward.rx": 1,
            "nn.softmax_cross_entropy": 1,
            "nn.mlp_backward.rx": 1, "nn.mlp_backward.tx": 1,
            "comm.normalize_average": 1, "comm.normalize_average_backward": 1,
            "nn.Adam.step": 1,
            # the transmitter's one-hot first layer: its row lookup and scatter-add
            "comm.gather": 1, "comm.gather_backward": 1,
        }
        if architecture == "proposed":  # the batch rows sliced after normalization
            per_step.update({"comm.gather": 2, "comm.gather_backward": 2})
        for n_steps, got in zip((2, 3), runs):
            # the run's last transmitter pass (its first layer a gather) and normalization
            # give its constellation
            once = {"nn.mlp_forward.tx": 1, "comm.gather": 1, "comm.normalize_average": 1}
            assert got == {name: per_step.get(name, 0) * n_steps + once.get(name, 0)
                           for name in per_step.keys() | once.keys()}

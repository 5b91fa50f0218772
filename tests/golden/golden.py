"""Bit-for-bit reference of aecomm's outputs: sha256 sums of what fixed configs write.

It covers the data files of criterion 8's small configs (train, norm-error, a
1-cell compare, ser on the trained run), a norm-error at M=512 and Bs=3, whose
batches read uint16 units and leave part of each raw word unread, a ser on the
trained run whose symbols fill three decode windows and part of a fourth, and,
for each architecture at Bs 16 and 256, the loss curve, constellation and
parameters of a 200-step run at paper width (M=128, hidden [100, 100]), plus a
300-step proposed run at Bs=16, which spans two of train_run's draw blocks, and
the validation accuracy of one of those runs that is far from 1.0.

Output bits depend on the OpenBLAS kernel and on numpy's SIMD dispatch, so the
script always runs under PINS, which need only AVX2 (it re-executes itself
with them). It prints a JSON document: the machine facts that decide the bits
(numpy's version, its dispatch targets, those active under PINS, the OpenBLAS
core) and the sums. tests/test_golden.py compares that document with
golden.json, and skips where the facts differ.

Usage:
  PYTHONPATH=src python tests/golden/golden.py           # print the document
  PYTHONPATH=src python tests/golden/golden.py --write   # regenerate golden.json

A change that alters output bits on purpose regenerates golden.json and says
so; its diff then shows which outputs moved.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

PINS = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
GOLDEN = Path(__file__).with_name("golden.json")

# output directory: the command, its config and its data files, in run order. The first
# four are criterion 8's configs (tests/test_acceptance.py); each ser reads the train
# command's run.json, whose 16-wide receiver decodes 4096-row windows
COMMANDS = {
    "train": ("train", {"M": 4, "batch_size": 32, "architecture": "proposed", "data_budget": 3200,
                        "tx_hidden": [16], "rx_hidden": [16], "val_batches": 3, "val_batch_size": 100},
              ["run.json", "constellation.csv"]),
    "norm-error": ("norm-error", {"M_list": [4, 16], "batch_sizes": [4, 16], "n_inits": 3, "n_batches": 50,
                                  "tx_hidden": [10]}, ["norm_error.csv"]),
    "norm-error-512": ("norm-error", {"M_list": [512], "batch_sizes": [3], "n_inits": 2, "n_batches": 50,
                                      "tx_hidden": [10]}, ["norm_error.csv"]),
    "compare": ("compare", {"M": 4, "batch_sizes": [8], "init_seeds": [0], "data_seeds": [100],
                            "data_budget": 800, "tx_hidden": [10], "rx_hidden": [10],
                            "val_batches": 2, "val_batch_size": 50}, ["accuracy.csv"]),
    "ser": ("ser", {"run_json": "train/run.json", "n_symbols": 2000}, ["ser.csv"]),
    "ser-windows": ("ser", {"run_json": "train/run.json", "n_symbols": 3 * 4096 + 1000}, ["ser.csv"]),
}
# short paper-width runs (seeds 3/103): architecture, Bs and steps
RUNS = {f"{arch} Bs={bs}": (arch, bs, 200) for arch in ("baseline", "proposed") for bs in (16, 256)}
RUNS["proposed Bs=16, 300 steps"] = ("proposed", 16, 300)
# the compare above saturates at accuracy 1.0, so no sum would see a change in how
# validation draws or decodes; this run's receiver scores about 0.21 on the 30 000
# symbols of the default val_batches, val_batch_size and val_seed
VALIDATED = "baseline Bs=16"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def machine_facts() -> dict:
    import ctypes

    from numpy import __version__
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    from aecomm import cli

    corename = cli._openblas_function("get_corename")
    if corename is not None:
        corename.restype, corename.argtypes = ctypes.c_char_p, []
    return {
        "numpy": __version__,
        "cpu_dispatch": list(umath.__cpu_dispatch__),
        "cpu_dispatch_active": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "openblas_core": corename().decode() if corename is not None else None,
    }


def digests() -> dict:
    """sha256 of each data file of COMMANDS, of the arrays of each run of RUNS and of
    VALIDATED's validation accuracy."""
    import numpy as np

    from aecomm import cli, metrics, train

    cli.pin_blas_threads()
    sums = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, cfg, files) in COMMANDS.items():
            out = Path(tmp, name)
            if command == "ser":
                cfg = {**cfg, "run_json": str(Path(tmp, cfg["run_json"]))}
            Path(tmp, "config.json").write_text(json.dumps(cfg))
            if cli.main([command, "--config", str(Path(tmp, "config.json")), "--out", str(out),
                         "--workers", "1"]) != 0:
                raise RuntimeError(f"{command} failed")
            for file in files:
                sums[f"{name}/{file}"] = _sha256((out / file).read_bytes())
    for name, (arch, bs, steps) in RUNS.items():
        config = train.TrainConfig(
            batch_size=bs, architecture=arch, data_budget=steps * bs, init_seed=3, data_seed=103)
        run = train.train_run(config)
        params = np.concatenate([p.ravel() for p in run.tx.param_list() + run.rx.param_list()])
        parts = [("loss_curve", np.asarray(run.loss_curve)), ("constellation", run.constellation),
                 ("parameters", params)]
        if name == VALIDATED:
            parts.append(("validation_accuracy", np.float64(metrics.validation_accuracy(
                run.constellation, run.rx, config.sigma2, 30000, np.random.default_rng(0)))))
        for part, a in parts:
            sums[f"{name}/{part}"] = _sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return sums


def main(argv: list[str]) -> None:
    doc = {"facts": machine_facts(), "sha256": digests()}
    text = json.dumps(doc, indent=2) + "\n"
    if argv == ["--write"]:
        GOLDEN.write_text(text)
    elif argv:
        sys.exit(f"usage: {sys.argv[0]} [--write]")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    if any(os.environ.get(key) != value for key, value in PINS.items()):
        # the pins act when numpy and OpenBLAS load, so they must be set before the first import
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], {**os.environ, **PINS})
    main(sys.argv[1:])

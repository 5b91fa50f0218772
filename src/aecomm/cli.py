"""Command-line entry point.

Subcommands:
  norm-error  batch-size sweep of the average normalization error
  compare     paired baseline-vs-proposed accuracy sweep over batch sizes
  train       a single training run (run.json + constellation.csv)
  ser         symbol-error-rate sweep for a trained run

Every command is a deterministic function of its JSON config; all seeds are
explicit. Exit codes: 0 success, 1 runtime failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import comm, metrics, nn, train


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_errors():
    """Re-raise a library's ValueError, a rejected value, as a ConfigError (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _openblas_function(name: str):
    """The OpenBLAS function `name` (e.g. "set_num_threads") of the loaded BLAS, or None.

    numpy 2.x wheels bundle scipy-openblas, whose symbols carry a scipy_ prefix,
    and 1.x wheels plain OpenBLAS; 64-bit-integer builds add a 64_ suffix.
    """
    try:
        with open("/proc/self/maps") as fh:  # Linux only
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh}  # the path may hold spaces
    except OSError:
        return None
    for path in sorted(p for p in paths if "blas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a library marked "(deleted)"
            continue
        for sym in (f"scipy_openblas_{name}64_", f"scipy_openblas_{name}",
                    f"openblas_{name}64_", f"openblas_{name}"):
            if hasattr(lib, sym):
                return getattr(lib, sym)
    return None


def pin_blas_threads() -> None:
    """Run the loaded OpenBLAS on one thread.

    These networks' matmuls are too small for a second BLAS thread to pay, and
    a thread count that follows the core count would make the last bits of a
    run depend on the machine; parallelism comes from compare's process pool.
    Without an OpenBLAS to pin, it says so on stderr and carries on.
    """
    set_threads = _openblas_function("set_num_threads")
    if set_threads is None:
        print("note: no OpenBLAS found to pin to one thread; BLAS keeps its default threads",
              file=sys.stderr)
        return
    set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
    set_threads(1)


def _read_json(path, what: str):
    """The JSON document at `path`; an unreadable one is a ConfigError naming `what` and the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _check(raw, schema: dict) -> dict:
    """Validate a JSON config against {key: (checker, default-or-_REQUIRED)}.

    Unknown keys are rejected; keys with default _REQUIRED are required.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, (check, default) in schema.items():
        if key in raw:
            value = raw[key]
            if not check(value):
                raise ConfigError(f"invalid value for {key!r}: {value!r}")
            cfg[key] = value
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            cfg[key] = default
    return cfg


_REQUIRED = object()


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_pos_int(v):
    return _is_int(v) and v > 0


def _is_seed(v):
    return _is_int(v) and v >= 0


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_num(v):
    # json.load accepts NaN and Infinity tokens, and ints too large for a
    # float; no config value may be either
    if not _is_real(v):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_str(v):
    return isinstance(v, str) and bool(v)


def _list_of(check, distinct=False):
    """Checker for a non-empty JSON list whose items all pass `check`; with `distinct`, none repeats."""
    return lambda v: (isinstance(v, list) and len(v) > 0 and all(check(x) for x in v)
                      and (not distinct or len(set(v)) == len(v)))


# The JSON checker of each TrainConfig field type, a generic one keyed by its
# arguments. The defaults and every range check are TrainConfig's own (see _train_config).
_TYPE_CHECKS = {int: _is_int, float: _is_real, str: _is_str, (int, ...): _list_of(_is_int)}
_TRAIN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(train.TrainConfig)}

TRAIN_SCHEMA = {
    **{key: (_TYPE_CHECKS[typing.get_args(hint) or hint], _TRAIN_DEFAULTS[key])
       for key, hint in typing.get_type_hints(train.TrainConfig).items()},
    "val_batches": (_is_pos_int, 30),
    "val_batch_size": (_is_pos_int, 1000),
    "val_seed": (_is_seed, 0),
}

# compare sweeps the batch size and the seeds, and trains both architectures
COMPARE_SCHEMA = {
    **{key: v for key, v in TRAIN_SCHEMA.items()
       if key not in ("batch_size", "architecture", "init_seed", "data_seed")},
    "batch_sizes": (_list_of(_is_int, distinct=True), [16, 32, 64, 128, 256, 512]),
    "init_seeds": (_list_of(_is_seed, distinct=True), list(range(10))),
    "data_seeds": (_list_of(_is_seed, distinct=True), list(range(100, 110))),
}

NORM_ERROR_SCHEMA = {
    "M_list": (_list_of(_is_int, distinct=True), [4, 16, 64, 256]),  # cmd_norm_error checks powers of 2
    "batch_sizes": (_list_of(_is_pos_int, distinct=True), [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]),
    "n_inits": (_is_pos_int, 30),
    "n_batches": (_is_pos_int, 1000),
    "eb": (_is_num, 1.0),  # comm.power_from_eb checks its range
    "tx_hidden": (_list_of(_is_pos_int), [60, 60]),
    "seed": (_is_seed, 0),
}

SER_SCHEMA = {
    "run_json": (_is_str, _REQUIRED),
    "snr_db_list": (_list_of(_is_num), [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20]),
    "n_symbols": (_is_pos_int, 100000),
    "seed": (_is_seed, 0),
}


def _meta_text(name: str, cfg: dict) -> str:
    return json.dumps({"command": name, "config": cfg}, indent=2, sort_keys=True) + "\n"


def _write_whole(path: Path, pieces) -> None:
    """Write the strings `pieces` in turn to `path` through a temporary file beside it and
    a rename, so `path` holds all of them or its old content, and no temporary file is
    left, also when `pieces` raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(piece.encode() for piece in pieces)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_meta(out_dir: Path, name: str, cfg: dict) -> None:
    """Write the meta, last of a command's files: it marks a finished command."""
    _write_whole(out_dir / f"{name}_meta.json", [_meta_text(name, cfg)])


def _train_config(cfg: dict, **overrides) -> train.TrainConfig:
    """The TrainConfig of cfg's training keys plus `overrides`; a rejected one is a ConfigError."""
    fields = {key: v for key, v in cfg.items() if key in _TRAIN_DEFAULTS}
    with _config_errors():
        return train.TrainConfig(**{**fields, **overrides})


def _train_and_score(config: train.TrainConfig, cfg: dict) -> tuple[train.RunResult, float]:
    """Train one run, then score it on the validation set of cfg's val_* keys. A diverged run, whose
    constellation is not finite (a non-finite loss, or an overflow in the last update), scores nan."""
    result = train.train_run(config)
    if not np.isfinite(result.constellation).all():
        return result, math.nan
    rng = np.random.default_rng(cfg["val_seed"])
    accuracy = metrics.validation_accuracy(
        result.constellation, result.rx, config.sigma2, cfg["val_batches"] * cfg["val_batch_size"], rng
    )
    return result, accuracy


def _compare_cell(args) -> tuple[list[float], float]:
    """Both architectures' accuracies of one (Bs, init_seed, data_seed) cell, and its wall seconds."""
    cfg, batch_size, init_seed, data_seed = args
    start = time.perf_counter()
    accuracies = []
    for arch in train.ARCHITECTURES:
        config = _train_config(cfg, architecture=arch, batch_size=batch_size, init_seed=init_seed,
                               data_seed=data_seed)
        run, accuracy = _train_and_score(config, cfg)
        if math.isnan(accuracy):
            raise RuntimeError(f"{config.describe(len(run.loss_curve) - 1)}: diverged, no finite constellation")
        accuracies.append(accuracy)
        del run  # its networks, freed before the next run trains
    return accuracies, time.perf_counter() - start


def cmd_norm_error(cfg: dict, out_dir: Path, workers: int) -> None:
    with _config_errors():  # an eb whose power overflows at some M
        for M in cfg["M_list"]:
            comm.power_from_eb(M, cfg["eb"])
    stats = metrics.norm_error_experiment(
        cfg["M_list"],
        cfg["batch_sizes"],
        cfg["n_inits"],
        cfg["n_batches"],
        cfg["eb"],
        tuple(cfg["tx_hidden"]),
        cfg["seed"],
    )
    for st in stats:
        if st.dead_inits or st.zero_batches:
            print(f"norm-error: M={st.M} Bs={st.batch_size}: excluded {st.dead_inits} of"
                  f" {cfg['n_inits']} transmitters (all-zero output) and {st.zero_batches}"
                  f" all-zero batches; averaged {st.n} batches", file=sys.stderr)
    empty = [(st.M, st.batch_size) for st in stats if st.n == 0]
    if empty:
        raise RuntimeError(f"no batch left to average in (M, Bs) cells {empty}")
    rows = (f"{st.M},{st.batch_size},{st.mean_error:.17g},{st.std_error:.17g},{st.n}\r\n" for st in stats)
    _write_whole(out_dir / "norm_error.csv", ["M,Bs,mean_error,std_error,n\r\n", *rows])
    _write_meta(out_dir, "norm_error", cfg)


_ACCURACY_HEADER = b"arch,Bs,init_seed,data_seed,accuracy\r\n"


def _accuracy_row(key: bytes, accuracy: float) -> bytes:
    """The accuracy.csv line of `key` ("arch,Bs,init_seed,data_seed,")."""
    return key + f"{accuracy:.17g}\r\n".encode()


def _is_accuracy_row(line: bytes, key: bytes) -> bool:
    """Whether `line` is the line _accuracy_row writes for `key` and a finite accuracy."""
    try:
        accuracy = float(line[len(key):-2])
    except ValueError:
        return False
    return math.isfinite(accuracy) and line == _accuracy_row(key, accuracy)


def _resume(out_path: Path, keys: list[list[bytes]]) -> int:
    """How many leading cells accuracy.csv holds whole; keys[c] are cell c's row keys.

    compare writes the header, then each cell's rows at once in cell order, so
    an interrupted run leaves the header and a prefix of the rows an
    uninterrupted run writes. This keeps the header and the longest run of
    whole cells that match their keys, and cuts everything after them: a torn
    or stray line, a half cell, rows out of place. A file without the header
    is restarted from the header.
    """
    lines = out_path.read_bytes().splitlines(keepends=True) if out_path.exists() else []
    if lines[:1] != [_ACCURACY_HEADER]:
        out_path.write_bytes(_ACCURACY_HEADER)
        return 0
    rows, done, end = iter(lines[1:]), 0, len(_ACCURACY_HEADER)
    for cell_keys in keys:
        cell = [next(rows, b"") for _ in cell_keys]
        if not all(_is_accuracy_row(line, key) for line, key in zip(cell, cell_keys)):
            break
        done, end = done + 1, end + sum(map(len, cell))
    with open(out_path, "r+b") as fh:
        fh.truncate(end)
    return done


def cmd_compare(cfg: dict, out_dir: Path, workers: int) -> None:
    for bs in cfg["batch_sizes"]:
        _train_config(cfg, batch_size=bs)  # a rejected config fails before any output
    # the meta goes first, so a resume can tell which config the rows were made with
    meta_path, meta = out_dir / "compare_meta.json", _meta_text("compare", cfg)
    out_path = out_dir / "accuracy.csv"
    if meta_path.exists() and meta_path.read_text() != meta:
        raise ConfigError(f"{meta_path} records a different config; resume with that one or use a new --out")
    if not meta_path.exists() and out_path.exists() and out_path.stat().st_size:
        raise ConfigError(f"{out_path} has no compare_meta.json to tell its config; use a new --out")
    _write_whole(meta_path, [meta])
    cells = [(bs, i, d) for bs in cfg["batch_sizes"] for i in cfg["init_seeds"] for d in cfg["data_seeds"]]
    keys = [[f"{arch},{bs},{i},{d},".encode() for arch in train.ARCHITECTURES] for bs, i, d in cells]
    done = _resume(out_path, keys)
    cells, keys = cells[done:], keys[done:]
    workers = min(workers, len(cells))  # a fork-started pool starts all its workers at once
    parallel = workers > 1
    with open(out_path, "ab") as fh, (
        concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=pin_blas_threads)
        if parallel else contextlib.nullcontext()
    ) as pool:
        # both maps yield in cell order, so the output does not depend on workers
        results = (pool.map if parallel else map)(_compare_cell, [(cfg, *cell) for cell in cells])
        start = time.perf_counter()
        for k, ((bs, i, d), cell_keys, (accuracies, seconds)) in enumerate(zip(cells, keys, results), 1):
            fh.write(b"".join(map(_accuracy_row, cell_keys, accuracies)))
            fh.flush()
            eta = (time.perf_counter() - start) / k * (len(cells) - k)
            print(f"compare: cell {k}/{len(cells)} Bs={bs} init_seed={i} data_seed={d}:"
                  f" {seconds:.1f} s, ETA {eta:.0f} s", file=sys.stderr)


def _json_list(values) -> list:
    """values as nested lists of floats, with None (JSON null) for each non-finite entry."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isfinite(a), a, None).tolist()


def _run_doc(cfg: dict, loss_curve, points, accuracy: float, tx, rx) -> dict:
    """run.json's document (schema in the README): cmd_train writes it, and _load_run
    requires a file to equal it. Its config is the train command's effective config `cfg`,
    non-finite numbers render as null, and networks have nn's one layout. A diverged run, whose
    constellation is not finite, has a nan (null) accuracy; any other run one in [0, 1]."""
    n_steps, losses = _train_config(cfg).n_steps, np.asarray(loss_curve, dtype=float)
    if not (0 < len(losses) <= n_steps and np.isfinite(losses[:-1]).all()
            and (len(losses) == n_steps or not np.isfinite(losses[-1]))):
        raise ValueError(f"loss_curve must hold {n_steps} losses, or fewer ending in null,"
                         " all finite before the last")
    diverged = not np.isfinite(points).all()
    if not (math.isnan(accuracy) if diverged else 0 <= accuracy <= 1):
        raise ValueError(f"validation accuracy {accuracy!r} is not {'nan' if diverged else 'in [0, 1]'}")
    return {
        "config": cfg,
        "loss_curve": _json_list(losses),
        "constellation": _json_list(points),
        "validation_accuracy": _json_list(accuracy),
        **{name: {"weights": [_json_list(W) for W in mlp.weights], "biases": [_json_list(b) for b in mlp.biases]}
           for name, mlp in (("tx", tx), ("rx", rx))},
    }


def _json_pieces(doc: dict):
    """json.dumps(doc, sort_keys=True, allow_nan=False) + "\n" in pieces, one top-level key each,
    so no more than one key's text is held at a time."""
    yield "{"
    for k, key in enumerate(sorted(doc)):
        yield f"{', ' if k else ''}{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True, allow_nan=False)}"
    yield "}\n"


def cmd_train(cfg: dict, out_dir: Path, workers: int) -> None:
    result, accuracy = _train_and_score(_train_config(cfg), cfg)
    doc = _run_doc(cfg, result.loss_curve, result.constellation, accuracy, result.tx, result.rx)
    points = (f"{i},{re:.17g},{im:.17g}\n" for i, (re, im) in enumerate(result.constellation))
    _write_whole(out_dir / "run.json", _json_pieces(doc))
    _write_whole(out_dir / "constellation.csv", ["index,re,im\n", *points])
    _write_meta(out_dir, "train", cfg)


def _array(value, shape: tuple) -> np.ndarray:
    """A run.json array as floats of `shape`; null loads as nan, and the re-render refuses other non-numbers."""
    a = np.array(value, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected a {shape} array")
    return a


def _network(d, sizes: list[int]) -> nn.Mlp:
    """run.json's network `d`, with the layer shapes nn.build_mlp(sizes) gives."""
    shapes = list(zip(sizes, sizes[1:]))
    return nn.Mlp([_array(W, shape) for W, shape in zip(d["weights"], shapes, strict=True)],
                  [_array(b, shape[1:]) for b, shape in zip(d["biases"], shapes, strict=True)])


def _same(a, b) -> bool:
    """Whether JSON values a and b are equal in value and type (1, 1.0 and true differ)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if not isinstance(a, list):
        return a == b
    if list(map(type, a)) != list(map(type, b)):  # item types and lengths; == is then exact on scalars
        return False
    return all(map(_same, a, b)) if a and isinstance(a[0], (list, dict)) else a == b


def _load_run(path: Path) -> tuple[train.TrainConfig, np.ndarray, nn.Mlp]:
    """The config, constellation and receiver of a run.json, which must equal, as JSON values,
    _run_doc of the values parsed from it and of the constellation recomputed from tx. A file
    that fails is a ConfigError that names it; a null (nan) in the stored constellation or a
    network, a diverged run, is a RuntimeError."""
    doc = _read_json(path, "run")
    try:
        cfg = _check(doc["config"], TRAIN_SCHEMA)  # a key it fills in differs from the re-render
        config = _train_config(cfg)
        tx = _network(doc["tx"], [config.M, *config.tx_hidden, 2])
        rx = _network(doc["rx"], [2, *config.rx_hidden, config.M])
        stored = _array(doc["constellation"], (config.M, 2))
        losses = _array(doc["loss_curve"], (len(doc["loss_curve"]),))
        if not all(np.isfinite(a).all() for a in (stored, *tx.param_list(), *rx.param_list())):
            raise RuntimeError(f"{path}: the constellation or a network is not finite (a diverged run)")
        points = train.constellation(tx, config.power)
        expected = _run_doc(cfg, losses, points, float(doc["validation_accuracy"]), tx, rx)
        differ = sorted(key for key in expected.keys() | doc.keys()
                        if not _same(expected.get(key, _REQUIRED), doc.get(key, _REQUIRED)))
        if differ:
            raise ValueError(f"keys {differ} differ from what train writes for this config and these networks")
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (ConfigError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config, points, rx


def cmd_ser(cfg: dict, out_dir: Path, workers: int) -> None:
    config, points, rx = _load_run(Path(cfg["run_json"]))
    with _config_errors():  # an SNR whose noise variance under- or overflows
        for snr_db in cfg["snr_db_list"]:
            comm.sigma2_from_snr(config.power, snr_db)
    rng = np.random.default_rng(cfg["seed"])
    rows = metrics.ser_sweep(points, rx, cfg["snr_db_list"], cfg["n_symbols"], rng, config.power)
    lines = (f"{snr_db:.17g},{ser:.17g},{lo:.17g},{hi:.17g}\r\n" for snr_db, ser, lo, hi in rows)
    _write_whole(out_dir / "ser.csv", ["snr_db,ser,ci_lo,ci_hi\r\n", *lines])
    _write_meta(out_dir, "ser", cfg)


_COMMANDS = {
    "norm-error": (NORM_ERROR_SCHEMA, cmd_norm_error),
    "compare": (COMPARE_SCHEMA, cmd_compare),
    "train": (TRAIN_SCHEMA, cmd_train),
    "ser": (SER_SCHEMA, cmd_ser),
}


def _positive_int(text: str) -> int:
    value = int(text)  # argparse turns a ValueError into a usage error (exit 2)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aecomm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--workers", type=_positive_int, default=len(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return parser


def main(argv: list[str] | None = None) -> int:
    pin_blas_threads()
    args = build_parser().parse_args(argv)
    schema, fn = _COMMANDS[args.command]
    try:
        cfg = _check(_read_json(args.config, "config"), schema)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # innermost first
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one
            raise ConfigError(f"cannot create --out {out_dir}: {exc.strerror}") from exc
        fn(cfg, out_dir, args.workers)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a rejected config writes nothing, so remove the directories this call made
        with contextlib.suppress(OSError):
            for d in created:
                d.rmdir()
        return 2
    except Exception as exc:  # noqa: BLE001 - contract maps failures to exit 1
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

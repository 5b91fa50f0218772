import concurrent.futures
import copy
import ctypes
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from aecomm import cli, metrics, train
from helpers import load_constellation_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def interrupted_compare(full_dir, part_dir, accuracy: bytes):
    """A copy of a finished compare's --out whose accuracy.csv holds `accuracy`,
    as a run interrupted after it had written its meta leaves it."""
    part_dir.mkdir()
    shutil.copy(full_dir / "compare_meta.json", part_dir)
    (part_dir / "accuracy.csv").write_bytes(accuracy)
    return part_dir


TRAIN_SMOKE = {
    "M": 4,
    "batch_size": 64,
    "architecture": "proposed",
    "data_budget": 25600,
    "tx_hidden": [32],
    "rx_hidden": [32],
    "val_batches": 10,
    "val_batch_size": 500,
}

# a huge learning rate overflows the weights within a few steps
TRAIN_DIVERGED = {**TRAIN_SMOKE, "batch_size": 8, "data_budget": 80, "lr": 1e100,
                  "val_batches": 1, "val_batch_size": 10}

COMPARE_SMOKE = {
    "M": 4,
    "batch_sizes": [8, 16],
    "init_seeds": [0],
    "data_seeds": [100],
    "data_budget": 1600,
    "tx_hidden": [16],
    "rx_hidden": [16],
    "val_batches": 3,
    "val_batch_size": 100,
}


class TestConfigValidation:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"M": 4, "bogus": 1})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        # noise_seed is no key: the noise stream is data_seed's spawned child
        for command, payload in (("train", {"noise_seed": 0}), ("compare", {**COMPARE_SMOKE, "noise_seed": 100})):
            cfg = write_config(tmp_path, f"{command}.json", payload)
            out = tmp_path / command
            assert cli.main([command, "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
            assert capsys.readouterr().err.splitlines()[-1] == "error: unknown config keys: ['noise_seed']"
            assert not out.exists()

    def test_bad_value_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"architecture": "magic"})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        # outside inputs that reach a rejection in _check, TrainConfig or comm, and its message;
        # the empty lists, zero widths and zero n_symbols never reach norm_error_experiment,
        # glorot_init or wilson_interval, which have no guard of their own
        for k, (command, payload, message) in enumerate([
            ("train", [], "config must be a JSON object"),
            ("train", 1, "config must be a JSON object"),
            ("norm-error", {"eb": "1"}, "invalid value for 'eb': '1'"),
            ("ser", {"run_json": "run.json", "snr_db_list": ["0"]}, "invalid value for 'snr_db_list': ['0']"),
            ("train", {"batch_size": 0}, "batch_size must be >= 1"),
            ("train", {"batch_size": -1}, "batch_size must be >= 1"),
            ("compare", {"batch_sizes": [0]}, "batch_size must be >= 1"),
            ("train", {"power": 0}, "power must be positive"),
            ("train", {"init_seed": -1}, "seeds must be >= 0"),
            ("train", {"tx_hidden": [0]}, "hidden layer sizes must be >= 1"),
            ("train", {"rx_hidden": [0]}, "hidden layer sizes must be >= 1"),
            ("norm-error", {"M_list": []}, "invalid value for 'M_list': []"),
            ("norm-error", {"batch_sizes": []}, "invalid value for 'batch_sizes': []"),
            ("norm-error", {"tx_hidden": [0]}, "invalid value for 'tx_hidden': [0]"),
            ("ser", {"run_json": "run.json", "n_symbols": 0}, "invalid value for 'n_symbols': 0"),
        ]):
            cfg = write_config(tmp_path, f"c{k}.json", payload)
            out = tmp_path / f"o{k}"
            capsys.readouterr()
            assert cli.main([command, "--config", cfg, "--out", str(out), "--workers", "1"]) == 2, payload
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_missing_required_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {})
        assert cli.main(["ser", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [("train", {"M": 6}), ("train", {"M": 100}), ("train", {"M": 1}),
         ("compare", {"M": 12}), ("norm-error", {"M_list": [4, 6]})],
    )
    def test_non_power_of_2_alphabet_exits_2(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, "c.json", payload)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command, payload",
        [("train", {"snr_db": float("nan")}), ("train", {"lr": float("inf")}),
         ("compare", {"snr_db": float("-inf")}), ("norm-error", {"eb": float("nan")}),
         ("train", {"snr_db": 10**400}), ("norm-error", {"eb": 10**400}),
         ("train", {"power": float("nan")}), ("train", {"power": 10**400}), ("train", {"lr": 10**400})],
    )
    def test_non_finite_number_exits_2(self, tmp_path, command, payload):
        # json.load reads the NaN/Infinity tokens that json.dumps writes here,
        # and a 401-digit int that no float can hold
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("eb", [0, -1])
    def test_nonpositive_energy_per_bit_exits_2(self, tmp_path, capsys, eb):
        cfg = write_config(tmp_path, "c.json", {"eb": eb})
        out = tmp_path / "o"
        assert cli.main(["norm-error", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: energy per bit must be positive\n"

    @pytest.mark.parametrize(
        "command, payload",
        [("train", {"M": 4, "batch_size": 64, "data_budget": 32}),
         ("compare", {**COMPARE_SMOKE, "batch_sizes": [8, 3200]})],
    )
    def test_zero_step_run_exits_2_before_output(self, tmp_path, command, payload):
        # a batch larger than the data budget would train zero steps
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        assert not out.exists()  # no run.json, accuracy.csv or meta, and no empty directory

    @pytest.mark.parametrize(
        "command, payload",
        [("train", {"snr_db": 4000}), ("train", {"snr_db": -4000}),
         ("compare", {**COMPARE_SMOKE, "snr_db": 4000}), ("compare", {**COMPARE_SMOKE, "snr_db": -4000}),
         ("norm-error", {"eb": 1e308, "M_list": [256]})],
    )
    def test_finite_value_whose_noise_or_power_overflows_exits_2(self, tmp_path, capsys, command, payload):
        # 10 ** (-snr_db / 10) leaves the positive floats, and 1e308 * log2(256) is inf
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, payload",
        [("compare", {**COMPARE_SMOKE, "batch_sizes": [16, 16]}),
         ("compare", {**COMPARE_SMOKE, "init_seeds": [0, 1, 0]}),
         ("compare", {**COMPARE_SMOKE, "data_seeds": [100, 100]}),
         ("norm-error", {"M_list": [4, 16, 4]}),
         ("norm-error", {"batch_sizes": [4, 8, 8]})],
    )
    def test_duplicate_list_entry_exits_2(self, tmp_path, capsys, command, payload):
        # a repeated batch size, seed or alphabet size would compute one cell twice
        cfg = write_config(tmp_path, "c.json", payload)
        out = tmp_path / "o"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--workers", "1"]) == 2
        assert not out.exists()
        (key,) = (k for k, v in payload.items() if isinstance(v, list) and len(set(v)) < len(v))
        assert capsys.readouterr().err.startswith(f"error: invalid value for {key!r}")

    def test_dead_transmitter_failure_names_the_run(self, tmp_path, capsys):
        # init_seed 25 gives this one-unit transmitter an all-zero output at init
        dead = {"M": 4, "tx_hidden": [1], "rx_hidden": [2], "data_budget": 640}
        cfg = write_config(tmp_path, "t.json", {**dead, "init_seed": 25})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == (
            "failure: proposed run at Bs=64, init_seed=25, data_seed=0, step 0:"
            " all-zero input cannot satisfy an average power constraint\n")
        assert not any((tmp_path / "t").iterdir())
        cfg = write_config(tmp_path, "c.json", {**dead, "batch_sizes": [64], "init_seeds": [24, 25, 26],
                                                "data_seeds": [1]})
        assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "c"), "--workers", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("compare: cell 1/3 Bs=64 init_seed=24 data_seed=1: ")
        assert err[1:] == ["failure: baseline run at Bs=64, init_seed=25, data_seed=1, step 0:"
                           " all-zero input cannot satisfy an average power constraint"]
        assert len((tmp_path / "c" / "accuracy.csv").read_text().splitlines()) == 1 + 2  # cell 1 only

    def test_diverged_run_failure_names_the_run(self, tmp_path, capsys):
        # at lr 1e100, init_seed 5's runs end with a finite constellation and init_seed 6's
        # proposed run diverges at step 1; a diverged run has no accuracy to write
        cfg = write_config(tmp_path, "c.json", {"M": 4, "tx_hidden": [1], "rx_hidden": [2], "data_budget": 640,
                                                "lr": 1e100, "batch_sizes": [64], "init_seeds": [5, 6, 7],
                                                "data_seeds": [1]})
        with np.errstate(all="ignore"):
            assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "c"), "--workers", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("compare: cell 1/3 Bs=64 init_seed=5 data_seed=1: ")
        assert err[1:] == ["failure: proposed run at Bs=64, init_seed=6, data_seed=1, step 1:"
                           " diverged, no finite constellation"]
        assert len((tmp_path / "c" / "accuracy.csv").read_text().splitlines()) == 1 + 2  # cell 1 only

    def test_rejected_config_removes_only_the_directories_it_made(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"architecture": "magic"})
        out = tmp_path / "new" / "deeper" / "o"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()
        existing = tmp_path / "kept"
        existing.mkdir()
        assert cli.main(["train", "--config", cfg, "--out", str(existing)]) == 2
        assert existing.is_dir()

    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys):
        # an existing file, or a path under one, cannot be made a directory
        cfg = write_config(tmp_path, "ne.json", NORM_ERROR_TINY)
        blocker = tmp_path / "file"
        blocker.write_bytes(b"kept\n")
        for out in (blocker, blocker / "sub"):
            assert cli.main(["norm-error", "--config", cfg, "--out", str(out)]) == 2
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: cannot create --out {out}: ")
            assert blocker.read_bytes() == b"kept\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "ne.json"]

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # a well-formed config whose run file holds a non-finite point fails while
        # running: finiteness is tested before the constellation is recomputed
        tcfg = write_config(tmp_path, "t.json", {**TRAIN_SMOKE, "data_budget": 640})
        assert cli.main(["train", "--config", tcfg, "--out", str(tmp_path / "run")]) == 0
        doc = json.loads((tmp_path / "run" / "run.json").read_text())
        doc["constellation"][1][0] = None
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        scfg = write_config(tmp_path, "s.json", {"run_json": str(tmp_path / "broken.json")})
        assert cli.main(["ser", "--config", scfg, "--out", str(tmp_path / "o")]) == 1
        assert "failure" in capsys.readouterr().err


class TestConsoleScript:
    def test_ci_console_script_passes(self, tmp_path):
        # CI runs ci/console_script.sh against the installed aecomm entry point;
        # here an aecomm on PATH runs this checkout's cli, so the script's
        # commands and checks run with tier-1
        repo = Path(__file__).resolve().parents[1]
        shims, work = tmp_path / "bin", tmp_path / "work"
        shims.mkdir()
        work.mkdir()
        for name, args in (("aecomm", "-m aecomm.cli "), ("python", "")):
            (shims / name).write_text(f'#!/bin/sh\nexec "{sys.executable}" {args}"$@"\n')
            (shims / name).chmod(0o755)
        env = {**os.environ, "PATH": f"{shims}{os.pathsep}{os.environ['PATH']}",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(["bash", str(repo / "ci" / "console_script.sh")], cwd=work, env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout + done.stderr


NORM_ERROR_TINY = {"M_list": [4], "batch_sizes": [4], "n_inits": 1, "n_batches": 2, "tx_hidden": [4]}


class TestBlasPin:
    def test_main_leaves_openblas_on_one_thread(self, tmp_path):
        set_threads = cli._openblas_function("set_num_threads")
        get_threads = cli._openblas_function("get_num_threads")
        if get_threads is None:
            pytest.skip("no OpenBLAS loaded")
        get_threads.restype, get_threads.argtypes = ctypes.c_int, []
        cfg = write_config(tmp_path, "ne.json", NORM_ERROR_TINY)
        set_threads(2)
        try:
            assert cli.main(["norm-error", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
            assert get_threads() == 1
        finally:
            cli.pin_blas_threads()

    def test_library_path_with_a_space(self, tmp_path, monkeypatch):
        # /proc/self/maps ends a line with the path, which may hold spaces, or with nothing
        # (an anonymous map); a library marked "(deleted)" cannot be loaded and is skipped
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()})
        libs = [p for p in libs if os.path.isfile(p)]
        if not libs:
            pytest.skip("no OpenBLAS loaded")
        (tmp_path / "with space").mkdir()
        link = tmp_path / "with space" / os.path.basename(libs[0])
        link.symlink_to(libs[0])
        maps = (f"7f0000000000-7f0000001000 r-xp 00000000 08:01 1234       {link}\n"
                "7f0000002000-7f0000003000 rw-p 00000000 00:00 0 \n"
                "7f0000004000-7f0000005000 r-xp 00000000 08:01 999        /gone/libopenblas.so (deleted)\n")
        monkeypatch.setattr(cli, "open", lambda path, *a: io.StringIO(maps) if path == "/proc/self/maps"
                            else open(path, *a), raising=False)
        get_threads = cli._openblas_function("get_num_threads")
        assert get_threads is not None
        get_threads.restype, get_threads.argtypes = ctypes.c_int, []
        assert get_threads() == 1  # the library the session pinned

    def test_no_openblas_found_still_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_function", lambda name: None)
        cfg = write_config(tmp_path, "ne.json", NORM_ERROR_TINY)
        assert cli.main(["norm-error", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        assert "no OpenBLAS found" in line
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["norm_error.csv", "norm_error_meta.json"]


class TestNormErrorCommand:
    def test_minimal_config_one_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "ne.json",
            {"M_list": [4], "batch_sizes": [8], "n_inits": 1, "n_batches": 1, "tx_hidden": [10]},
        )
        assert cli.main(["norm-error", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "norm_error.csv").read_text().splitlines()
        assert lines[0] == "M,Bs,mean_error,std_error,n"
        assert len(lines) == 2

    def test_dead_transmitters_excluded_and_reported(self, tmp_path, capsys):
        # a one-unit hidden layer: at seed 2 one of the 30 transmitters has an
        # all-zero alphabet output, and 33 batches of the others are all zero
        cfg = write_config(
            tmp_path,
            "ne.json",
            {"M_list": [4], "batch_sizes": [4], "tx_hidden": [1], "n_batches": 10, "seed": 2},
        )
        assert cli.main(["norm-error", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "norm_error.csv").read_text().splitlines()
        assert rows[0] == "M,Bs,mean_error,std_error,n"
        M, bs, mean, stderr, n = rows[1].split(",")
        assert np.isfinite(float(mean)) and np.isfinite(float(stderr))
        assert int(n) == 29 * 10 - 33
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "norm-error: M=4 Bs=4: excluded 1 of 30 transmitters (all-zero output)"
            " and 33 all-zero batches; averaged 257 batches"
        ]

    def test_cell_with_nothing_left_exits_1_without_csv(self, tmp_path, capsys):
        # seed 25's only transmitter has an all-zero alphabet output
        cfg = write_config(
            tmp_path,
            "ne.json",
            {"M_list": [4], "batch_sizes": [4, 8], "n_inits": 1, "tx_hidden": [1], "n_batches": 10,
             "seed": 25},
        )
        assert cli.main(["norm-error", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o" / "norm_error.csv").exists()
        err = capsys.readouterr().err
        assert "M=4 Bs=4: excluded 1 of 1 transmitters" in err
        assert "failure: no batch left to average" in err

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "ne.json",
            {"M_list": [4, 16], "batch_sizes": [4, 16], "n_inits": 2, "n_batches": 20, "tx_hidden": [10]},
        )
        cli.main(["norm-error", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["norm-error", "--config", cfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "norm_error.csv").read_bytes() == (
            tmp_path / "b" / "norm_error.csv"
        ).read_bytes()


class TestTrainCommand:
    def test_smoke_run_perfect_accuracy(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", TRAIN_SMOKE)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        doc = json.loads((tmp_path / "o" / "run.json").read_text())
        assert doc["validation_accuracy"] == 1.0
        assert len(doc["loss_curve"]) == 25600 // 64
        assert sorted(doc) == ["config", "constellation", "loss_curve", "rx", "tx", "validation_accuracy"]
        # the effective train config
        assert doc["config"] == cli._check(TRAIN_SMOKE, cli.TRAIN_SCHEMA)

    def test_exported_constellation_power(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", TRAIN_SMOKE)
        cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        points = load_constellation_csv(tmp_path / "o" / "constellation.csv")
        assert np.mean(np.sum(points * points, axis=1)) == pytest.approx(1.0, rel=1e-9)
        # the CSV, whose index,re,im header load_constellation_csv requires,
        # holds run.json's constellation bit for bit
        doc = json.loads((tmp_path / "o" / "run.json").read_text())
        assert np.array_equal(points, np.array(doc["constellation"]))

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", TRAIN_SMOKE)
        cli.main(["train", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["train", "--config", cfg, "--out", str(tmp_path / "b")])
        for name in ("run.json", "constellation.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_diverged_run_writes_strict_json(self, tmp_path):
        # the non-finite loss, constellation and weights become null
        cfg = write_config(tmp_path, "t.json", TRAIN_DIVERGED)
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        doc = json.loads((tmp_path / "o" / "run.json").read_text(), parse_constant=reject)
        assert len(doc["loss_curve"]) < 80 // 8  # n_steps
        assert doc["loss_curve"][-1] is None
        assert None in doc["constellation"][0]
        assert doc["validation_accuracy"] is None  # a diverged run has no score

    @pytest.mark.parametrize("payload", [{**TRAIN_SMOKE, "data_budget": 640}, TRAIN_DIVERGED])
    def test_run_json_equals_one_shot_rendering(self, tmp_path, monkeypatch, payload):
        # run.json is rendered one top-level key at a time; the file must equal the
        # whole document's one json.dumps, byte for byte, a diverged run's nulls included
        docs = []

        def capturing(*args):
            docs.append(run_doc(*args))
            return docs[-1]

        run_doc = cli._run_doc
        monkeypatch.setattr(cli, "_run_doc", capturing)
        cfg = write_config(tmp_path, "t.json", payload)
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        (doc,) = docs
        assert ((tmp_path / "o" / "run.json").read_text()
                == json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")
        assert (doc["validation_accuracy"] is None) == (payload is TRAIN_DIVERGED)

    def test_serialization_roundtrip(self, tmp_path):
        # ser's reader loads the constellation and receiver train_run returns, bit for bit
        for arch in train.ARCHITECTURES:
            payload = {**TRAIN_SMOKE, "data_budget": 640, "power": 2.5, "architecture": arch}
            cfg = write_config(tmp_path, f"{arch}.json", payload)
            assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / arch)]) == 0
            config, points, rx = cli._load_run(tmp_path / arch / "run.json")
            trained_config = cli._train_config(payload)
            result = train.train_run(trained_config)
            assert config == trained_config
            assert np.array_equal(points, result.constellation)
            for loaded, trained in zip(rx.param_list(), result.rx.param_list(), strict=True):
                assert np.array_equal(loaded, trained)

    def test_writes_meta(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", {**TRAIN_SMOKE, "data_budget": 640})
        for out in ("a", "b"):
            assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        meta = (tmp_path / "a" / "train_meta.json").read_bytes()
        assert meta == (tmp_path / "b" / "train_meta.json").read_bytes()
        doc = json.loads(meta)
        assert doc["command"] == "train"
        assert doc["config"]["data_budget"] == 640
        assert doc["config"]["architecture"] == "proposed"  # defaults are echoed too


class TestCompareCommand:
    def test_rows_and_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "a"), "--workers", "1"]) == 0
        lines = (tmp_path / "a" / "accuracy.csv").read_text().splitlines()
        assert lines[0] == "arch,Bs,init_seed,data_seed,accuracy"
        assert len(lines) == 1 + 2 * 2  # two batch sizes x two architectures
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "b"), "--workers", "1"])
        assert (tmp_path / "a" / "accuracy.csv").read_bytes() == (
            tmp_path / "b" / "accuracy.csv"
        ).read_bytes()

    def test_workers_match_serial(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "a"), "--workers", "1"])
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "b"), "--workers", "2"])
        assert (tmp_path / "a" / "accuracy.csv").read_bytes() == (
            tmp_path / "b" / "accuracy.csv"
        ).read_bytes()

    def test_resume_from_partial(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "full"), "--workers", "1"])
        full = (tmp_path / "full" / "accuracy.csv").read_bytes()
        # keep header plus the first completed pair, then resume
        partial_dir = interrupted_compare(tmp_path / "full", tmp_path / "part",
                                          b"".join(full.splitlines(keepends=True)[:3]))
        cli.main(["compare", "--config", cfg, "--out", str(partial_dir), "--workers", "1"])
        assert (partial_dir / "accuracy.csv").read_bytes() == full

    @pytest.mark.parametrize("keep_rows, torn_chars", [(2, 20), (3, 20), (2, 3), (0, 10)])
    def test_resume_after_torn_last_line(self, tmp_path, keep_rows, torn_chars):
        # a run cut off mid-write leaves a last line without its newline, maybe
        # after the baseline row of an unfinished cell; resuming must still
        # reproduce the uninterrupted file
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "full"), "--workers", "1"])
        full = (tmp_path / "full" / "accuracy.csv").read_bytes()
        lines = full.splitlines(keepends=True)
        torn = b"".join(lines[: 1 + keep_rows]) + lines[1 + keep_rows][:torn_chars]
        partial_dir = interrupted_compare(tmp_path / "full", tmp_path / "part", torn)
        assert cli.main(["compare", "--config", cfg, "--out", str(partial_dir), "--workers", "1"]) == 0
        assert (partial_dir / "accuracy.csv").read_bytes() == full

    @pytest.mark.parametrize("damage", ["garbage_between_rows", "cells_out_of_order", "not_the_header",
                                        "nan_accuracy"])
    def test_resume_cuts_lines_an_uninterrupted_run_does_not_write(self, tmp_path, damage):
        # a line that an uninterrupted run does not write at its place (a stray
        # line, rows out of order, a wrong header, a NaN accuracy) is cut, with
        # everything after it, and the cut cells are trained again
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "full"), "--workers", "1"])
        full = (tmp_path / "full" / "accuracy.csv").read_bytes()
        header, *rows = full.splitlines(keepends=True)
        damaged = {
            "garbage_between_rows": [header, *rows[:2], b"garbage\r\n", *rows[2:]],
            "cells_out_of_order": [header, *rows[2:], *rows[:2]],
            "not_the_header": [b"not,the,header\r\n", *rows],
            "nan_accuracy": [header, rows[0].rsplit(b",", 1)[0] + b",nan\r\n", rows[1]],
        }[damage]
        partial_dir = interrupted_compare(tmp_path / "full", tmp_path / "part", b"".join(damaged))
        assert cli.main(["compare", "--config", cfg, "--out", str(partial_dir), "--workers", "1"]) == 0
        assert (partial_dir / "accuracy.csv").read_bytes() == full

    def test_resume_with_different_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        assert cli.main(["compare", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        before = {name: (out / name).read_bytes() for name in ("accuracy.csv", "compare_meta.json")}
        other = write_config(tmp_path, "m8.json", {**COMPARE_SMOKE, "M": 8})
        assert cli.main(["compare", "--config", other, "--out", str(out), "--workers", "1"]) == 2
        assert "different config" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_resume_without_meta_exits_2(self, tmp_path, capsys):
        # rows whose config no meta records are refused, not resumed against
        # another config whose keys match (here another lr)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        assert cli.main(["compare", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["accuracy.csv", "compare_meta.json"]
        (out / "compare_meta.json").unlink()
        before = (out / "accuracy.csv").read_bytes()
        capsys.readouterr()
        other = write_config(tmp_path, "lr.json", {**COMPARE_SMOKE, "lr": 0.5})
        assert cli.main(["compare", "--config", other, "--out", str(out), "--workers", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out / 'accuracy.csv'} has no compare_meta.json")
        assert [p.name for p in out.iterdir()] == ["accuracy.csv"]
        assert (out / "accuracy.csv").read_bytes() == before

    def test_progress_lines_count_remaining_cells(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "full"), "--workers", "1"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("compare: cell 1/2 Bs=8 init_seed=0 data_seed=100: ")
        assert lines[1].startswith("compare: cell 2/2 Bs=16 init_seed=0 data_seed=100: ")
        assert lines[1].endswith(" s, ETA 0 s")
        full = (tmp_path / "full" / "accuracy.csv").read_bytes()
        # resumed after the first cell: only the remaining one is counted
        part = interrupted_compare(tmp_path / "full", tmp_path / "part",
                                   b"".join(full.splitlines(keepends=True)[:3]))
        assert cli.main(["compare", "--config", cfg, "--out", str(part), "--workers", "1"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("compare: cell 1/1 Bs=16 init_seed=0 data_seed=100: ")
        assert (part / "accuracy.csv").read_bytes() == full
        assert cli.main(["compare", "--config", cfg, "--out", str(part), "--workers", "1"]) == 0
        assert capsys.readouterr().err == ""

    def test_pool_no_wider_than_its_cells(self, tmp_path, monkeypatch):
        # a fork-started pool starts all max_workers processes at its first submit
        widths = []

        class InProcessPool:
            def __init__(self, max_workers, initializer=None):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        assert cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "two"), "--workers", "8"]) == 0
        assert widths == [2]
        one = write_config(tmp_path, "one.json", {**COMPARE_SMOKE, "batch_sizes": [8]})
        assert cli.main(["compare", "--config", one, "--out", str(tmp_path / "one"), "--workers", "8"]) == 0
        assert widths == [2]  # one cell trains serially, with no pool
        assert (tmp_path / "two" / "accuracy.csv").read_bytes().startswith(
            (tmp_path / "one" / "accuracy.csv").read_bytes())

    def test_completed_output_untouched(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", COMPARE_SMOKE)
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "a"), "--workers", "1"])
        before = (tmp_path / "a" / "accuracy.csv").read_bytes()
        cli.main(["compare", "--config", cfg, "--out", str(tmp_path / "a"), "--workers", "1"])
        assert (tmp_path / "a" / "accuracy.csv").read_bytes() == before


def _corrupt_second_row(fn, row):
    """`fn` whose result's second item becomes row(item), a row no writer can format."""
    def wrapped(*args, **kwargs):
        rows = list(fn(*args, **kwargs))
        rows[1] = row(rows[1])
        return rows
    return wrapped


class TestWholeFiles:
    @pytest.mark.parametrize("command", ["train", "norm-error", "ser"])
    def test_failure_while_formatting_leaves_no_file(self, tmp_path, monkeypatch, capsys, command):
        # a command writes its data files whole, then its meta, and no temporary
        # file: a value that fails to format partway leaves the --out empty
        run = tmp_path / "run"
        tcfg = write_config(tmp_path, "t.json", {**TRAIN_SMOKE, "data_budget": 640})
        assert cli.main(["train", "--config", tcfg, "--out", str(run)]) == 0
        cfg, files, patch = {
            "train": (tcfg, ["constellation.csv", "run.json", "train_meta.json"],
                      ("validation_accuracy", lambda fn: lambda *args: math.nan)),
            "norm-error": (write_config(tmp_path, "ne.json", {**NORM_ERROR_TINY, "batch_sizes": [4, 8]}),
                           ["norm_error.csv", "norm_error_meta.json"],
                           ("norm_error_experiment", lambda fn: _corrupt_second_row(
                               fn, lambda st: dataclasses.replace(st, mean_error="x")))),
            "ser": (write_config(tmp_path, "s.json", {"run_json": str(run / "run.json"),
                                                      "snr_db_list": [0, 10], "n_symbols": 100}),
                    ["ser.csv", "ser_meta.json"],
                    ("ser_sweep", lambda fn: _corrupt_second_row(fn, lambda row: ("x", *row[1:])))),
        }[command]
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
        assert sorted(p.name for p in (tmp_path / "ok").iterdir()) == files
        name, wrap = patch
        monkeypatch.setattr(metrics, name, wrap(getattr(metrics, name)))
        capsys.readouterr()
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
        assert capsys.readouterr().err.startswith("failure: ")
        assert list((tmp_path / "bad").iterdir()) == []

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, capsys):
        # a directory named run.json in --out makes the rename onto it fail
        out = tmp_path / "o"
        (out / "run.json").mkdir(parents=True)
        tcfg = write_config(tmp_path, "t.json", {**TRAIN_SMOKE, "data_budget": 640})
        assert cli.main(["train", "--config", tcfg, "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("failure: ")
        assert [p.name for p in out.iterdir()] == ["run.json"]  # no run.json.tmp, constellation.csv or meta
        assert not any((out / "run.json").iterdir())

    def test_pieces_that_raise_midway_leave_the_old_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("old\n")

        def pieces():
            yield "{"
            raise RuntimeError("rendering failed")

        with pytest.raises(RuntimeError, match="rendering failed"):
            cli._write_whole(path, pieces())
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]  # no run.json.tmp
        assert path.read_text() == "old\n"


class TestSerCommand:
    def test_missing_run_json_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"run_json": str(tmp_path / "nope.json")})
        assert cli.main(["ser", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("snr_db", [4000, -4000])
    def test_snr_whose_noise_variance_overflows_exits_2(self, tmp_path, capsys, snr_db):
        tcfg = write_config(tmp_path, "t.json", {**TRAIN_SMOKE, "data_budget": 640})
        assert cli.main(["train", "--config", tcfg, "--out", str(tmp_path / "run")]) == 0
        scfg = write_config(tmp_path, "s.json", {
            "run_json": str(tmp_path / "run" / "run.json"), "snr_db_list": [0, snr_db], "n_symbols": 100,
        })
        out = tmp_path / "o"
        assert cli.main(["ser", "--config", scfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "noise variance" in capsys.readouterr().err

    def test_diverged_run_exits_1_without_csv(self, tmp_path, capsys):
        # its nulls load as nan, and argmax would decode nan logits as index 0
        tcfg = write_config(tmp_path, "t.json", TRAIN_DIVERGED)
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", tcfg, "--out", str(tmp_path / "run")]) == 0
        scfg = write_config(tmp_path, "s.json",
                            {"run_json": str(tmp_path / "run" / "run.json"), "n_symbols": 100})
        assert cli.main(["ser", "--config", scfg, "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o" / "ser.csv").exists()
        assert "failure:" in capsys.readouterr().err

    def test_sweep_on_trained_model(self, tmp_path):
        tcfg = write_config(tmp_path, "t.json", TRAIN_SMOKE)
        cli.main(["train", "--config", tcfg, "--out", str(tmp_path / "run")])
        scfg = write_config(
            tmp_path,
            "s.json",
            {
                "run_json": str(tmp_path / "run" / "run.json"),
                "snr_db_list": [0, 4, 8, 12, 16, 20],
                "n_symbols": 20000,
            },
        )
        assert cli.main(["ser", "--config", scfg, "--out", str(tmp_path / "o")]) == 0
        lines = (tmp_path / "o" / "ser.csv").read_text().splitlines()
        assert lines[0] == "snr_db,ser,ci_lo,ci_hi"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        # non-increasing within the CI width
        for a, b in zip(rows, rows[1:]):
            assert b[1] <= a[1] + (a[3] - a[2])

    def test_rerun_byte_identical(self, tmp_path):
        tcfg = write_config(tmp_path, "t.json", TRAIN_SMOKE)
        cli.main(["train", "--config", tcfg, "--out", str(tmp_path / "run")])
        scfg = write_config(
            tmp_path,
            "s.json",
            {"run_json": str(tmp_path / "run" / "run.json"), "n_symbols": 5000},
        )
        cli.main(["ser", "--config", scfg, "--out", str(tmp_path / "a")])
        cli.main(["ser", "--config", scfg, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "ser.csv").read_bytes() == (tmp_path / "b" / "ser.csv").read_bytes()


# a tiny M=4 run for ser's run check, and the ser config it is scored with
TRAIN_TINY = {"M": 4, "batch_size": 8, "data_budget": 800, "tx_hidden": [8], "rx_hidden": [8],
              "val_batches": 1, "val_batch_size": 100}
SER_TINY = {"snr_db_list": [0, 10], "n_symbols": 1000}


def ser_on(work_dir: Path, run_text: str):
    """ser's exit code on `run_text` as a run.json in work_dir, and its ser.csv bytes (None if absent)."""
    (work_dir / "run.json").write_text(run_text)
    cfg = write_config(work_dir, "s.json", {**SER_TINY, "run_json": str(work_dir / "run.json")})
    code = cli.main(["ser", "--config", cfg, "--out", str(work_dir / "o")])
    csv = work_dir / "o" / "ser.csv"
    return code, csv.read_bytes() if csv.exists() else None


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """The tiny run's run.json document, and the ser.csv bytes of the file train wrote."""
    base = tmp_path_factory.mktemp("tiny_run")
    tcfg = write_config(base, "t.json", TRAIN_TINY)
    assert cli.main(["train", "--config", tcfg, "--out", str(base / "run")]) == 0
    text = (base / "run" / "run.json").read_text()
    code, ser_csv = ser_on(base, text)
    assert code == 0
    return json.loads(text), ser_csv


# the arrays of the tiny run that ser reads: its constellation and both networks' layers
ARRAY_PATHS = [("constellation",)] + [(net, part, k) for net in ("tx", "rx")
                                      for part in ("weights", "biases") for k in range(2)]


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    at(doc, path[:-1])[path[-1]] = value


def previous_format(doc):
    """doc as train wrote it before run.json dropped its restated keys: Adam's constants in the
    config and the val_* keys in a validation object, steps_taken, diverged_at and activations."""
    cfg = doc["config"]
    return {
        **doc,
        "config": {**{k: v for k, v in cfg.items() if not k.startswith("val_")},
                   "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8},
        "steps_taken": len(doc["loss_curve"]),
        "diverged_at": None,
        "validation": {"n_batches": cfg["val_batches"], "batch_size": cfg["val_batch_size"],
                       "seed": cfg["val_seed"]},
        **{net: {**doc[net], "activations": ["relu"] * (len(doc[net]["weights"]) - 1) + ["linear"]}
           for net in ("tx", "rx")},
    }


# edits of the tiny run, each to a value train cannot have written: (path, new value of the old),
# with the empty path for the whole document
RUN_EDITS = {
    "8 points": (("constellation",), lambda v: v + v),
    "2 points": (("constellation",), lambda v: v[:2]),
    "power 100": (("config", "power"), lambda v: 100),
    "loss_curve x": (("loss_curve",), lambda v: "x"),
    "loss_curve item x": (("loss_curve",), lambda v: ["x", *v[1:]]),
    "loss_curve one short": (("loss_curve",), lambda v: v[:-1]),
    "validation_accuracy y": (("validation_accuracy",), lambda v: "y"),
    "validation_accuracy nan": (("validation_accuracy",), lambda v: math.nan),
    # the tiny run scores 1.0, which float() reads from both; JSON types must still match
    "validation_accuracy int": (("validation_accuracy",), lambda v: 1),
    "validation_accuracy true": (("validation_accuracy",), lambda v: True),
    "validation extra key": (("config",), lambda v: {**v, "val_extra": 1}),
    "validation no seed": (("config",), lambda v: {k: x for k, x in v.items() if k != "val_seed"}),
    "validation batch_size 0": (("config", "val_batch_size"), lambda v: 0),
    "validation n_batches true": (("config", "val_batches"), lambda v: True),
    "validation seed -1": (("config", "val_seed"), lambda v: -1),
    "loss_curve null inside": (("loss_curve",), lambda v: [v[0], None, *v[2:]]),
    "validation_accuracy 5": (("validation_accuracy",), lambda v: 5.0),
    "validation_accuracy -1": (("validation_accuracy",), lambda v: -1.0),
    # a naive round trip through numpy arrays lets these three through
    "loss_curve nested": (("loss_curve",), lambda v: [[x] for x in v]),
    "loss_curve wrapped": (("loss_curve",), lambda v: [v]),
    "loss_curve true": (("loss_curve",), lambda v: [True, *v[1:]]),
    # a finite run holds all n_steps losses, and Adam's constants are no config keys
    "loss_curve cut to 3": (("loss_curve",), lambda v: v[:3]),
    "loss_curve empty": (("loss_curve",), lambda v: []),
    "config beta1 0.5": (("config",), lambda v: {**v, "beta1": 0.5}),
    # train wrote noise_seed, equal to data_seed, before the noise became data_seed's spawned child
    "config noise_seed": (("config",), lambda v: {**v, "noise_seed": v["data_seed"]}),
    "previous format": ((), previous_format),
}


class TestSerRunCheck:
    """ser scores only a run.json that train can have written; anything else exits 2."""

    def test_intact_file_keeps_its_bytes(self, tiny_run, tmp_path):
        # the file must equal train's document as JSON values, not as text
        doc, ser_csv = tiny_run
        for k, text in enumerate([json.dumps(doc), json.dumps(doc, indent=2),
                                  json.dumps(dict(reversed(doc.items())))]):
            (tmp_path / str(k)).mkdir()
            assert ser_on(tmp_path / str(k), text) == (0, ser_csv)

    @pytest.mark.parametrize("edit", [*RUN_EDITS, "no rx", "not JSON"])
    def test_edited_run_exits_2(self, tiny_run, tmp_path, capsys, edit):
        # every edit of RUN_EDITS once wrote a ser.csv with exit 0, and a run
        # without rx failed with exit 1
        doc = copy.deepcopy(tiny_run[0])
        if edit == "no rx":
            del doc["rx"]
        elif edit in RUN_EDITS:
            path, change = RUN_EDITS[edit]
            if path:
                put(doc, path, change(at(doc, path)))
            else:
                doc = change(doc)
        text = "{" if edit == "not JSON" else json.dumps(doc)
        capsys.readouterr()
        assert ser_on(tmp_path, text) == (2, None)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "run.json") in err
        assert not (tmp_path / "o").exists()

    def test_run_doc_refuses_loss_curves_train_cannot_write(self):
        # n_steps losses, or fewer ending non-finite, all finite before the last
        cfg = cli._check(TRAIN_TINY, cli.TRAIN_SCHEMA)
        config = cli._train_config(cfg)
        tx, rx = train.init_model(config)
        points, n = train.constellation(tx, config.power), config.n_steps
        for losses in ([1.0] * n, [1.0, math.nan], [1.0] * (n - 1) + [math.inf]):
            assert cli._run_doc(cfg, losses, points, 0.5, tx, rx)["loss_curve"][:-1] == losses[:-1]
        for losses in ([1.0] * (n + 1), [1.0, math.nan, *[1.0] * (n - 2)], [1.0] * (n - 1), []):
            with pytest.raises(ValueError, match="loss_curve"):
                cli._run_doc(cfg, losses, points, 0.5, tx, rx)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutant_exits_2_without_csv(self, tiny_run, data):
        # mutants of what ser reads: a key dropped, an array reshaped, a point
        # nudged by one ulp, rows permuted, or another power (a weight nudged by
        # one ulp can round away in the forward pass, so nudges go to the points)
        doc = copy.deepcopy(tiny_run[0])
        kind = data.draw(st.sampled_from(["drop", "reshape", "nudge", "permute", "power"]))
        if kind == "drop":
            parent = data.draw(st.sampled_from([(), ("config",), ("tx",), ("rx",)]))
            del at(doc, parent)[data.draw(st.sampled_from(sorted(at(doc, parent))))]
        elif kind == "reshape":
            path = data.draw(st.sampled_from(ARRAY_PATHS))
            a = np.array(at(doc, path))
            a = data.draw(st.sampled_from([a.ravel() if a.ndim == 2 else a[None], a[:-1],
                                           np.concatenate([a, a[-1:]])]))
            put(doc, path, a.tolist())
        elif kind == "nudge":
            row, col = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 1))
            toward = data.draw(st.sampled_from([-math.inf, math.inf]))
            doc["constellation"][row][col] = float(np.nextafter(doc["constellation"][row][col], toward))
        elif kind == "permute":
            path = data.draw(st.sampled_from([("constellation",), ("tx", "weights", 0)]))
            order = data.draw(st.permutations(range(4)))
            assume(order != list(range(4)))
            put(doc, path, [at(doc, path)[i] for i in order])
        else:
            doc["config"]["power"] = data.draw(st.sampled_from([0.5, 2, 2.5, 100.0]))
        with tempfile.TemporaryDirectory() as work:
            assert ser_on(Path(work), json.dumps(doc)) == (2, None)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_run_train_writes_loads(self, data):
        # ser reads every finite run of train back with the config train ran,
        # and fails every other run (a diverged one) with exit 1
        batch_size = data.draw(st.integers(1, 8))
        payload = data.draw(st.fixed_dictionaries({
            "M": st.sampled_from([2, 4, 8]),
            "batch_size": st.just(batch_size),
            "data_budget": st.integers(batch_size, 12 * batch_size),
            "tx_hidden": st.lists(st.integers(2, 8), min_size=1, max_size=2),
            "rx_hidden": st.lists(st.integers(2, 8), min_size=1, max_size=2),
            "power": st.one_of(st.integers(1, 3), st.floats(0.25, 4)),
            "lr": st.sampled_from([0.008, 0.1, 1e100]),
            "init_seed": st.integers(0, 9),
        }, optional={
            "val_batches": st.integers(1, 2),
            "val_batch_size": st.integers(1, 50),
            "val_seed": st.integers(0, 9),
        }))
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            cfg = write_config(work, "t.json", payload)
            with np.errstate(all="ignore"):  # a diverging lr overflows
                code = cli.main(["train", "--config", cfg, "--out", str(work / "run")])
                assume(code == 0)  # not a run whose transmitter outputs all zeros
                text = (work / "run" / "run.json").read_text()
                finite = "null" not in text  # train writes null only for a non-finite number
                event("finite run" if finite else "diverged run")
                if finite:
                    config, _, _ = cli._load_run(work / "run" / "run.json")
                    assert config == cli._train_config(payload)
                else:
                    assert ser_on(work, text) == (1, None)

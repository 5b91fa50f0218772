"""aecomm benchmark: drives the `aecomm` CLI in-process and checks its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload train_bs16 --seed 1 --seconds 30 --trace 0

Every operation is a `cli.main(argv)` call on a config generated from the
workload seed. After setting up, the run starts operations until the next one
would likely end past `--seconds` (at least one always runs).

`--trace 0` prints the end-to-end metrics. `--trace 1` runs every operation
twice, untraced and under `tracer.Tracer`, checks that both write identical
bytes, and prints the per-layer metrics. Human-readable lines come first; the
last line of stdout is the JSON result. A full record of the run (machine
facts, every operation, and the spans of a traced run) is written under
`.perfbench_out/` in the repository root.

Every command runs with `--workers 1`. The BLAS library runs with its default
thread count, as users run it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
ARCHS = ("baseline", "proposed")

# Paper scale: the keys compare would otherwise take from its defaults.
PAPER_SCALE = {
    "M": 128, "snr_db": 45.0, "power": 1.0, "tx_hidden": [100, 100], "rx_hidden": [100, 100],
    "lr": 0.008, "data_budget": 76800, "val_batches": 30, "val_batch_size": 1000, "val_seed": 0,
}
# The norm-error and ser default configs, pinned so the workload cannot drift.
NORM_ERROR = {
    "M_list": [4, 16, 64, 256], "batch_sizes": [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048],
    "n_inits": 30, "n_batches": 1000, "eb": 1.0, "tx_hidden": [60, 60],
}
SER = {"snr_db_list": [0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20], "n_symbols": 100000}
WARMUP_STEPS = 50
SETUP_REPS = 3
WORKERS = 1

# Why each workload exists is recorded beside it in BENCHMARK.json.
WORKLOADS = {
    "train_bs16": {"batch_sizes": [16]},
    "train_bs256": {"batch_sizes": [256]},
    "measure": {},
}


class CheckError(Exception):
    pass


def cpu_s() -> float:
    """User+system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0  # Linux reports KiB


def load_aecomm():
    """Import aecomm from this checkout's src/; exit 1 if it is not there."""
    src = ROOT / "src"
    if not (src / "aecomm" / "cli.py").is_file():
        sys.exit(f"perfbench: no aecomm sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy as np
    from aecomm import cli, comm, metrics, nn, train
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: aecomm imported from {cli.__file__}, not from {src}")
    return np, {"cli": cli, "comm": comm, "metrics": metrics, "nn": nn, "train": train}, import_s


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "blas" in os.path.basename(path).lower():
                libs.add(path)
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_facts(np) -> dict:
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3.read_text().strip() if l3.exists() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------- checks

def read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: header {lines[:1]} != {header!r}")
    return [line.split(",") for line in lines[1:]]


def unit_float(text: str, what: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise CheckError(f"{what} = {text} is not a finite value in [0, 1]")
    return value


def check_accuracy_csv(out: Path, cells: list[tuple[int, int, int]]) -> list[float]:
    """accuracy.csv holds one row per architecture per cell, in order; returns accuracies."""
    rows = read_csv(out / "accuracy.csv", "arch,Bs,init_seed,data_seed,accuracy")
    expected = [[arch, str(bs), str(i), str(d)] for bs, i, d in cells for arch in ARCHS]
    if [row[:4] for row in rows] != expected or any(len(row) != 5 for row in rows):
        raise CheckError(f"accuracy.csv rows {[r[:4] for r in rows]} != {expected}")
    return [unit_float(row[4], f"accuracy {row[:4]}") for row in rows]


def check_norm_error_csv(out: Path) -> None:
    """Expected cells, and the criterion-4 trends: error falls with Bs and rises with M."""
    rows = read_csv(out / "norm_error.csv", "M,Bs,mean_error,std_error,n")
    m_list, bs_list = NORM_ERROR["M_list"], NORM_ERROR["batch_sizes"]
    expected = [[str(m), str(bs)] for m in m_list for bs in bs_list]
    if [row[:2] for row in rows] != expected:
        raise CheckError("norm_error.csv does not hold the expected (M, Bs) cells")
    n = NORM_ERROR["n_inits"] * NORM_ERROR["n_batches"]
    table = {}
    for row in rows:
        mean, stderr = float(row[2]), float(row[3])
        valid = math.isfinite(mean) and math.isfinite(stderr) and mean >= 0 and stderr >= 0
        if not valid or int(row[4]) != n:
            raise CheckError(f"norm_error.csv row {row} is invalid")
        table[int(row[0]), int(row[1])] = (mean, stderr)
    for m in m_list:
        inversions = 0
        for a, b in zip(bs_list, bs_list[1:]):
            (lo, lo_se), (hi, hi_se) = table[m, a], table[m, b]
            if hi > lo:
                inversions += 1
                if hi - lo >= 2.0 * math.hypot(lo_se, hi_se):
                    raise CheckError(f"norm error rises from Bs={a} to Bs={b} at M={m}")
        if inversions > 1:
            raise CheckError(f"M={m}: {inversions} batch-size inversions")
    for bs in bs_list:
        means = [table[m, bs][0] for m in m_list]
        if not all(x < y for x, y in zip(means, means[1:])):
            raise CheckError(f"Bs={bs}: norm error not increasing in M")


def check_ser_csv(out: Path) -> list[float]:
    rows = read_csv(out / "ser.csv", "snr_db,ser,ci_lo,ci_hi")
    if [float(row[0]) for row in rows] != [float(s) for s in SER["snr_db_list"]]:
        raise CheckError("ser.csv does not hold the expected SNR points")
    sers = []
    for row in rows:
        ser, lo, hi = (unit_float(v, f"ser.csv {row}") for v in row[1:])
        if not lo <= ser <= hi:
            raise CheckError(f"ser.csv row {row}: ser outside its interval")
        sers.append(ser)
    return sers


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


# ---------------------------------------------------------------- workloads

class Run:
    """One benchmark run: the generated inputs, the operations and their checks."""

    def __init__(self, name: str, seed: int, np, mods: dict, work: Path):
        self.np, self.seed, self.mods, self.work = np, seed, mods, work
        self.spec = WORKLOADS[name]
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []
        self.run_json: Path | None = None  # measure: the run.json that set-up trains
        self.setup_times: list[float] = []
        self._setup_files: dict | None = None
        self._n = 0

    def seeds(self, *key: int) -> tuple[int, int]:
        """Two program seeds derived from the workload seed and `key`."""
        rng = self.np.random.default_rng([self.seed, *key])
        a, b = rng.integers(0, 2**31 - 1, size=2)
        return int(a), int(b)

    def command(self, name: str, cfg: dict, out: Path) -> tuple[float, float]:
        """Run `aecomm <name>` into `out`; returns its (wall, CPU) seconds."""
        out.mkdir(parents=True)
        cfg_path = out.parent / f"{out.name}.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [name, "--config", str(cfg_path), "--out", str(out), "--workers", str(WORKERS)]
        t0, c0 = time.perf_counter(), cpu_s()
        rc = self.mods["cli"].main(argv)
        wall, cpu = time.perf_counter() - t0, cpu_s() - c0
        if rc != 0:
            raise CheckError(f"aecomm {name} exited {rc}")
        return wall, cpu

    def fresh_dir(self, tag: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:04d}-{tag}"

    def attempt(self, tag: str, fn, *args):
        """Run one checked operation; a failure is counted, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - any failure of the program is a failed operation
            self.failures.append(f"{tag}: {type(exc).__name__}: {exc}")
            return None

    # -- set-up: input generation and warm-up, timed SETUP_REPS times per run

    def setup_once(self, reference: dict | None) -> dict:
        i, d = self.seeds(0)
        if "batch_sizes" in self.spec:
            bss = self.spec["batch_sizes"]
            cfg = {**PAPER_SCALE, "data_budget": WARMUP_STEPS * min(bss),
                   "batch_sizes": bss, "init_seeds": [i], "data_seeds": [d]}
            out = self.fresh_dir("warmup")
            self.command("compare", cfg, out)
            check_accuracy_csv(out, [(bs, i, d) for bs in bss])
        else:
            # Bs=256 keeps set-up short; ser's cost does not depend on how the run was trained
            cfg = {**PAPER_SCALE, "batch_size": 256, "architecture": "proposed",
                   "init_seed": i, "data_seed": d}
            out = self.fresh_dir("train")
            self.command("train", cfg, out)
            doc = json.loads((out / "run.json").read_text())
            unit_float(str(doc["validation_accuracy"]), "run.json validation_accuracy")
            self.run_json = out / "run.json"
        files = dir_bytes(out)
        if reference is not None and files != reference:
            raise CheckError("set-up rerun with the same config wrote different bytes")
        return files

    def setup(self) -> None:
        """Set up once more on the same inputs, recording its seconds in setup_times."""
        t0 = time.perf_counter()
        files = self.attempt(f"setup {len(self.setup_times)}", self.setup_once, self._setup_files)
        self.setup_times.append(time.perf_counter() - t0)
        self._setup_files = self._setup_files or files

    # -- one measured operation

    def op(self, k: int, tag: str) -> dict:
        """Operation k; returns its record: measured wall/CPU seconds, results, output dirs."""
        a, b = self.seeds(1, k)
        if "batch_sizes" in self.spec:
            bss = self.spec["batch_sizes"]
            cells = [(bs, a, b) for bs in bss]
            cfg = {**PAPER_SCALE, "batch_sizes": bss, "init_seeds": [a], "data_seeds": [b]}
            out = self.fresh_dir(tag)
            wall, cpu = self.command("compare", cfg, out)
            acc = check_accuracy_csv(out, cells)
            return {"dirs": [out], "wall_s": wall, "cpu_s": cpu, "cells": len(cells),
                    "accuracy": {arch: statistics.fmean(acc[j::len(ARCHS)]) for j, arch in enumerate(ARCHS)}}
        ne_out, ser_out = self.fresh_dir(tag + "-norm-error"), self.fresh_dir(tag + "-ser")
        ne_wall, ne_cpu = self.command("norm-error", {**NORM_ERROR, "seed": a}, ne_out)
        ser_cfg = {**SER, "run_json": str(self.run_json), "seed": b}
        ser_wall, ser_cpu = self.command("ser", ser_cfg, ser_out)
        check_norm_error_csv(ne_out)
        sers = check_ser_csv(ser_out)
        n_batches = (len(NORM_ERROR["M_list"]) * len(NORM_ERROR["batch_sizes"])
                     * NORM_ERROR["n_inits"] * NORM_ERROR["n_batches"])
        return {
            "dirs": [ne_out, ser_out],
            "wall_s": ne_wall + ser_wall,
            "cpu_s": ne_cpu + ser_cpu,
            "mean_ser": statistics.fmean(sers),
            "norm_error_batches_per_s": n_batches / ne_wall,
            "ser_symbols_per_s": len(SER["snr_db_list"]) * SER["n_symbols"] / ser_wall,
        }

    def timed_op(self, k: int, tag: str) -> dict:
        """Operation k with its failures counted; a failed one is timed as a whole."""
        t0, c0 = time.perf_counter(), cpu_s()
        rec = self.attempt(f"op {k} {tag}", self.op, k, tag) or {
            "dirs": [], "wall_s": time.perf_counter() - t0, "cpu_s": cpu_s() - c0}
        rec.update(k=k, tag=tag)
        self.records.append(rec)
        return rec


def measure_loop(seconds: float, step) -> None:
    """Call step(k) until the next call would likely end past `seconds`."""
    start, durations, k = time.perf_counter(), [], 0
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        step(k)
        durations.append(time.perf_counter() - t0)
        k += 1


# ---------------------------------------------------------------- metrics

def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, the workload's own named metrics for the report)."""
    recs = run.records
    ok = [r for r in recs if r["dirs"]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(1.0 / r["wall_s"] for r in recs), "1/s"),
        "cpu_s_per_op": (statistics.median(r["cpu_s"] for r in recs), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (1.0 - len(run.failures) / run.attempted, "frac"),
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
             "failed_frac": (len(run.failures) / run.attempted, "frac")}
    if "batch_sizes" in run.spec:
        # quality is taken from the first operation only, so it repeats for a seed;
        # the weaker architecture sets it, so a drop in either one moves it
        acc = ok[0]["accuracy"] if ok and ok[0]["k"] == 0 else {a: 0.0 for a in ARCHS}
        metrics["quality"] = (min(acc.values()), "frac")
        named.update(
            cells_per_s=(statistics.median(r["cells"] / r["wall_s"] for r in ok) if ok else 0.0, "1/s"),
            cpu_s_per_cell=(statistics.median(r["cpu_s"] / r["cells"] for r in ok) if ok else 0.0, "s"),
            val_accuracy_proposed=(acc["proposed"], "frac"),
            val_accuracy_baseline=(acc["baseline"], "frac"),
        )
    else:
        first = ok[0]["mean_ser"] if ok and ok[0]["k"] == 0 else 1.0
        metrics["quality"] = (1.0 - first, "frac")
        for key in ("ser_symbols_per_s", "norm_error_batches_per_s"):
            named[key] = (statistics.median(r[key] for r in ok) if ok else 0.0, "1/s")
    return metrics, named


def per_layer(tracer, summary: dict, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-span metrics; counts and self times are per traced operation.

    A span the operations never call reports 0 calls and 0 times.
    """
    from tracer import SPAN_NAMES

    none = {"calls": 0, "self_s": 0.0, "p50_us": 0.0, "tail_us": 0.0}
    n_ops = len(traced)
    wall_s = sum(r["wall_s"] for r in traced)
    out = {}
    for name in SPAN_NAMES:
        s = summary.get(name, none)
        out[f"{name}.calls_per_op"] = (s["calls"] / n_ops, "count")
        out[f"{name}.self_s_per_op"] = (s["self_s"] / n_ops, "s")
        out[f"{name}.self_pct"] = (100.0 * s["self_s"] / wall_s, "%")
        out[f"{name}.p50_us"] = (s["p50_us"], "us")
        out[f"{name}.tail_us"] = (s["tail_us"], "us")

    def per_call(total, name):
        calls = summary.get(name, none)["calls"]
        return total / calls / 1e6 if calls else 0.0

    for name in ("nn.mlp_forward.tx", "nn.mlp_backward.tx"):
        out[f"{name}.mflop_per_call"] = (per_call(tracer.flops[name], name), "MFLOP-computed")
    out["nn.Adam.step.mbytes_per_call"] = (per_call(tracer.adam_bytes, "nn.Adam.step"), "MB-computed")
    wall_untraced = sum(r["wall_s"] for r in untraced)
    out["trace.overhead_pct"] = (100.0 * (wall_s / wall_untraced - 1.0), "%")
    out["trace.spans_per_op"] = (len(tracer.spans) / n_ops, "count")
    return out


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_setup = time.perf_counter()
    np, mods, import_s = load_aecomm()
    from tracer import Tracer  # the script's own directory is first on sys.path

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        run = Run(args.workload, args.seed, np, mods, work)
        run.setup()
        facts = machine_facts(np)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": {**facts, "workers": WORKERS},
                  "import_s": import_s, "setup_total_s": time.perf_counter() - t_setup}

        if args.trace == 0:
            def step(k):
                run.timed_op(k, "op")
                # the other set-up reps sit between operations, so that one fast
                # or slow stretch of the host cannot move all of them
                if len(run.setup_times) < SETUP_REPS:
                    run.setup()

            measure_loop(args.seconds, step)
            while len(run.setup_times) < SETUP_REPS:
                run.setup()
            metrics, named = end_to_end(run, import_s + statistics.median(run.setup_times))
            record["named_metrics"] = named
        else:
            tracer = Tracer(mods)
            untraced, traced = [], []

            def pair(k):
                # alternate which side goes first, so neither always runs on warm caches
                for side in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
                    if side == "plain":
                        untraced.append(run.timed_op(k, "plain"))
                    else:
                        with tracer.installed():
                            traced.append(run.timed_op(k, "traced"))
                run.attempted += 1
                a, b = untraced[-1]["dirs"], traced[-1]["dirs"]
                if not a or [dir_bytes(d) for d in a] != [dir_bytes(d) for d in b]:
                    run.failures.append(f"op {k}: traced outputs differ from untraced outputs")

            measure_loop(args.seconds, pair)
            record["span_summary"] = tracer.summary()
            metrics = per_layer(tracer, record["span_summary"], traced, untraced)
            record["missing_spans"] = tracer.missing
            record["train_run_self_share"] = tracer.subtree_self_share("train.train_run")
            tracer.dump(f"{stem}-spans.json")
            named = {}

        record["setup_rep_s"] = run.setup_times
        record["failures"] = run.failures
        record["operations"] = [{k: v for k, v in r.items() if k != "dirs"} for r in run.records]
        record["metrics"] = metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.records)} operations, {run.attempted} checked, {len(run.failures)} failed")
    print("machine " + json.dumps(record["machine"]))
    for failure in run.failures:
        print(f"FAILED {failure}")
    if args.trace:
        if tracer.missing:
            print("missing spans (not in this code): " + ", ".join(tracer.missing))
        share = record["train_run_self_share"]
        if share is not None:
            print(f"train.train_run self-time coverage {share:.6f} (summed self times / its duration)")
    for key, (value, unit) in {**named, **metrics}.items():
        print(f"  {key:48s} {value:.6g} {unit}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

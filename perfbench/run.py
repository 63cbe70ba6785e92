"""equimine benchmark: three workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload {sample-cli,panel-5k,scenario-sweep,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/. Each workload is a closed loop with one client. With --trace 0 the
last stdout line carries the end-to-end metrics, with --trace 1 the
per-layer metrics; earlier lines print every metric with its unit and
sample count, the report digest and the environment. README.md in this
directory documents workloads, metrics and the result schema.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("sample-cli", "panel-5k", "scenario-sweep")
SAMPLE_CONFIG = "src/equimine/data/sample/config.json"  # relative: digests stay path-stable
# Set-ups timed before and after the ops each; spreading them over the run
# evens out drifts in machine speed that last a few seconds.
SETUP_REPEATS = 3
BLAS_THREADS = 1  # pinned for steady timings; at or below nproc
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pinned here, before anything loads a BLAS, so children inherit it too.
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

END_TO_END_UNITS = {"op_s.p50": "s", "op_s.p90": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "cli.self_s": "s", "pipeline.run_s": "s", "pipeline.self_s": "s",
    "io.load_s": "s", "io.write_s": "s", "io.bytes_written": "bytes",
    "sensnet.sweep_s": "s", "sensnet.train_s": "s", "sensnet.train_us_per_epoch": "us",
    "sensnet.train_gflop_per_s": "GFLOP/s", "sensnet.input_grad_s": "s", "sensnet.perturb_s": "s",
    "mcda.consistency_s": "s", "mcda.weights_s": "s", "equity.vector_s": "s", "equity.score_s": "s",
    "equity.score_calls": "count", "equity.index_s": "s", "topsis.rank_s": "s",
    "mining.curve_s": "s", "mining.income_s": "s", "allocation.allocate_s": "s",
    "stats.pearson_s": "s", "stats.t_test_s": "s", "stats.t_test_calls": "count",
    "bench.unattributed_s": "s", "trace.overhead_s": "s",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(argv, **kwargs):
    return subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), **kwargs)


def reap(proc) -> float:
    """Wait for a child; returns its peak RSS in MiB (ru_maxrss is KiB on Linux)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def worker(job: dict, **kwargs):
    return spawn([str(WORKER), json.dumps({"root": str(ROOT), **job})], **kwargs)


def timed_setup(job: dict):
    """Fresh interpreter to the worker's ready line; returns (seconds, import_s)."""
    t0 = time.perf_counter()
    proc = worker({**job, "mode": "setup"}, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    reap(proc)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up of {job['workload']} failed with exit code {proc.returncode}")
    return seconds, json.loads(line)["import_s"]


def run_in_process(job: dict, seconds: float, trace: bool):
    """panel-5k and scenario-sweep: one worker runs every op in-process."""
    result = ROOT / job["work"] / "result.json"
    proc = worker({**job, "mode": "run", "seconds": seconds, "trace": trace,
                   "result": str(result)}, stdout=subprocess.PIPE)
    proc.stdout.readline()  # the ready line
    proc.stdout.read()
    proc.stdout.close()
    peak = reap(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{job['workload']} worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))["ops"], peak


def run_cli_ops(job: dict, seconds: float, trace: bool):
    """sample-cli: every op is a fresh `python -m equimine.cli report`."""
    work = ROOT / job["work"]
    ops, peaks = [], []
    kernel = calib.kernel_seconds()
    for traced, span in ([(False, seconds / 2), (True, seconds / 2)] if trace else [(False, seconds)]):
        deadline = time.perf_counter() + span
        index = 0
        while time.perf_counter() < deadline or index == 0:
            name = f"{'traced' if traced else 'plain'}-{index}"
            out = work / name
            args = ["report", "--config", SAMPLE_CONFIG, "--out", str(out.relative_to(ROOT))]
            figures_path = work / f"{name}.figures.json"
            argv = ([str(WORKER), json.dumps({"root": str(ROOT), "mode": "cli", "args": args,
                                              "result": str(figures_path)})]
                    if traced else ["-m", "equimine.cli", *args])
            with open(work / f"{name}.stderr", "wb") as err:
                t0 = time.perf_counter()
                proc = spawn(argv, stdout=subprocess.DEVNULL, stderr=err)
                peak = reap(proc)
                wall = time.perf_counter() - t0
            after = calib.kernel_seconds()
            record = {"traced": traced, "seconds": wall, "kernel": [kernel, after], "out": out,
                      "error": None if proc.returncode == 0 else f"exit code {proc.returncode}"}
            kernel = after
            if traced and not figures_path.is_file():
                record["error"] = record["error"] or "traced op wrote no span figures"
                record["figures"] = {}
            elif traced:
                figures = json.loads(figures_path.read_text(encoding="utf-8"))
                figures["bench.unattributed_s"] += wall  # the child saw 0 s of op time
                record["figures"] = figures
            else:
                peaks.append(peak)
            ops.append(record)
            index += 1
    # Reports are read only now, so nothing is loaded into this process while
    # op processes run.
    import checks

    for op in ops:
        out = op.pop("out")
        if op["error"] is None:
            op["digest"] = checks.report_digest(out)
            missing = checks.missing_reports(out)
            op["error"] = f"missing reports: {missing}" if missing else None
        if out.name != "plain-0":
            shutil.rmtree(out, ignore_errors=True)
    return ops, max(peaks)


def verify(workload: str, job: dict, ops: list) -> list:
    """Run the output checks; marks failed ops and returns notes to print."""
    import checks

    notes = []
    good = [op for op in ops if op["error"] is None]
    if workload in ("sample-cli", "panel-5k") and good:
        first = ROOT / job["work"] / ("plain-0" if workload == "sample-cli" else "plain/op-0")
        digests = {op["digest"] for op in good}
        if len(digests) > 1:
            for op in good:
                op["error"] = "report bytes differ between ops of the run"
        if workload == "sample-cli":
            expected = checks.read_report_set(BENCH / "reference" / "sample")
            seed_digest = checks.report_digest(BENCH / "reference" / "sample")
            notes.append(f"report bytes identical to the seed commit's: {seed_digest in digests}")
        else:
            expected = checks.panel_reference(ROOT / job["config"])
        mismatches = checks.compare_sets(first, expected) if first.is_dir() else ["no kept op"]
        if mismatches:
            notes.append(f"reference mismatches ({len(mismatches)}): {mismatches[:5]}")
            for op in good:
                op["error"] = op["error"] or "values differ from the reference"
        notes.append(f"report set sha256: {' '.join(sorted(digests))}")
    if workload == "scenario-sweep":
        bad_ops = 0
        for op in good:
            bad = checks.critical_mismatches(op["criticals"])
            if bad:
                op["error"] = f"t critical values off: {bad[:3]}"
                bad_ops += 1
        checked = sum(len(op["criticals"]) for op in good)
        notes.append(f"t critical values checked against scipy.stats.t.ppf: {checked}, "
                     f"ops off by more than {checks.CRITICAL_TOL}: {bad_ops}")
    for op in ops:
        if op["error"]:
            notes.append(f"failed op: {op['error']}")
            break
    return notes


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_seconds(op) -> float:
    """The op's wall time at the reference box's speed (see calib.py)."""
    return calib.calibrated(op["seconds"], op["kernel"])


def end_to_end(ops, setups, peak):
    times = [op_seconds(op) for op in ops if not op["traced"]]
    return {
        "op_s.p50": (statistics.median(times), len(times)),
        "op_s.p90": (quantile(times, 90), len(times)),
        "setup_s": (statistics.median(s for s, _ in setups), len(setups)),
        "peak_rss_mib": (peak, 1),
    }


def uncalibrated(ops) -> str:
    times = [op["seconds"] for op in ops if not op["traced"]]
    return (f"uncalibrated wall: op_s.p50 = {statistics.median(times):.6g} s, "
            f"op_s.p90 = {quantile(times, 90):.6g} s; speed vs reference box = "
            f"{statistics.median(calib.REFERENCE_S / op['kernel'][-1] for op in ops):.4g}")


def per_layer(workload, ops, setups, train):
    traced = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    names = [n for n in PER_LAYER_UNITS if n != "trace.overhead_s"]
    values = {n: statistics.median(op["figures"].get(n, 0.0) for op in traced) for n in names}
    if workload != "sample-cli":
        # In-process ops import nothing; the import is paid once, in set-up.
        values["cli.import_s"] = statistics.median(i for _, i in setups)
    epochs, flop_per_epoch = train
    train_s = values["sensnet.train_s"]
    values["sensnet.train_us_per_epoch"] = train_s / epochs * 1e6 if train_s else 0.0
    values["sensnet.train_gflop_per_s"] = flop_per_epoch * epochs / train_s / 1e9 if train_s else 0.0
    if workload == "scenario-sweep":
        # Paired by case: the traced half replays the untraced half's cases.
        base = {op["case"]: op_seconds(op) for op in plain}
        diffs = [op_seconds(op) - base[op["case"]] for op in traced if op["case"] in base]
        values["trace.overhead_s"] = statistics.median(diffs)
    else:
        values["trace.overhead_s"] = (statistics.median(op_seconds(op) for op in traced)
                                      - statistics.median(op_seconds(op) for op in plain))
    return {n: (values[n], len(traced)) for n in PER_LAYER_UNITS}


def train_shape(workload, job):
    """(epochs, computed matmul flops per epoch) of the workload's training.

    Per layer of width in -> out over N samples: forward 2*N*in*out, weight
    gradient 2*N*in*out, and for every layer but the first the backward
    delta 2*N*in*out. Elementwise work is not counted.
    """
    if workload == "scenario-sweep":
        return 1, 0
    config_path = ROOT / (SAMPLE_CONFIG if workload == "sample-cli" else job["config"])
    config = json.loads(config_path.read_text(encoding="utf-8"))
    train = json.loads((config_path.parent / config["train"]).read_text(encoding="utf-8"))
    with open(config_path.parent / config["indicators"], encoding="utf-8") as handle:
        samples = sum(1 for line in handle if line.strip()) - 1
    sizes = train["layer_sizes"]
    flops = sum(2 * samples * i * o * (2 if l == 0 else 3)
                for l, (i, o) in enumerate(zip(sizes, sizes[1:])))
    return int(train["epochs"]), flops


def environment(workload, seed, ops) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "workload": workload, "seed": seed,
        "ops": len(ops), "src_lines": src_lines,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = {"workload": workload, "seed": seed, "work": str(work.relative_to(ROOT))}
    if workload == "panel-5k":
        inputs = work / "inputs"
        generated = worker({**job, "mode": "gen", "work": str(inputs)})
        reap(generated)
        if generated.returncode != 0:
            raise RuntimeError("panel generation failed")
        job["config"] = str((inputs / "config.json").relative_to(ROOT))

    timed_setup(job)  # warm-up: byte-compiles the sources and fills the file cache
    setups = [timed_setup(job) for _ in range(SETUP_REPEATS)]
    if workload == "sample-cli":
        ops, peak = run_cli_ops(job, seconds, trace)
    else:
        ops, peak = run_in_process(job, seconds, trace)
    setups += [timed_setup(job) for _ in range(SETUP_REPEATS)]

    # Everything below is outside the measured region.
    notes = verify(workload, job, ops)
    (work / "ops.json").write_text(json.dumps(
        [{k: op[k] for k in ("seconds", "kernel", "traced", "error")} for op in ops]),
        encoding="utf-8")
    failed = sum(1 for op in ops if op["error"])
    if trace:
        metrics, units = per_layer(workload, ops, setups, train_shape(workload, job)), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(ops, setups, peak), END_TO_END_UNITS
    print(f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"env {json.dumps(environment(workload, seed, ops), sort_keys=True)}")
    for note in notes:
        print(note)
    print(f"fail_ratio = {failed / len(ops):.6g} ({failed} of {len(ops)} ops)")
    print(uncalibrated(ops))
    for name, (value, samples) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (n={samples})")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equimine" / "__init__.py").is_file():
        print(f"no equimine sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

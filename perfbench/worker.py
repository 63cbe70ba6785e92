"""Child process of the benchmark: set up, run ops in a closed loop, report.

Usage: python worker.py '<json job>'; run.py builds the job. Modes:

* setup: import equimine.cli, load the inputs, print the ready line, exit.
* run:   the same set-up, then ops for `seconds` (a traced run spends the
         first half untraced and the second half traced), then write the
         per-op results to `result`.
* cli:   one traced `equimine report` op of the sample-cli workload; writes
         its per-op layer figures to `result`.
* gen:   write the panel-5k inputs (never timed).

The ready line is the first line on stdout; run.py takes set-up time as
process start to that line.
"""

import json
import sys
import time
from pathlib import Path

T_START = time.perf_counter()


def _ready(job):
    import equimine
    import equimine.cli  # noqa: F401  (the import is the set-up being timed)

    src = (Path(job["root"]) / "src").resolve()
    if src not in Path(equimine.__file__).resolve().parents:
        raise SystemExit(f"equimine was imported from {equimine.__file__}, not {src}")
    import_s = time.perf_counter() - T_START
    config = None
    if job["workload"] == "panel-5k":
        from equimine import pipeline

        config = pipeline.load_run_config(job["config"])
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    return config, import_s


def _panel_after(out_dir, record, keep):
    import shutil

    import checks

    missing = checks.missing_reports(out_dir)
    if missing:
        record["error"] = f"missing reports: {missing}"
    record["digest"] = checks.report_digest(out_dir)
    if not keep:
        shutil.rmtree(out_dir)


def _prepare(case):
    """Benchmark-side plumbing done before the clock starts."""
    countries = case.panel.shape[1]
    labels = [f"K{i}" for i in range(countries)]
    return {
        "labels": labels,
        "gdp": dict(zip(labels, case.gdp.tolist())),
        "alternatives": [f"A{i}" for i in range(case.decision.shape[0])],
    }


def study(case, prepared):
    """One scenario-sweep op: a study case through the library, no files."""
    import numpy as np

    from equimine import allocation, equity, mcda, mining, stats, topsis

    matrix = mcda.PairwiseMatrix(case.pairwise)
    report = mcda.consistency(matrix)
    weights = {m: mcda.derive_weights(matrix, m).weights for m in mcda.METHODS}
    mean_w = np.mean(list(weights.values()), axis=0)

    years, countries, _ = case.panel.shape
    scores = np.array([
        [equity.country_score(equity.IndicatorVector(*case.panel[t, c]), mean_w)
         for c in range(countries)]
        for t in range(years)
    ])
    equity_index = equity.global_equity_index(scores)

    kinds = [topsis.IndicatorKind.intermediate(k) if isinstance(k, float) else topsis.IndicatorKind(k)
             for k in case.kinds]
    decision = topsis.DecisionMatrix(values=case.decision,
                                     alternative_labels=prepared["alternatives"],
                                     indicator_kinds=kinds)
    ranked = topsis.rank_alternatives(decision, weights=mean_w)

    params = mining.MiningCurveParams(*case.curve)
    window = mining.RevenueWindow(*case.window)
    incomes = {m: mining.income(window, params, m) for m in mining.INCOME_MODES}
    profit = mining.profit(incomes["cumulative"], window.cost)

    policy = allocation.PovertyPolicy(bottom_count=case.bottom_count, multiplier=case.multiplier)
    gammas = allocation.poverty_multipliers(prepared["gdp"], policy)
    latest = dict(zip(prepared["labels"], scores[-1].tolist()))
    allocations = {m: allocation.allocate(profit, latest, gammas, mode=m)
                   for m in allocation.ALLOC_MODES}

    records = case.panel.reshape(-1, 7)
    series = scores.reshape(-1)
    tests = [stats.t_test(stats.pearson(records[:, j], series), series.size) for j in range(7)]
    return {
        "weights": weights, "cr": report.cr, "equity_index": equity_index,
        "topsis_s": ranked.s, "ranking": ranked.ranking, "profit": profit,
        "conserved": {m: [s.conserved_share for s in a.shares] for m, a in allocations.items()},
        "criticals": [[t.n - 2, 0.05, t.critical_value] for t in tests],
    }


def _loop(job, config, seconds, tracer, ops):
    """Closed loop, one op at a time, until `seconds` have passed."""
    import calib
    import checks
    import gen

    from equimine import pipeline

    work = Path(job["work"])
    panel = job["workload"] == "panel-5k"
    kernel = calib.kernel_seconds()
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index == 0:
        record = {"traced": tracer is not None, "error": None, "case": index}
        if panel:
            out_dir = work / ("traced" if tracer else "plain") / f"op-{index}"
        else:
            case = gen.scenario_case(job["seed"], index)
            prepared = _prepare(case)
        with calib.Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                if panel:
                    pipeline.run_pipeline(config, out_dir)
                else:
                    outcome = study(case, prepared)
            except Exception as exc:  # a failed op is counted, not fatal
                record["error"] = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        record["seconds"] = wall - sampler.spent
        after = calib.kernel_seconds()
        record["kernel"], kernel = [kernel, *sampler.samples, after], after
        if record["error"] is None and panel:
            _panel_after(out_dir, record, keep=index == 0 and tracer is None)
        elif record["error"] is None:
            record["error"] = "; ".join(checks.scenario_invariants(outcome)) or None
            record["criticals"] = outcome["criticals"]
        if tracer is not None:
            # Spans include the sampler's pauses, so fold against the wall time.
            record["figures"] = tracer.finish_op(wall)
        ops.append(record)
        index += 1


def _run(job):
    config, import_s = _ready(job)
    ops = []
    if job["trace"]:
        import spans

        half = job["seconds"] / 2.0
        _loop(job, config, half, None, ops)
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            _loop(job, config, half, tracer, ops)
        finally:
            spans.uninstall(undo)
    else:
        _loop(job, config, job["seconds"], None, ops)
    Path(job["result"]).write_text(json.dumps({"import_s": import_s, "ops": ops}), encoding="utf-8")


def _cli(job):
    """One traced `equimine report` in this fresh interpreter."""
    import spans

    tracer = spans.Tracer()
    t0 = time.perf_counter()
    import equimine.cli

    tracer.spans.append(["cli.import", t0, time.perf_counter(), -1])
    undo = spans.install(tracer)
    code = 0
    try:
        with tracer.span("cli.main"):
            equimine.cli.main(args=job["args"], prog_name="equimine", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        spans.uninstall(undo)
        # run.py knows the op's wall time and completes bench.unattributed_s.
        figures = tracer.finish_op(0.0)
        Path(job["result"]).write_text(json.dumps(figures), encoding="utf-8")
    return code


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    mode = job["mode"]
    if mode == "gen":
        import gen

        gen.write_panel(job["seed"], Path(job["root"]) / "src/equimine/data/sample", Path(job["work"]))
    elif mode == "setup":
        _ready(job)
    elif mode == "run":
        _run(job)
    elif mode == "cli":
        return _cli(job)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks. None of this runs inside a timed region.

* Report sets (sample-cli, panel-5k): every report file present, identical
  bytes across the ops of a run, and values equal to a reference within
  REL_TOL/ABS_TOL. For the bundled sample the reference is the report set
  recorded from the seed commit (reference/sample/). For a generated panel it
  is `panel_reference`, a frozen re-derivation of the seed commit's
  arithmetic; it reproduces reference/sample/ on the bundled sample.
* Scenario cases: the invariants in `scenario_invariants`, plus every t
  critical value against scipy.stats.t.ppf (`critical_mismatches`).
"""

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

REPORT_SET = (
    "allocation.json", "consistency.json", "correlation.json", "equity.json",
    "mining.json", "perturbation.csv", "sensitivity.csv", "sensitivity.json",
    "topsis.json", "weights.json",
)
# Reported numbers may differ from the reference by REL_TOL relative plus
# ABS_TOL absolute. JSON reports round to 6 significant digits, so a change
# in the 12th digit can move the last printed one: 1e-5 covers that.
REL_TOL = 1e-5
ABS_TOL = 1e-9
CRITICAL_TOL = 1e-8  # |t critical - scipy.stats.t.ppf(1 - alpha/2, df)|
SUM_TOL = 1e-9  # relative, for weights summing to 1 and shares to profit
INDICATORS = ("ei", "idg", "cea", "ma", "hr", "er", "sa")
RI = (0.00, 0.00, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49)
VARIATION_BAND = 0.07


def report_digest(out_dir: Path) -> str:
    """sha256 over the report set: each file's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in REPORT_SET:
        path = out_dir / name
        if path.is_file():
            h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def missing_reports(out_dir: Path) -> list:
    return [name for name in REPORT_SET if not (out_dir / name).is_file()]


def read_report_set(out_dir: Path) -> dict:
    """Parse every report: JSON as objects, CSV as rows with floats parsed."""
    parsed = {}
    for name in REPORT_SET:
        path = out_dir / name
        if name.endswith(".json"):
            parsed[name] = json.loads(path.read_text(encoding="utf-8"))
        else:
            with open(path, newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            parsed[name] = [rows[0]] + [[_number(c) for c in row] for row in rows[1:]]
    return parsed


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def compare(actual, expected, where="") -> list:
    """Mismatches between a parsed report and its reference; [] when equal.

    `config_digest` is skipped: it hashes input paths, not the computation.
    """
    if isinstance(expected, dict):
        keys = set(expected) - {"config_digest"}
        if not isinstance(actual, dict) or set(actual) - {"config_digest"} != keys:
            return [f"{where}: keys differ"]
        return [m for key in expected if key != "config_digest"
                for m in compare(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        ok = (isinstance(actual, (int, float)) and not isinstance(actual, bool)
              and abs(actual - expected) <= REL_TOL * abs(expected) + ABS_TOL)
        return [] if ok else [f"{where}: {actual!r} != {expected!r}"]
    return [] if actual == expected and type(actual) is type(expected) else \
        [f"{where}: {actual!r} != {expected!r}"]


def compare_sets(out_dir: Path, expected: dict) -> list:
    actual = read_report_set(out_dir)
    return [m for name in REPORT_SET for m in compare(actual[name], expected[name], name)]


# --- frozen reference arithmetic (the seed commit's formulas) --------------


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _sigmoid_prime(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


def _forward(x, weights, biases):
    zs, acts = [], [x]
    for w, b in zip(weights, biases):
        zs.append(acts[-1] @ w.T + b)
        acts.append(_sigmoid(zs[-1]))
    return zs, acts


def _train(x, y, sizes, lr, epochs, seed):
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(rng.uniform(-0.5, 0.5, size=(n_out, n_in)))
        biases.append(rng.uniform(-0.5, 0.5, size=n_out))
    n = x.shape[0]
    loss = None
    for _ in range(epochs):
        zs, acts = _forward(x, weights, biases)
        err = acts[-1] - y
        loss = 0.5 * float((err * err).sum()) / n
        delta = err * _sigmoid_prime(zs[-1])
        for l in range(len(weights) - 1, -1, -1):
            w_grad = delta.T @ acts[l] / n
            b_grad = delta.mean(axis=0)
            if l > 0:
                delta = (delta @ weights[l]) * _sigmoid_prime(zs[l - 1])
            weights[l] = weights[l] - lr * w_grad
            biases[l] = biases[l] - lr * b_grad
    return weights, biases, loss


def _sensitivity(x, scores, train):
    sizes, lr, epochs, seed = train
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds = np.where(stds == 0, 1.0, stds)
    xs = (x - means) / stds
    lo, hi = scores.min(), scores.max()
    y = np.full_like(scores, 0.5) if hi == lo else 0.2 + 0.6 * (scores - lo) / (hi - lo)
    weights, biases, loss = _train(xs, y[:, None], sizes, lr, epochs, seed)

    zs, _ = _forward(xs, weights, biases)
    d = _sigmoid_prime(zs[-1])
    for l in range(len(weights) - 1, 0, -1):
        d = (d @ weights[l]) * _sigmoid_prime(zs[l - 1])
    sens = np.abs(d @ weights[0]).mean(axis=0)

    baseline = float(_forward(xs, weights, biases)[1][-1].mean())
    rows, variations = [], []
    for l, w in enumerate(weights):
        for j in range(w.shape[0]):
            for k in range(w.shape[1]):
                center = w[j, k]
                half = abs(center) * 0.1 if center != 0 else 0.1
                outputs = []
                for value in np.linspace(center - half, center + half, 11):
                    w[j, k] = value
                    out = float(_forward(xs, weights, biases)[1][-1].mean())
                    outputs.append(out)
                    rows.append([f"w{l + 1}[{j},{k}]", float(value), out])
                w[j, k] = center
                variations.append((max(outputs) - min(outputs)) / abs(baseline))
    return sens, loss, rows, max(variations)


def _t_rate(t, dof, location, scale, mass):
    if math.isinf(t):
        return 0.0
    y = (t - location) / scale
    log_coef = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    return math.exp(log_coef - ((dof + 1) / 2) * math.log1p(y * y / dof)) / (scale * mass)


def _strength(r):
    for threshold, label in ((0.8, "strong"), (0.5, "moderate"), (0.3, "weak")):
        if abs(r) >= threshold:
            return label
    return "negligible"


def _power_iteration(a):
    w = np.full(a.shape[0], 1.0 / a.shape[0])
    while True:
        w_next = a @ w
        w_next /= w_next.sum()
        if np.max(np.abs(w_next - w)) < 1e-12:
            return w_next
        w = w_next


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def panel_reference(config_path: Path) -> dict:
    """Expected report payloads for a run config, by the seed's formulas."""
    from scipy import stats as sps  # the oracle loads only after timing

    base = config_path.parent
    config = json.loads(config_path.read_text(encoding="utf-8"))
    rows = _read_csv(base / config["pairwise"])
    labels = [c.strip() for c in rows[0][1:]]
    a = np.array([[float(Fraction(c.strip())) for c in row[1:]] for row in rows[1:]])
    iu, ju = np.triu_indices(len(labels), k=1)
    a[ju, iu] = 1.0 / a[iu, ju]
    n = len(labels)
    by_method = {
        "arithmetic-mean": (a / a.sum(axis=0)).mean(axis=1),
        "geometric-mean": np.exp(np.log(a).mean(axis=1)),
        "eigenvalue": _power_iteration(a),
    }
    by_method = {m: w / w.sum() for m, w in by_method.items()}
    lam = float(np.mean((a @ by_method["eigenvalue"]) / by_method["eigenvalue"]))
    ci = (lam - n) / (n - 1)
    cr = ci / RI[n - 1]
    mean_w = np.mean(list(by_method.values()), axis=0)

    records = {}
    for row in _read_csv(base / config["indicators"])[1:]:
        records[(row[0].strip(), int(row[1]))] = np.array([float(c) for c in row[2:]])
    countries = list(dict.fromkeys(c for c, _ in records))
    years = sorted({y for _, y in records})
    scores = {k: float(mean_w @ v) for k, v in records.items()}
    grid = np.array([[scores[(c, y)] for c in countries] for y in years])
    total = 0.0
    for row in grid:
        ratios = row / ((row.sum() - row) / (len(row) - 1))
        total += float(((ratios - ratios.mean()) ** 2).sum())
    ge = total / grid.size

    z = np.array([records[(c, years[-1])] for c in countries])
    z = z / np.sqrt((z * z).sum(axis=0)) * mean_w
    d_plus = np.sqrt(((z.max(axis=0) - z) ** 2).sum(axis=1))
    d_minus = np.sqrt(((z - z.min(axis=0)) ** 2).sum(axis=1))
    s = d_minus / (d_plus + d_minus)
    ranking = [int(i) for i in np.argsort(-s, kind="stable")]
    rank_of = {i: pos + 1 for pos, i in enumerate(ranking)}

    scenario = json.loads((base / config["scenario"]).read_text(encoding="utf-8"))
    dof, loc, scale, value = (float(scenario[k]) for k in ("dof", "location", "scale", "total_value"))
    t1 = float(scenario["t1"])
    t2 = math.inf if scenario["t2"] in ("inf", None) else float(scenario["t2"])
    cost = float(scenario["cost"])
    mass = float(sps.t.sf(-loc / scale, dof))
    cumulative = value * float(sps.t.cdf((t2 - loc) / scale, dof) - sps.t.cdf((t1 - loc) / scale, dof)) / mass
    literal = value * (_t_rate(t2, dof, loc, scale, mass) - _t_rate(t1, dof, loc, scale, mass))
    incomes = {"cumulative": cumulative, "paper-literal": literal}
    profit = incomes[config["income_mode"]] - cost

    gdp = {row[0].strip(): float(row[1]) for row in _read_csv(base / config["gdp"])[1:]}
    poverty = config["poverty"]
    poorest = set(sorted(gdp, key=lambda c: (gdp[c], c))[: poverty["bottom_count"]])
    basis = np.array([scores[(c, years[-1])] for c in countries])
    gamma = np.array([poverty["multiplier"] if c in poorest else 1.0 for c in countries])
    raw = gamma * profit * basis / basis.sum()
    conserved = profit * (gamma * basis) / (gamma * basis).sum()

    keys = [(c, y) for c in countries for y in years]
    series = np.array([scores[k] for k in keys])
    df = len(keys) - 2
    critical = float(sps.t.ppf(0.975, df))
    correlations = []
    for j, name in enumerate(INDICATORS):
        x = np.array([records[k][j] for k in keys])
        dx, dy = x - x.mean(), series - series.mean()
        r = float((dx * dy).sum()) / (math.sqrt(float((dx * dx).sum())) * math.sqrt(float((dy * dy).sum())))
        t_stat = abs(r) / math.sqrt((1 - r * r) / df)
        correlations.append({
            "indicator": name, "r": r, "t_stat": t_stat, "critical_value": critical,
            "significant": t_stat > critical, "strength": _strength(r),
            "direction": "positive" if r > 0 else ("negative" if r < 0 else "zero"),
        })

    train = json.loads((base / config["train"]).read_text(encoding="utf-8"))
    sizes = list(train["layer_sizes"])
    x = np.array([records[k] for k in keys])
    sens, loss, perturbation, max_var = _sensitivity(
        x, series, (sizes, float(train["learning_rate"]), int(train["epochs"]), int(train["seed"])))

    return {
        "consistency.json": {"labels": labels, "lambda_max": lam, "ci": ci, "ri": RI[n - 1],
                             "cr": cr, "passes": cr < 0.1},
        "weights.json": {"labels": labels, "methods": {m: list(w) for m, w in by_method.items()},
                         "mean": list(mean_w)},
        "equity.json": {
            "countries": countries, "years": years, "global_equity_index": ge,
            "scores": [{"country": c, "series": [{"year": y, "score": scores[(c, y)]} for y in years]}
                       for c in countries],
        },
        "topsis.json": {
            "indicators": list(INDICATORS),
            "alternatives": [{"label": c, "d_plus": d_plus[i], "d_minus": d_minus[i], "s": s[i],
                              "s_normalized": s[i] / s.sum(), "rank": rank_of[i]}
                             for i, c in enumerate(countries)],
            "ranking": [countries[i] for i in ranking],
        },
        "mining.json": {
            "scenario": scenario.get("name"), "dof": dof, "location": loc, "scale": scale,
            "total_value": value, "positive_mass": mass,
            "window": {"t1": t1, "t2": None if math.isinf(t2) else t2, "cost": cost},
            "income": incomes, "profit": {m: v - cost for m, v in incomes.items()},
            "selected_mode": config["income_mode"],
        },
        "allocation.json": {
            "basis": "equity", "mode": config["alloc_mode"], "total_profit": profit,
            "over_allocation": float(raw.sum()) - profit,
            "shares": [{"country": c, "gamma": gamma[i], "raw_share": raw[i],
                        "conserved_share": conserved[i]} for i, c in enumerate(countries)],
        },
        "correlation.json": {"alpha": 0.05, "n": len(keys), "indicators": correlations},
        "sensitivity.json": {
            "seed": int(train["seed"]), "epochs": int(train["epochs"]),
            "learning_rate": float(train["learning_rate"]), "layer_sizes": sizes,
            "final_loss": loss,
            "sensitivities": [{"indicator": n_, "value": v} for n_, v in zip(INDICATORS, sens)],
            "max_output_variation": max_var, "variation_band": VARIATION_BAND,
            "within_band": bool(max_var <= VARIATION_BAND),
        },
        "sensitivity.csv": [["indicator", "value"]] + [[n_, v] for n_, v in zip(INDICATORS, sens)],
        "perturbation.csv": [["weight_id", "w", "output"]] + perturbation,
    }


# --- scenario-sweep invariants ---------------------------------------------


def scenario_invariants(outcome: dict) -> list:
    """Violations of the properties every study case must satisfy."""
    bad = []
    for method, w in outcome["weights"].items():
        if np.any(w < 0) or abs(w.sum() - 1.0) > SUM_TOL:
            bad.append(f"{method} weights not >= 0 summing to 1")
    if not outcome["cr"] >= 0:
        bad.append(f"CR {outcome['cr']} < 0")
    if not outcome["equity_index"] >= 0:
        bad.append(f"equity index {outcome['equity_index']} < 0")
    s = outcome["topsis_s"]
    if np.any(s < 0) or np.any(s > 1):
        bad.append("TOPSIS S outside [0, 1]")
    if sorted(outcome["ranking"]) != list(range(len(s))):
        bad.append("TOPSIS ranking is not a permutation")
    profit = outcome["profit"]
    for mode, shares in outcome["conserved"].items():
        if abs(sum(shares) - profit) > SUM_TOL * abs(profit):
            bad.append(f"{mode} conserved shares sum to {sum(shares)}, not {profit}")
    return bad


def critical_mismatches(pairs) -> list:
    """(df, alpha, critical) triples that miss scipy.stats.t.ppf by more than CRITICAL_TOL."""
    from scipy import stats as sps

    if not pairs:
        return []
    df, alpha, crit = (np.array(col, dtype=float) for col in zip(*pairs))
    oracle = sps.t.ppf(1.0 - alpha / 2.0, df)
    bad = np.abs(crit - oracle) > CRITICAL_TOL
    return [f"df={d:g}: {c!r} vs t.ppf {o!r}" for d, c, o in zip(df[bad], crit[bad], oracle[bad])]

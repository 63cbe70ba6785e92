"""Layout rules for the package source, and the README example that uses it."""

import ast
import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "equimine"


def test_only_io_applies_the_json_number_rule():
    # io.write_json_report rounds every float of a report; no stage repeats it
    offenders = [p.name for p in SRC.rglob("*.py")
                 if p.name != "io.py" and "fmt6(" in p.read_text(encoding="utf-8")]
    assert offenders == []


def test_panel_modules_hold_no_per_record_objects():
    # the indicator panel is one array: io loads it and pipeline scores it in
    # one batched product, so neither builds or scores records one by one
    offenders = [(name, symbol) for name in ("io.py", "pipeline.py")
                 for symbol in ("IndicatorVector", "country_score")
                 if symbol in (SRC / name).read_text(encoding="utf-8")]
    assert offenders == []


def test_topsis_builds_no_decision_matrix():
    # a DecisionMatrix is validated once, by whoever builds it; forward,
    # normalize and score pass plain arrays rather than rebuilding one
    tree = ast.parse((SRC / "topsis.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "DecisionMatrix"]
    assert calls == []


# The one CSV reader: io._rows streams (line, row) pairs, skipping blank rows,
# numbering rows by file line and checking their width, so every loader shares
# its rules and no loader holds a whole file's rows.
def _csv_readers(tree) -> set:
    """csv.reader and csv.DictReader uses, and imports from csv, under `tree`."""
    return {node for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in ("reader", "DictReader")
                and getattr(node.value, "id", None) == "csv")
            or (isinstance(node, ast.ImportFrom) and node.module == "csv")}


def test_only_the_row_generator_reads_csv():
    io_tree = ast.parse((SRC / "io.py").read_text(encoding="utf-8"))
    [owner] = [f for f in ast.walk(io_tree) if isinstance(f, ast.FunctionDef) and f.name == "_rows"]
    allowed = _csv_readers(owner)
    assert len(allowed) == 1
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = io_tree if path.name == "io.py" else ast.parse(path.read_text(encoding="utf-8"))
        offenders += [(path.name, node.lineno) for node in _csv_readers(tree) - allowed]
    assert offenders == []


def test_sensnet_stays_within_its_line_budget():
    assert len((SRC / "sensnet.py").read_text(encoding="utf-8").splitlines()) <= 350


# The one network path: only these functions of sensnet.py run a sigmoid or a
# matrix product, so training, the sweep and the input gradients share them.
NETWORK_FUNCTIONS = {"_forward", "_backward", "output_input_gradient"}


def _network_ops(tree) -> set:
    """Calls to or uses of sigmoid, np.matmul and the @ operator under `tree`."""
    return {node for node in ast.walk(tree)
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Attribute) and node.attr == "matmul")
            or (isinstance(node, ast.Name) and node.id == "sigmoid")}


def test_only_the_network_kernels_run_the_network():
    tree = ast.parse((SRC / "sensnet.py").read_text(encoding="utf-8"))
    kernels = [f for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name in NETWORK_FUNCTIONS]
    assert sorted(f.name for f in kernels) == sorted(NETWORK_FUNCTIONS)
    assert all(_network_ops(f) for f in kernels)
    allowed = set().union(*map(_network_ops, kernels))
    assert sorted(node.lineno for node in _network_ops(tree) - allowed) == []


def test_input_sensitivities_holds_no_per_sample_loop():
    # every row goes through one stacked pass, not a Python loop or comprehension
    tree = ast.parse((SRC / "sensnet.py").read_text(encoding="utf-8"))
    [owner] = [f for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == "input_sensitivities"]
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    assert [node.lineno for node in ast.walk(owner) if isinstance(node, loops)] == []


# The one write path: pipeline.write_reports stages every report under a
# temporary name and renames it into place; any other caller of the io writers
# would put a report on disk unstaged.
REPORT_WRITERS = {"write_json_report", "write_csv"}


def _writer_calls(tree) -> set:
    return {node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
            in REPORT_WRITERS}


def test_only_write_reports_calls_the_report_writers():
    pipeline_tree = ast.parse((SRC / "pipeline.py").read_text(encoding="utf-8"))
    [owner] = [f for f in ast.walk(pipeline_tree)
               if isinstance(f, ast.FunctionDef) and f.name == "write_reports"]
    allowed = _writer_calls(owner)
    assert len(allowed) == 2
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = (pipeline_tree if path.name == "pipeline.py"
                else ast.parse(path.read_text(encoding="utf-8")))
        offenders += [(path.name, node.lineno) for node in _writer_calls(tree) - allowed]
    assert offenders == []


# The one t CDF: every integral of the t density (the curve's positive mass, the
# income over a window, the correlation test's critical value) is a t tail
# probability, which mining.t_sf gives in closed form; no module integrates.
T_SF_CALLERS = (("mining.py", "MiningCurveParams", "__post_init__"), ("mining.py", None, "income"),
                ("stats.py", None, "t_upper_critical"))


def _function(tree, owner, name):
    scope = tree if owner is None else next(
        c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == owner)
    [function] = [f for f in scope.body if isinstance(f, ast.FunctionDef) and f.name == name]
    return function


def test_t_sf_is_the_one_t_cdf():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "integrate":
                offenders.append((path.name, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "quadrature" in name for name in
                    [getattr(node, "module", None) or "", *(a.name for a in node.names)]):
                offenders.append((path.name, node.lineno))
    assert offenders == []
    for module, owner, name in T_SF_CALLERS:
        function = _function(ast.parse((SRC / module).read_text(encoding="utf-8")), owner, name)
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "t_sf"
                   for n in ast.walk(function)), (module, name)


# ROADMAP aim 2 tracks the size of src/; raise this budget only on purpose.
SRC_LINE_BUDGET = 2169


def test_src_stays_within_its_line_budget():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    assert lines <= SRC_LINE_BUDGET


def test_package_root_reexports_nothing():
    # one import path per name: `from equimine.mcda import consistency`, never
    # `from equimine import consistency`
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []


def test_readme_quickstart_prints_what_its_comments_say():
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                         re.DOTALL)
    expected = re.findall(r"^print\(.*\)  # (.*)$", block, re.MULTILINE)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    assert expected and printed.getvalue().splitlines() == expected

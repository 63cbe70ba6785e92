"""Layout rules for the package source, and the README example that uses it."""

import ast
import contextlib
import io
import re
import sys
from pathlib import Path

from conftest import cli_flags, run_cli

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


def test_the_record_check_makes_no_numpy_call():
    # IndicatorVector.__post_init__ runs once per record: plain float tests, which cost a
    # fraction of a numpy scalar ufunc call each
    tree = ast.parse((SRC / "equity.py").read_text(encoding="utf-8"))
    owner = _function(tree, "IndicatorVector", "__post_init__")
    assert [node.lineno for node in ast.walk(owner)
            if isinstance(node, ast.Name) and node.id in ("np", "numpy")] == []


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


# The one JSON field reader: io.read_fields checks every key of a JSON input against the
# input's field table, so each object read_json_object parses goes straight into it; a
# loader reading keys by hand would let a misspelled one fall back to a default.
def _calls(tree, name) -> list:
    """Calls under `tree` of a function or method named `name`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def test_every_json_object_goes_through_read_fields():
    reads, offenders = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fed = {id(arg) for call in _calls(tree, "read_fields") for arg in call.args}
        calls = _calls(tree, "read_json_object")
        reads += len(calls)
        offenders += [(path.name, call.lineno) for call in calls if id(call) not in fed]
    assert reads == 3  # the scenario, the train config and the run config
    assert offenders == []


def test_sensnet_stays_within_its_line_budget():
    assert len((SRC / "sensnet.py").read_text(encoding="utf-8").splitlines()) <= 359


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


# The one write path: pipeline.write_reports stages every report in a fresh hidden
# directory in --out and renames it into place; any other caller of the io writers
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


# The one loader: pipeline.load_inputs reads every input file with the io loader
# INPUT_FILES names for it, and hashes its bytes; a stage or a CLI body reading a
# file itself would leave the file out of the config digest.
def test_only_the_one_loader_uses_the_io_loaders():
    from equimine import io as equimine_io, pipeline
    loaders = {name for name in vars(equimine_io) if name.startswith("load_")}
    assert set(pipeline.INPUT_FILES.values()) == loaders
    named, fetched = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ({getattr(node, "attr", None), getattr(node, "id", None)} & loaders
                    or isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & loaders):
                named.append((path.name, node.lineno))
            if isinstance(node, ast.FunctionDef):
                fetched += [(path.name, node.name) for call in ast.walk(node)
                            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr"
                            and getattr(call.args[0], "id", None) == "io"]
    assert named == []
    assert fetched == [("pipeline.py", "load_inputs")]


# The one stage table: cli.py parses flags and prints results. It reaches the pipeline
# only through run_stage (every subcommand) and run_pipeline (report); reading the run
# config, loading inputs, building the run and running a stage happen in pipeline.
CLI_PIPELINE_CALLS = {"run_stage", "run_pipeline"}
CLI_FORBIDDEN_CALLS = {"load_inputs", "PovertyPolicy", "poverty_multipliers", "RunConfig"}


def test_cli_reaches_the_pipeline_only_through_its_runners():
    from equimine import cli, pipeline
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert {f.attr for f in calls if isinstance(f, ast.Attribute)
            and getattr(f.value, "id", None) == "pipeline"} == CLI_PIPELINE_CALLS
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "pipeline" and node.attr.startswith("_")] == []
    names = {getattr(f, "attr", None) or getattr(f, "id", None) for f in calls} - {None}
    assert sorted(name for name in names - CLI_PIPELINE_CALLS if name in CLI_FORBIDDEN_CALLS
                  or name.startswith("load_") or name.endswith("_stage")) == []
    _, output = run_cli(["--help"])
    [choices] = re.findall(r"\{([\w,-]+)\}", output.split("\n\n")[0])  # the usage line
    subcommands = set(choices.split(",")) - {"report"}
    assert set(cli.SUBCOMMANDS) == subcommands
    assert {stage for stage, *_ in cli.SUBCOMMANDS.values()} <= set(pipeline.STAGES)
    # one generic body serves every subcommand
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            and node.name in subcommands] == []


def _poverty_policy_calls(node) -> list:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call) and "PovertyPolicy"
            in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]


def test_only_run_config_builds_the_poverty_policy():
    # RunConfig holds bottom_count and multiplier flat and builds the policy from them,
    # so both runners pass settings straight into RunConfig
    trees = {name: ast.parse((SRC / name).read_text(encoding="utf-8"))
             for name in ("pipeline.py", "cli.py")}
    owned = _poverty_policy_calls(_function(trees["pipeline.py"], "RunConfig", "__post_init__"))
    assert [(name, call.lineno) for name, tree in trees.items()
            for call in _poverty_policy_calls(tree) if call not in owned] == []
    assert len(owned) == 1


# The domain modules compute; io reads and writes files, pipeline runs the stages and
# cli parses flags. So a domain module imports none of those three, and each default or
# schema it owns (INDICATOR_COLUMNS, MiningCurveParams' defaults) is read from it.
DOMAIN_MODULES = ("mcda", "topsis", "equity", "mining", "stats", "allocation", "sensnet",
                  "errors")
OUTER_MODULES = {"io", "pipeline", "cli"}


def _imported_modules(node) -> set:
    """The equimine modules an import names: `from .io import x`, `from . import io`,
    `import equimine.io` or `from equimine import io`."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("equimine.")}
    if not isinstance(node, ast.ImportFrom) or not (node.level or
                                                    node.module.startswith("equimine")):
        return set()
    module = (node.module or "").removeprefix("equimine").lstrip(".")
    return {module.split(".")[0]} if module else {a.name for a in node.names}


def test_src_imports_only_the_standard_library_and_numpy():
    # numpy is the one runtime dependency (pyproject.toml)
    imported = {(path.name, name.split(".")[0]) for path in sorted(SRC.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                for name in ([a.name for a in node.names] if isinstance(node, ast.Import) else
                             [node.module] if isinstance(node, ast.ImportFrom)
                             and node.level == 0 else [])}
    assert sorted((path, name) for path, name in imported if name not in
                  sys.stdlib_module_names | {"numpy", "equimine"}) == []


def test_domain_modules_import_no_io_pipeline_or_cli():
    offenders = [(f"{name}.py", node.lineno) for name in DOMAIN_MODULES
                 for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8")))
                 if _imported_modules(node) & OUTER_MODULES]
    assert offenders == []


def test_cli_leaves_unreadable_inputs_to_io():
    # io turns an input it cannot read into the error JSON of the stage reading it; an
    # input flag whose type checked or opened the file (argparse.FileType, say) would
    # print its usage text and exit 2 first, so an input flag's value is its path string
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert [node.arg for node in ast.walk(_function(tree, None, "_input"))
            if isinstance(node, ast.keyword) and node.arg == "type"] == []
    assert [node.lineno for node in ast.walk(tree) if "FileType" in (
        getattr(node, "id", None), getattr(node, "attr", None))] == []


# The setting flags: each is one _option declaration with no default=, so an absent flag
# is None, which leaves the setting to the run config, else to RunConfig's default.
SETTING_FLAGS = ("--income-mode", "--alloc-mode", "--alloc-basis", "--bottom-count",
                 "--multiplier", "--seed")


def test_each_setting_flag_is_declared_once_without_a_default():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    options = [call for call in ast.walk(tree) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "_option"]
    declared = {flag: [call for call in options
                       if any(getattr(arg, "value", None) == flag for arg in call.args)]
                for flag in SETTING_FLAGS}
    assert {flag: len(calls) for flag, calls in declared.items()} == dict.fromkeys(SETTING_FLAGS, 1)
    assert [flag for flag, calls in declared.items() for call in calls
            if any(keyword.arg == "default" for keyword in call.keywords)] == []


# The four exception types: pipeline._stage turns each into the error JSON naming its
# stage, so an error the toolkit raises never reaches the user as a traceback.
RAISED_TYPES = {"EquimineError", "ValidationError", "ParseError", "PipelineError"}


def test_every_raise_names_one_of_the_four_exception_types():
    offenders = [(path.name, node.lineno) for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                 and getattr(node.exc.func, "id", None) not in RAISED_TYPES]
    assert offenders == []


# ROADMAP aim 2 tracks the size of src/; raise this budget only on purpose.
SRC_LINE_BUDGET = 2099


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


FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def test_readme_cli_synopsis_matches_each_commands_help():
    # the usage block names the flags each command's --help lists, the optional ones in
    # brackets, and README's CLI section names no flag that no command has
    from equimine.cli import SUBCOMMANDS
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n")[1]
    section = section.split("\n## ")[0]
    usages = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.DOTALL):
        lines = block.replace("\\\n", " ").splitlines()
        usages.append({line.split()[1]: line for line in lines if line.startswith("equimine ")})
    [usage] = [entries for entries in usages if len(entries) > 1]
    commands = [*SUBCOMMANDS, "report"]
    assert sorted(usage) == sorted(commands)
    helps = {command: cli_flags(command) for command in commands}
    for command, flags in helps.items():
        assert set(FLAG.findall(usage[command])) == set(flags), command
        _, output = run_cli([command, "--help"])  # its usage line brackets the optional flags
        optional = set(re.findall(r"\[(--[a-z][a-z-]*)", output.split("\n\n")[0]))
        assert set(re.findall(r"\[(--[a-z][a-z-]*)", usage[command])) == optional, command
    assert set(FLAG.findall(section)) - set().union({"--help"}, *helps.values()) == set()

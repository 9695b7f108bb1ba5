import ast
import builtins
import importlib
import json
import os
import statistics
import subprocess
import sys
import types
from pathlib import Path

import softctc


def test_every_exported_name_resolves_to_a_non_module():
    assert len(set(softctc.__all__)) == len(softctc.__all__)
    for name in softctc.__all__:
        assert not isinstance(getattr(softctc, name), types.ModuleType), name



def _raised_classes():
    """The classes that ``raise`` statements under src/softctc name."""
    raised = set()
    for path in Path(softctc.__file__).parent.glob("*.py"):
        # __main__ would run the CLI on import, and raises nothing itself
        if path.stem in ("__init__", "__main__"):
            namespace = vars(softctc)
        else:
            namespace = vars(importlib.import_module(f"softctc.{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(namespace.get(exc.id, getattr(builtins, exc.id, None)))
    return {cls for cls in raised if isinstance(cls, type)}


def test_every_exported_error_is_raised():
    # an exported error type that nothing raises promises callers a failure
    # the library never reports
    raised = _raised_classes()
    exported = [getattr(softctc, name) for name in softctc.__all__]
    errors = [cls for cls in exported if isinstance(cls, type) and issubclass(cls, Exception)]
    assert errors
    unraised = [cls.__name__ for cls in errors if not any(issubclass(r, cls) for r in raised)]
    assert not unraised, unraised


def test_import_does_not_load_scipy_special():
    # scipy.special is a tenth of a second of startup, and the package needs
    # none of it; a fresh interpreter shows what importing softctc loads
    env = dict(os.environ, PYTHONPATH=str(Path(softctc.__file__).parents[1]))
    code = "import sys, softctc; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _unused_imports(path):
    """Names a module imports but never reads, with their line numbers."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    package = Path(softctc.__file__).parent
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]  # re-exports
    modules += Path(__file__).parent.glob("*.py")
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(modules)
        for line, name in _unused_imports(path)
    ]
    assert not found, found


def _private_imports(path):
    """Underscore names a package module takes from its sibling modules.

    Covers ``from .sibling import _x`` and ``sibling._x`` after
    ``from . import sibling``.
    """
    tree = ast.parse(path.read_text())
    siblings, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    return private


def test_oracle_imports_no_private_name():
    # the oracle judges the fast paths: a helper shared with them, say the
    # header and comment handling of the file readers, would carry the same
    # bug into both sides of a parity test
    assert not _private_imports(Path(softctc.__file__).parent / "oracle.py")


def _open_callers():
    """``module.function`` of the innermost function around each ``open`` call under src/softctc."""
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(softctc.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return callers


def test_files_are_opened_in_one_place_each_way():
    # a writer leaves no partial file only because it writes through io._write,
    # after all of its checks; the oracle reads on its own, as it shares no
    # helper with the readers it judges
    assert set(_open_callers()) == {"io._write", "io._read_lines", "oracle.reference_read_cn"}


def _resolve(module, name):
    """``module.name`` as an attribute or a submodule; None when neither exists."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return None


def _missing_softctc_names(path):
    """Names a script reads from softctc that the package does not provide.

    Covers ``import softctc[.sub] [as x]``, ``from softctc[.sub] import X``
    and every attribute read through a bound softctc module, e.g.
    ``cnio.read_cn`` after ``from softctc import io as cnio``.
    """
    tree = ast.parse(path.read_text())
    bound = {}  # local name -> softctc module
    missing = []

    def lookup(dotted, line):
        value = softctc
        for name in dotted.split(".")[1:]:
            value = _resolve(value, name)
            if value is None:
                missing.append((line, dotted))
                return None
        return value

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "softctc":
                    module = lookup(alias.name, node.lineno)
                    if module is not None:
                        bound[alias.asname or "softctc"] = module if alias.asname else softctc
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] != "softctc":
                continue
            for alias in node.names:
                value = lookup(f"{node.module}.{alias.name}", node.lineno)
                if isinstance(value, types.ModuleType):
                    bound[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            lookup(f"{bound[node.value.id].__name__}.{node.attr}", node.lineno)
    return sorted(missing)


def test_benchmark_scripts_import_only_existing_names():
    # the benchmark is not part of this suite, so a renamed or deleted public
    # name would otherwise only show when the benchmark runs
    scripts = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert scripts
    found = [
        f"{path.name}:{line}: {name}"
        for path in scripts
        for line, name in _missing_softctc_names(path)
    ]
    assert not found, found


BENCH_METRICS = {
    "lines_per_s": "higher",
    "op_ms.p50": "lower",
    "op_ms.tail": "lower",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
}


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def test_bench_records_are_complete_and_recompute():
    # each BENCH_<tag>.json holds the paired perfbench runs behind a speed
    # claim; its summaries must follow from its runs
    records = sorted(Path(__file__).parents[1].glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert {"tag", "parent", "command", "metrics", "workloads"} <= record.keys(), path.name
        assert record["metrics"] == BENCH_METRICS, path.name
        for name, workload in record["workloads"].items():
            where = f"{path.name}: {name}"
            runs = workload["runs"]
            assert runs, where
            for run in runs:
                assert isinstance(run["seed"], int) and run["first"] in ("parent", "change"), where
                for side in ("parent", "change"):
                    assert 0 <= run[side]["failed"] <= run[side]["attempted"], where
                    assert set(BENCH_METRICS) <= run[side].keys(), where
            for side in ("parent", "change"):
                for metric in BENCH_METRICS:
                    values = [run[side][metric] for run in runs]
                    assert workload["summary"][side][metric] == _summary(values), (where, side, metric)
            for metric, better in BENCH_METRICS.items():
                sign = 1.0 if better == "higher" else -1.0
                wins = sum(sign * (r["change"][metric] - r["parent"][metric]) > 0.0 for r in runs)
                assert workload["wins"][metric] == wins, (where, metric)

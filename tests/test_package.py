import ast
import json
import statistics
import types
from pathlib import Path

import softctc


def test_every_exported_name_resolves_to_a_non_module():
    assert len(set(softctc.__all__)) == len(softctc.__all__)
    for name in softctc.__all__:
        assert not isinstance(getattr(softctc, name), types.ModuleType), name



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

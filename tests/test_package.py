import ast
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

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list:
    """Names a module binds by an import and never reads, by an AST scan of
    the whole file: an import inside a function counts as read when the name
    is read anywhere in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    # a package's __init__.py imports to re-export
    files = [p for d in ("src", "scripts", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 10
    unused = {str(p.relative_to(ROOT)): names for p in files if (names := unused_imports(p))}
    assert unused == {}


def stabdet_imports(path: Path) -> list:
    """(line, module, name) of each name a file imports from a stabdet
    module, imports inside functions included."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stabdet"
            for alias in node.names]


def test_benchmark_imports_resolve():
    # perfbench's layer probes import library names inside functions, so a
    # name removed from stabdet would otherwise fail only a traced benchmark
    # run; this reads perfbench/ and runs none of it
    imports = [(path.name, *entry) for path in sorted((ROOT / "perfbench").glob("*.py"))
               for entry in stabdet_imports(path)]
    assert {"multiply", "commutes", "f2_rank", "generator_matrix"} <= {e[3] for e in imports}
    missing = [f"{file}:{line}: {module}.{name}" for file, line, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []

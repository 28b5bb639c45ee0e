"""The package's import structure, read from the source with ``ast``."""

import ast
from pathlib import Path

import corrdet

# Modules that hold no post-processing and so must not import it.
BELOW_PIPELINE = ("geometry", "metrics", "ingest")


def _imports(tree):
    """``(corrdet module imported, deferred)`` for every import of a
    package module; deferred means inside a function or under an ``if``
    on ``TYPE_CHECKING``."""
    found = []

    def visit(node, deferred):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                found.append((child.module, deferred))
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("corrdet."):
                found.append((child.module.removeprefix("corrdet."), deferred))
            elif isinstance(child, ast.Import):
                names = [a.name for a in child.names if a.name.startswith("corrdet.")]
                found.extend((name.removeprefix("corrdet."), deferred) for name in names)
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            guarded = isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test)
            visit(child, deferred or nested or guarded)

    visit(tree, False)
    return found


def test_no_deferred_imports_and_no_pipeline_below_it():
    problems = []
    for path in sorted(Path(corrdet.__file__).parent.glob("*.py")):
        for module, deferred in _imports(ast.parse(path.read_text(), str(path))):
            if deferred:
                problems.append(f"{path.name}: deferred import of {module}")
            if path.stem in BELOW_PIPELINE and module == "pipeline":
                problems.append(f"{path.name}: imports pipeline")
    assert problems == []

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


def _private_definitions(tree):
    """``(name, node)`` for every private name a module defines at its top
    level: functions, classes and assigned names that start with one
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_module_name_is_used():
    # used: read as a name or an attribute anywhere in the package, outside
    # the statement that defines it
    paths = sorted(Path(corrdet.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in paths}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    unused = []
    for file_name, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if all(id(n) in inside for n in uses.get(name, [])):
                unused.append(f"{file_name}: {name}")
    assert unused == []


def _exported(tree):
    """Names listed in a module's top-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used():
    # used: read as a name somewhere in the importing module, or listed in
    # its __all__ (a re-export)
    unused = []
    for path in sorted(Path(corrdet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []

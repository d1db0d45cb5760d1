"""Guard against dead library code: every ``repro`` module must be reached.

The program is what ``src/repro``, ``examples/`` and ``benchmarks/`` run.
A module counts as reached when some other file of the program — not a
package ``__init__.py``, whose re-exports alone reach nothing — either
imports the module itself or imports one of the module's top-level names
from the module or from a package that contains it.  Code that only its
own tests import is not reached and should be deleted with its tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROGRAM_DIRS = (SRC / "repro", ROOT / "examples", ROOT / "benchmarks")
EXEMPT = {"__init__", "__main__", "_version"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _top_level_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _imports(tree: ast.Module, package: str):
    """Yield ``(module, name)`` pairs; ``name`` is None for ``import module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name


def unreached_modules() -> list:
    modules = {}  # dotted name -> (path, top-level names)
    files = []  # (path, parsed tree, package its relative imports resolve in)
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            package = ""
            if directory.name == "repro":
                name = _module_name(path)
                modules[name] = (path, _top_level_names(tree))
                package = name.rpartition(".")[0]
            files.append((path, tree, package))

    reached = set()
    for path, tree, package in files:
        if path.name == "__init__.py":
            continue
        for base, name in _imports(tree, package):
            targets = [base] if name is None else [base, f"{base}.{name}"]
            reached.update(t for t in targets if t in modules and modules[t][0] != path)
            if name is None:
                continue
            for module, (mod_path, names) in modules.items():
                inside = module == base or module.startswith(base + ".")
                if inside and name in names and mod_path != path:
                    reached.add(module)

    return sorted(
        m.removeprefix("repro.")
        for m, (path, _) in modules.items()
        if path.stem not in EXEMPT and m not in reached
    )


def test_every_module_is_reached_by_the_program():
    unreached = unreached_modules()
    assert not unreached, (
        "modules no CLI command, library path, example or benchmark imports "
        f"(delete them with their tests): {', '.join(unreached)}"
    )

"""Guard against dead library code: every ``repro`` module, public
function and public method must be reached.

The program is what ``src/repro``, ``examples/`` and ``benchmarks/`` run.
A module counts as reached when some other file of the program — not a
package ``__init__.py``, whose re-exports alone reach nothing — either
imports the module itself or imports one of the module's top-level names
from the module or from a package that contains it.  A public function or
method (top level, or in a top-level class) counts as reached, by a
heuristic that goes by name alone, when a file of the program other than
a package ``__init__.py`` names it: as a variable, an attribute, an
imported name or a string constant.  Code that only its own tests reach
is not reached and should be deleted with its tests.

Matching by bare name cannot see two kinds of dead code:

* a method whose name another class also defines: ``evaluate``,
  ``vector``, ``from_dict``, ``snapshot`` and ``to_dict`` all count as
  reached as soon as one class's method of that name runs;
* a keyword option no caller passes: the parameter's name is never
  looked up, only the function's.

Those need a runtime reach trace.  Run a copy of the program under
``sys.setprofile`` and record each ``(file, first line)`` of the code
objects that get called, over: the five examples; ``repro optimize`` for
every registered method; ``report``, ``compare`` and ``trace`` on its
log; ``repro chaos`` (a spec plan and a random plan); ``repro bench
--profile smoke``; every ``serve`` command CI runs, with ``--method
pamo`` and ``--method random`` too; ``repro figure N --quick`` for all
nine figures; one run of each ``benchmarks/e2e`` workload; and the
``benchmarks/test_*.py`` files.  Any ``def`` under ``src/repro`` the
trace never enters is a candidate; for every keyword option, grep the
call sites for it.  The expected residue is failure and lifecycle code
a clean run does not enter: ``PaMO._fallback_schedule``, the
``/metrics`` HTTP handler, ``request_stop`` on SIGTERM,
``_aggregate_spans_from_events`` for a killed run's log,
``JsonlSink._rotate``, ``serve top``, and the pickling hooks
(``__getstate__``/``__setstate__``).
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


#: Public names the program need not name itself, each with the reason.
EXEMPT_FUNCTIONS = {
    "_Handler.do_GET": "framework callback: http.server dispatches GET to it by name",
    "_Handler.log_message": "framework callback: overrides http.server's request log",
    "ServeDecision.signature": "readable replay fingerprint tests compare runs by",
    "exhaustive_best": "brute-force optimum tests compare the schedulers against",
    "eubo_closed_form": "scalar closed form tests check the batched EUBO against",
    "GroupingResult.validate": "the Theorem-3 check tests run on every grouping",
    "IncrementalPlanner.rank_configs": "the oracle suite's yardstick",
    "IncrementalPlanner.set_config": "the oracle suite's yardstick",
    "Kernel.gradients": "scalar oracle the GP bit-identity tests compare against",
    "PreferenceGP.predict_pair_probability": (
        "scalar oracle the GP bit-identity tests compare against"
    ),
}

#: Public names only their own unit tests reach, still to be deleted with
#: those tests.  The guard holds this set exact, so it can only shrink.
UNREACHED_FUNCTIONS: set[str] = set()


def _public_functions(tree: ast.Module):
    """Yield ``(qualified name, name)`` of the public top-level functions
    and the public methods of top-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _named(tree: ast.Module) -> set:
    """Every identifier the file names: variables, attributes, imported
    names and identifier-shaped string constants."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def unreached_functions() -> list:
    defined = []  # (qualified name, name)
    named = set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            if directory.name == "repro":
                defined.extend(_public_functions(tree))
            if path.name != "__init__.py":
                named |= _named(tree)
    return sorted(
        qualified
        for qualified, name in defined
        if name not in named and qualified not in EXEMPT_FUNCTIONS
    )


def test_every_public_function_is_reached_by_the_program():
    unreached = set(unreached_functions())
    new = sorted(unreached - UNREACHED_FUNCTIONS)
    assert not new, (
        "public functions/methods no CLI command, library path, example or "
        f"benchmark names (delete them with their tests): {', '.join(new)}"
    )
    gone = sorted(UNREACHED_FUNCTIONS - unreached)
    assert not gone, (
        f"now reached or deleted; drop from UNREACHED_FUNCTIONS: {', '.join(gone)}"
    )

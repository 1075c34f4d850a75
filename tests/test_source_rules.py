"""Rules about the source of the package itself, read from its files.

Every file under src/ is read as text, its bytecode caches aside, and
every module of src/pwexpand is parsed."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "pwexpand"


def _source_lines():
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            for number, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), start=1):
                yield f"{path.relative_to(SRC)}:{number}: {line}", line


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _grep(pattern):
    return [where for where, line in _source_lines()
            if re.search(pattern, line)]


def test_no_numpy_random_in_src():
    # every seeded number comes from random.Random.random(), whose sequence
    # for a seed Python keeps across versions
    assert _grep(r"np\.random|numpy\.random") == []


def test_no_mpmath_or_sympy_import_in_src():
    # they are test oracles only, not dependencies of the package
    assert _grep(r"(import|from)\s+(mpmath|sympy)\b") == []


def test_no_private_name_imported_from_a_sibling_module():
    # a module's _names are its own; tests may still import them
    bad = [f"{path.name}:{node.lineno}: {alias.name}"
           for path, tree in _modules()
           for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom) and node.level
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []


#: a ToolError subclass; MemoryError from dense_t, which cli.main reports;
#: ArgumentTypeError from cli._positive_int, argparse's exit 2
ALLOWED_RAISES = {"ToolError", "ConfigError", "ParseError", "EvalError",
                  "MemoryError", "ArgumentTypeError"}


def _raised(exc):
    while isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return getattr(exc, "id", None)


def test_every_raise_names_the_package_error():
    # a bare raise re-raises what was caught
    bad = [f"{path.name}:{node.lineno}: {ast.unparse(node.exc)}"
           for path, tree in _modules()
           for node in ast.walk(tree)
           if isinstance(node, ast.Raise) and node.exc is not None
           and _raised(node.exc) not in ALLOWED_RAISES]
    assert bad == []


def _import_graph():
    """module -> the sibling modules it imports relatively, at any depth
    of its body (function-level imports included)."""
    names = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path, tree in _modules():
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    targets.add(node.module.split(".")[0])
                else:
                    targets.update(alias.name for alias in node.names)
        graph[path.stem] = sorted(targets & names)
    return graph


def _cycle(graph):
    """One import cycle as a list of modules, first repeated last, or []."""
    state = {}  # module -> "open" while on the path, "done" after

    def visit(module, path):
        state[module] = "open"
        for target in graph[module]:
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                found = visit(target, path + [target])
                if found:
                    return found
        state[module] = "done"
        return []

    for module in sorted(graph):
        if module not in state:
            found = visit(module, [module])
            if found:
                return found
    return []


def test_the_relative_imports_between_modules_have_no_cycle():
    cycle = _cycle(_import_graph())
    assert cycle == [], " -> ".join(cycle)


def test_the_cycle_finder_names_a_cycle():
    graph = {"a": ["b"], "b": ["c"], "c": ["b"], "d": []}
    assert _cycle(graph) == ["b", "c", "b"]
    assert _cycle({"a": ["b"], "b": [], "c": ["a", "b"]}) == []

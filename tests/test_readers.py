"""Every top-level function and class of the package has a reader.

A definition is read when reachable code names it, through its own module
or through an import.  The roots are the module-level statements of the
package (the family registry, the CLI entry point) and
``bench/library_steps.py``, the benchmark step that calls the library
directly; every definition that a reachable body names is reachable too.
Re-exports in ``__init__`` are imports, not readers, and a definition that
only an unread one names is itself unread.  Whatever no report needs lives
in ``tests/oracles.py`` or is deleted.

No check in the package is an ``assert`` statement, which ``python -O``
strips: a failed check raises ArithmeticError, which the CLI maps to exit 1."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snspectra"
LIBRARY_STEPS = ROOT / "bench" / "library_steps.py"

# paper content that no report reads yet
ALLOWED_UNREAD = {
    "bounds.paper_tail_split": "read by item 3's `stability` command (ROADMAP.md)",
    "bounds.stability_gap_bound": "read by item 3's `stability` command (ROADMAP.md)",
    "bounds.projection_mass": "read by item 3's `stability` command (ROADMAP.md)",
}

DEFS = (ast.FunctionDef, ast.ClassDef)


def _bindings(tree: ast.Module, module: str, modules: set[str]) -> dict[str, str]:
    """Local name -> "module.name" of a definition, or the name of a package
    module, for the module's own definitions and every package import in it
    (imports inside functions included)."""
    out = {node.name: f"{module}.{node.name}" for node in tree.body if isinstance(node, DEFS)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("snspectra")):
            home = (node.module or "").removeprefix("snspectra").lstrip(".") or "__init__"
            for alias in node.names:
                is_module = home == "__init__" and alias.name in modules
                out[alias.asname or alias.name] = alias.name if is_module else f"{home}.{alias.name}"
    return out


def unread_definitions() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    bindings = {m: _bindings(tree, m, set(trees)) for m, tree in trees.items()}
    bodies = {
        f"{m}.{node.name}": (m, node)
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFS)
    }

    def resolve(target: str) -> str:
        """Follow re-exports (``__init__``, imports) to the defining module."""
        while target not in bodies and "." in target:
            module, name = target.split(".")
            nxt = bindings[module].get(name, target)
            if nxt == target:  # not a definition, or one outside the package
                break
            target = nxt
        return target

    def reads(module: str, nodes) -> set[str]:
        out = set()
        names = bindings[module]
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    out.add(resolve(names[sub.id]))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    home = names.get(sub.value.id)
                    if home in trees:
                        out.add(resolve(f"{home}.{sub.attr}"))
        return out

    steps = ast.parse(LIBRARY_STEPS.read_text())
    bindings["library_steps"] = _bindings(steps, "library_steps", set(trees))
    frontier = reads("library_steps", [steps])
    for m, tree in trees.items():
        frontier |= reads(m, [node for node in tree.body if not isinstance(node, DEFS)])
    live: set[str] = set()
    while frontier := (frontier & bodies.keys()) - live:
        live |= frontier
        frontier = set().union(*(reads(m, [node]) for m, node in map(bodies.get, frontier)))
    return bodies.keys() - live


def test_every_definition_has_a_reader():
    assert unread_definitions() == set(ALLOWED_UNREAD)


def test_no_assert_statements():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []

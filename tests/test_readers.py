"""Every top-level function and class of the package has a reader.

A definition is read when reachable code names it, through its own module
or through an import.  The roots are the module-level statements of the
package (the family registry, the CLI entry point) and
``bench/library_steps.py``, the benchmark step that calls the library
directly; every definition that a reachable body names is reachable too.
The package root imports nothing, so no re-export can pass for a reader,
and a definition that only an unread one names is itself unread.  Whatever
no report needs lives in ``tests/oracles.py`` or is deleted.

Likewise every optional parameter (defaulted or keyword-only) of a read
top-level function is passed by some call in the package or in
``bench/library_steps.py``: an option that only tests set is a second mode
with no production user, and it goes to the oracles too.

No package module imports an underscore name from another: a helper that
two modules share is public, or it lives with its one user.

No check in the package is an ``assert`` statement, which ``python -O``
strips: a failed check raises ArithmeticError, which the CLI maps to exit 1."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snspectra"
LIBRARY_STEPS = ROOT / "bench" / "library_steps.py"

# paper content that no report reads yet
ALLOWED_UNREAD = {
    "bounds.paper_tail_split": "read by item 4's `stability` command (ROADMAP.md)",
    "bounds.stability_gap_bound": "read by item 4's `stability` command (ROADMAP.md)",
    "bounds.projection_mass": "read by item 4's `stability` command (ROADMAP.md)",
}

# optional parameters that only the tests set
ALLOWED_UNPASSED = {
    "cli.main.argv": "the tests' entry point; the console script passes none",
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


def _parse() -> tuple[dict[str, ast.Module], ast.Module, dict[str, dict[str, str]], dict]:
    """(package module trees, the library step's tree, bindings of every
    one of them, "module.name" -> (module, node) of each package definition)."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    steps = ast.parse(LIBRARY_STEPS.read_text())
    bindings = {m: _bindings(tree, m, set(trees)) for m, tree in trees.items()}
    bindings["library_steps"] = _bindings(steps, "library_steps", set(trees))
    bodies = {
        f"{m}.{node.name}": (m, node)
        for m, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFS)
    }
    return trees, steps, bindings, bodies


TREES, STEPS, BINDINGS, BODIES = _parse()


def resolve(target: str) -> str:
    """Follow imports to the defining module."""
    while target not in BODIES and "." in target:
        module, name = target.split(".")
        nxt = BINDINGS[module].get(name, target)
        if nxt == target:  # not a definition, or one outside the package
            break
        target = nxt
    return target


def _named(module: str, node: ast.AST) -> str | None:
    """The resolved "module.name" that ``node`` names in ``module``: a bound
    name, or an attribute of a bound package module; None otherwise."""
    names = BINDINGS[module]
    if isinstance(node, ast.Name) and node.id in names:
        return resolve(names[node.id])
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        home = names.get(node.value.id)
        if home in TREES:
            return resolve(f"{home}.{node.attr}")
    return None


def _reads(module: str, nodes) -> set[str]:
    return {
        name for node in nodes for sub in ast.walk(node) if (name := _named(module, sub)) is not None
    }


def unread_definitions() -> set[str]:
    frontier = _reads("library_steps", [STEPS])
    for m, tree in TREES.items():
        frontier |= _reads(m, [node for node in tree.body if not isinstance(node, DEFS)])
    live: set[str] = set()
    while frontier := (frontier & BODIES.keys()) - live:
        live |= frontier
        frontier = set().union(*(_reads(m, [node]) for m, node in map(BODIES.get, frontier)))
    return BODIES.keys() - live


def unpassed_parameters() -> set[str]:
    """"module.function.parameter" of each defaulted or keyword-only
    parameter of a read top-level function that no call in the package or
    in ``bench/library_steps.py`` passes, by position or by keyword."""
    optional = {}  # function -> (positional parameter names, optional ones)
    for name in BODIES.keys() - unread_definitions():
        node = BODIES[name][1]
        if isinstance(node, ast.FunctionDef):
            positional = node.args.posonlyargs + node.args.args
            defaulted = positional[len(positional) - len(node.args.defaults) :]
            optional[name] = (
                [a.arg for a in positional],
                {a.arg for a in defaulted + node.args.kwonlyargs},
            )
    passed = set()
    for module, tree in [*TREES.items(), ("library_steps", STEPS)]:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and (target := _named(module, call.func)) in optional:
                positional = optional[target][0][: len(call.args)]
                keywords = [kw.arg for kw in call.keywords if kw.arg is not None]
                passed |= {f"{target}.{p}" for p in positional + keywords}
    return {f"{f}.{p}" for f, (_, params) in optional.items() for p in params} - passed


def test_every_definition_has_a_reader():
    assert unread_definitions() == set(ALLOWED_UNREAD)


def test_every_optional_parameter_is_passed_by_the_package():
    assert unpassed_parameters() == set(ALLOWED_UNPASSED)


def test_package_init_imports_nothing():
    # the modules are the API; a re-export list is a second surface to keep
    imports = [
        node.lineno
        for node in ast.walk(TREES["__init__"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


def test_no_assert_statements():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def private_imports() -> list[str]:
    """"module: name" of each underscore name that a package module imports
    from another package module; a name another module needs is not private."""
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("snspectra")
            ):
                found += [f"{module}: {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_package_module_imports_a_private_name():
    assert private_imports() == []

"""Every top-level function and class of the package has a reader.

A definition is read when reachable code names it, through its own module
or through an import.  The roots are the module-level statements of the
package (the family registry, the CLI entry point) and
``bench/library_steps.py``, the benchmark step that calls the library
directly; every definition that a reachable body names is reachable too.
The package root imports nothing, so no re-export can pass for a reader,
and a definition that only an unread one names is itself unread.  Whatever
no report needs lives in ``tests/oracles.py`` or is deleted.

Every module-level constant of the package is read, by package code or by
``bench/library_steps.py``: a constant that a change replaced does not
linger.

Likewise every optional parameter (defaulted or keyword-only) of a read
top-level function is passed by some call in the package or in
``bench/library_steps.py``: an option that only tests set is a second mode
with no production user, and it goes to the oracles too.

No package module imports an underscore name from another: a helper that
two modules share is public, or it lives with its one user.

Every option of the CLI is set by a README ``snspectra`` command or by a
CLI step of ``bench/workloads.py``: a flag that only tests pass is a mode
with no user, and a limit belongs in a constant beside its route.

No check in the package is an ``assert`` statement, which ``python -O``
strips: a failed check raises ArithmeticError, which the CLI maps to exit 1.

Rows of permutations enter the package through one door: ``Family`` checks
them, and no other package function hands an argument of its own to
``np.asarray`` or ``np.array``, so a second hand-rolled row check fails here
instead of landing.

Every check (``raise ArithmeticError`` or ``LPError``) and every refusal
(``raise ValueError``), or raise of a package subclass of one of them, in
the package is named by a string of a test, so a check that no test makes
fire cannot become ``pass`` unnoticed; no two functions raise one message,
so a test that names a message names one function's check; and no two
functions guard such a raise with one condition, so an input rule that
several routes share is checked by one function that they all call.  A
resource cap (a ``*_CAP`` constant) is read by the refusal guards of one
module only, so a cap that a library route checks is refused by that
route's check, which the CLI calls too, and a cap of the CLI alone by
``cli._cap``.

Agreements are counted in ``families`` alone: no other module names
``AGREEMENT_BLOCK`` or ``agreement_counts``, ``spectrum`` imports
``families`` only inside the oracle, and ``search`` imports ``spectrum``
only for the bound of a search cut short."""

import argparse
import ast
import re
import runpy
from pathlib import Path

import pytest

from snspectra import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "snspectra"
LIBRARY_STEPS = ROOT / "bench" / "library_steps.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
README = ROOT / "README.md"

# paper content that no report reads yet
ALLOWED_UNREAD = {
    "bounds.paper_tail_split": "read by item 4's `stability` command (ROADMAP.md)",
    "bounds.stability_gap_bound": "read by item 4's `stability` command (ROADMAP.md)",
}

# module-level constants that no package code reads
ALLOWED_UNREAD_CONSTANTS = {
    "__init__.__version__": "package metadata, read by tools from outside",
}

# optional parameters that only the tests set
ALLOWED_UNPASSED = {
    "cli.main.argv": "the tests' entry point; the console script passes none",
}

# conditions that guard a refusal in two functions, each for its own rule
ALLOWED_SHARED_GUARDS = {
    "n < 4": "two rules with one threshold: B's four tail elements need the "
    "points 1..4 (families.hilton_milner_tail), and (n-2, 2) is a partition "
    "only from n = 4 on (bounds.paper_tail_split)",
}

# CLI options that no README command or benchmark step sets
ALLOWED_UNSET_OPTIONS = {
    "--out": "a deployment path, which no fixed command can name",
    "--seed": "only echoed; bench/run.py and tests/test_golden.py pass it to every step",
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


def unread_constants() -> set[str]:
    """"module.name" of each module-level assignment of the package that no
    load of a name in the package or in ``bench/library_steps.py`` reads,
    in its own module or through an import or a module attribute."""
    constants = {
        f"{m}.{target.id}"
        for m, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    read = set()
    for module, tree in [*TREES.items(), ("library_steps", STEPS)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(f"{module}.{node.id}")
            read.add(_named(module, node))
    return constants - read


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


def test_every_module_constant_is_read():
    assert unread_constants() == set(ALLOWED_UNREAD_CONSTANTS)


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


# the names of the blocked agreement scan, which only ``families`` holds
AGREEMENT_NAMES = {"AGREEMENT_BLOCK", "agreement_counts"}
# (module, package module it imports only inside the functions that need it)
DEFERRED_IMPORTS = (("spectrum", "families"), ("search", "spectrum"))


def _imported(node: ast.AST) -> set[str]:
    """The package modules that an import statement imports from."""
    if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("snspectra")):
        home = (node.module or "").removeprefix("snspectra").lstrip(".")
        return {home} if home else {a.name for a in node.names}
    if isinstance(node, ast.Import):
        return {a.name.removeprefix("snspectra.") for a in node.names}
    return set()


def agreement_breaches(trees: dict[str, ast.Module]) -> list[str]:
    """"module:line ..." of each name of AGREEMENT_NAMES outside
    ``families``, and of each module-level import of DEFERRED_IMPORTS: the
    explicit graph and every whole-set agreement scan are built in
    ``families``, so the character route needs no agreement counting and an
    exhausted search loads no character route."""
    found = []
    for module, tree in trees.items():
        if module == "families":
            continue
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            found += [f"{module}:{node.lineno} names {name}" for name in names & AGREEMENT_NAMES]
    for module, home in DEFERRED_IMPORTS:
        found += [
            f"{module}:{node.lineno} imports {home} at module level"
            for node in trees[module].body
            if home in _imported(node)
        ]
    return found


def test_only_families_counts_agreements():
    assert agreement_breaches(TREES) == []


def test_the_agreement_lint_reports_each_breach():
    trees = {
        "families": ast.parse("AGREEMENT_BLOCK = 512\nagreement_counts = None\n"),
        "spectrum": ast.parse("from .families import agreement_counts\n"),
        "search": ast.parse(
            "from . import spectrum\n"
            "def bound(n):\n"
            "    from .spectrum import generating_classes\n"
            "    return families.AGREEMENT_BLOCK\n"
        ),
    }
    assert agreement_breaches(trees) == [
        "spectrum:1 names agreement_counts",
        "search:4 names AGREEMENT_BLOCK",
        "spectrum:1 imports families at module level",
        "search:1 imports spectrum at module level",
    ]


def _functions(tree: ast.Module):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub


def _root_name(node: ast.AST) -> str | None:
    """``x`` for ``x``, ``x.a``, ``x[i]`` and their chains; None otherwise."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def argument_casts() -> list[str]:
    """"module.function" of each package function or method that passes one
    of its parameters (or an attribute or item of one) to ``np.asarray`` or
    ``np.array``."""
    found = []
    for module, tree in TREES.items():
        for name, func in _functions(tree):
            params = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
            for call in ast.walk(func):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "np"
                    and call.func.attr in {"asarray", "array"}
                    and call.args
                    and _root_name(call.args[0]) in params
                ):
                    found.append(f"{module}.{name}")
    return found


def test_only_family_turns_arguments_into_rows():
    assert argument_casts() == ["families.Family.__init__"]


def parser_options() -> set[str]:
    """Every option string of every subcommand, help aside."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
    return options - {"-h", "--help"}


def set_options() -> set[str]:
    """The options that a README ``snspectra`` command or a CLI step of the
    benchmark passes."""
    readme = [
        line.split("#")[0].split()
        for line in README.read_text().splitlines()
        if line.startswith("snspectra ")
    ]
    steps = runpy.run_path(str(WORKLOADS))["all_steps"]().values()
    words = [w for line in readme for w in line] + [
        w for step in steps if not step.library for w in step.args
    ]
    return {w.split("=")[0] for w in words if w.startswith("--")}


def test_every_cli_option_is_set_by_a_readme_command_or_a_benchmark_step():
    assert parser_options() - set_options() == set(ALLOWED_UNSET_OPTIONS)


RAISED = {"ArithmeticError", "ValueError"}
# a string names a message when it covers this many characters of the
# message's own text, or all of it when the text is shorter
NAMING_LENGTH = 12

Message = tuple[str | None, ...]


def raised_classes(sources: dict[str, str]) -> set[str]:
    """RAISED and every class of the ``sources`` (module name -> text) that
    subclasses one of them, at any depth, by its ``class X(Base)``
    statement."""
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for text in sources.values()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    }
    raised = set(RAISED)
    while grown := {name for name, names in bases.items() if names & raised} - raised:
        raised |= grown
    return raised


def _raises(node: ast.AST, raised: set[str]) -> bool:
    """Whether ``node`` is a ``raise`` of a call of a class of ``raised``."""
    return (
        isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id in raised
    )


def raise_sites(source: str, raised: set[str]) -> list[tuple[int, str, Message]]:
    """(line, function, message) of each ``raise`` of a class of ``raised``
    in ``source``: the function is the top-level function or method that
    holds it, or "<module>"; a message is its text parts, with None for
    each f-string field.  A message that is not a literal fails here."""
    tree = ast.parse(source)
    owner = {node: name for name, func in _functions(tree) for node in ast.walk(func)}
    sites = []
    for node in ast.walk(tree):
        if _raises(node, raised):
            message = node.exc.args[0]
            assert isinstance(message, (ast.Constant, ast.JoinedStr)), ast.unparse(node)
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            text = tuple(p.value if isinstance(p, ast.Constant) else None for p in parts)
            sites.append((node.lineno, owner.get(node, "<module>"), text))
    return sorted(sites)


def text_covered(string: str, message: Message) -> int:
    """The most characters of the message's text that ``string`` covers as a
    fragment of an instance of the message, each field read as a wildcard;
    -1 when it is no such fragment.  Over the message's characters, with
    None for a field, best[j] is the most covered by a fragment of the
    string so far that ends before character j; a fragment starts and ends
    anywhere."""
    pattern = [char for part in message for char in (part if part is not None else [None])]
    best = [0] * (len(pattern) + 1)
    for char in string:
        nxt = [-1] * (len(pattern) + 1)
        for j, token in enumerate(pattern):
            if best[j] < 0:
                continue
            if token is None:  # the field takes the character
                nxt[j] = max(nxt[j], best[j])
            elif token == char:
                nxt[j + 1] = max(nxt[j + 1], best[j] + 1)
        for j, token in enumerate(pattern):  # a field may take nothing
            if token is None:
                nxt[j + 1] = max(nxt[j + 1], nxt[j])
        best = nxt
    return max(best)


def named_messages(strings: set[str], messages: set[Message]) -> set[Message]:
    """The messages that some string names.  A string names the message it
    fits best, the one whose text it covers most and then the one whose text
    it covers the largest share of, when no other fits as well and the
    string covers NAMING_LENGTH characters of its text (all of it, if
    shorter).  So "not integral" names only one of the three integrality
    checks.  A message that shares no four characters in a row with a string
    is taken to cover none of it."""
    texts = {m: "".join(p for p in m if p) for m in messages}
    grams = {m: {p[i : i + 4] for p in m if p for i in range(len(p) - 3)} for m in messages}
    named = set()
    for string in strings:
        windows = {string[i : i + 4] for i in range(len(string) - 3)}
        fit = {}
        for m in messages:
            if windows & grams[m] and (covered := text_covered(string, m)) >= 0:
                fit[m] = (covered, covered / len(texts[m]))
        best = max(fit.values(), default=None)
        winners = [m for m, f in fit.items() if f == best]
        if len(winners) == 1 and best[0] >= min(NAMING_LENGTH, len(texts[winners[0]])):
            named.add(winners[0])
    return named


def _shown(message: Message) -> str:
    return "".join("{}" if part is None else part for part in message)


def unnamed_sites(sources: dict[str, str], strings: set[str]) -> list[str]:
    """"module:line message" of each raise site of the ``sources`` (module
    name -> text) whose message no string names, fields shown as {}; a
    site raises a class of ``raised_classes(sources)``.  Fails when the
    sources hold no site at all, where the lint would pass vacuously."""
    raised = raised_classes(sources)
    sites = [
        (m, line, msg) for m, text in sources.items() for line, _, msg in raise_sites(text, raised)
    ]
    assert sites, "no raise site found"
    named = named_messages(strings, {msg for _, _, msg in sites})
    return [f"{m}:{line} {_shown(msg)}" for m, line, msg in sites if msg not in named]


def shared_messages(sources: dict[str, str]) -> list[str]:
    """"message: module.function, ..." for each message that raise sites in
    more than one function of the ``sources`` share.  A test string names a
    message, not a site, so a shared message would let one test name every
    site that raises it; the branches of one check in one function may
    share theirs."""
    raised = raised_classes(sources)
    owners: dict[Message, set[str]] = {}
    for m, text in sources.items():
        for _, function, msg in raise_sites(text, raised):
            owners.setdefault(msg, set()).add(f"{m}.{function}")
    return sorted(
        f"{_shown(msg)}: " + ", ".join(sorted(fs)) for msg, fs in owners.items() if len(fs) > 1
    )


def shared_guards(sources: dict[str, str]) -> dict[str, list[str]]:
    """Condition -> the "module.function"s of the ``sources`` (module name
    -> text), for each condition, the ``ast.unparse`` of an ``if`` test,
    that guards a raise of a class of ``raised_classes(sources)`` in its
    body in more than one function: two copies of one input rule."""
    raised = raised_classes(sources)
    owners: dict[str, set[str]] = {}
    for m, text in sources.items():
        for name, func in _functions(ast.parse(text)):
            for node in ast.walk(func):
                if isinstance(node, ast.If) and any(_raises(s, raised) for s in node.body):
                    owners.setdefault(ast.unparse(node.test), set()).add(f"{m}.{name}")
    return {test: sorted(fs) for test, fs in sorted(owners.items()) if len(fs) > 1}


def strings_of_the_tests() -> set[str]:
    """Every string constant and f-string of the tests but this file, each
    field of an f-string read as a NUL, which only a field of a message
    covers; each string is also read as a regex with its escapes undone."""
    strings = set()
    for path in sorted(ROOT.glob("tests/test_*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                parts = (p.value if isinstance(p, ast.Constant) else "\0" for p in node.values)
                strings.add("".join(parts))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return strings | {re.sub(r"\\(.)", r"\1", s) for s in strings}


def test_every_check_and_refusal_is_named_by_a_test():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert "LPError" in raised_classes(sources)
    assert unnamed_sites(sources, strings_of_the_tests()) == []


def test_no_two_functions_raise_one_message():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert shared_messages(sources) == []


def test_no_two_functions_guard_one_condition():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert set(shared_guards(sources)) == set(ALLOWED_SHARED_GUARDS)


def _bare_name(node: ast.AST) -> str:
    """``x`` for a name ``x`` and for an attribute ``m.x``; "" otherwise."""
    return getattr(node, "id", None) or getattr(node, "attr", "")


def cap_guards(sources: dict[str, str]) -> dict[str, list[str]]:
    """``*_CAP`` name -> the "module.function"s of the ``sources`` (module
    name -> text) whose refusal guards read it.  A refusal guard is the
    test of an ``if`` that guards a raise of a class of
    ``raised_classes(sources)`` in its body, or an argument of a call of
    ``_cap``, the CLI's check of a cap."""
    raised = raised_classes(sources)
    readers: dict[str, set[str]] = {}
    for m, text in sources.items():
        for name, func in _functions(ast.parse(text)):
            for node in ast.walk(func):
                if isinstance(node, ast.If) and any(_raises(s, raised) for s in node.body):
                    guards = [node.test]
                elif isinstance(node, ast.Call) and _bare_name(node.func) == "_cap":
                    guards = node.args
                else:
                    continue
                for sub in (sub for guard in guards for sub in ast.walk(guard)):
                    if (cap := _bare_name(sub)).endswith("_CAP"):
                        readers.setdefault(cap, set()).add(f"{m}.{name}")
    return {cap: sorted(fs) for cap, fs in sorted(readers.items())}


def shared_caps(sources: dict[str, str]) -> dict[str, list[str]]:
    """The entries of ``cap_guards`` whose functions lie in more than one
    module: two copies of one cap's refusal."""
    return {
        cap: fs
        for cap, fs in cap_guards(sources).items()
        if len({f.split(".")[0] for f in fs}) > 1
    }


def test_no_cap_is_refused_in_two_modules():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert shared_caps(sources) == {}
    # the caps that library routes check too, each compared by one function
    guards = cap_guards(sources)
    assert guards["ROW_DEGREE_CAP"] == ["perms.check_row_degree"]
    assert guards["GRAPH_CAP"] == ["families.check_graph_degree"]
    assert guards["PAIRWISE_CAP"] == ["families.check_pairwise"]


SYNTHETIC = """
def check(x):
    if x < 0:
        raise ValueError("a refusal that no test names")
    if x > 9:
        raise ArithmeticError(f"check of {x} failed beyond repair")
    if x == 5:
        raise FiveError("five is refused by a subclass")
"""
# a subclass of a subclass, defined in another module
SYNTHETIC_ERRORS = """
class RangeError(ValueError):
    pass


class FiveError(RangeError):
    pass
"""


def test_the_naming_lint_reports_only_the_unnamed_site():
    # a field is a wildcard, but a string that fits inside one covers none
    # of the text; 10 characters of it are too few
    sources = {"synthetic": SYNTHETIC, "errors": SYNTHETIC_ERRORS}
    strings = {"check of 12 failed", "a string that fits in the field", "test names"}
    assert unnamed_sites(sources, strings) == [
        "synthetic:4 a refusal that no test names",
        "synthetic:8 five is refused by a subclass",
    ]
    strings.add("refusal that no")
    assert unnamed_sites(sources, strings) == ["synthetic:8 five is refused by a subclass"]
    strings.add("refused by a subclass")
    assert unnamed_sites(sources, strings) == []
    with pytest.raises(AssertionError, match="no raise site found"):
        unnamed_sites({"empty": "def check(x):\n    return x\n"}, strings)


SHARED = """
class Check:
    def first(self, x):
        if x < 0:
            raise ValueError(f"need x >= 0, got {x}")
        if x != int(x):
            raise ValueError(f"need x >= 0, got {x}")


def second(x):
    raise ValueError(f"need x >= 0, got {x}")


def third(x):
    raise ValueError(f"need x >= 1, got {x}")
"""


def test_the_sharing_lint_reports_a_message_of_two_functions():
    # the two branches of one check may share a message
    assert shared_messages({"synthetic": SHARED}) == [
        "need x >= 0, got {}: synthetic.Check.first, synthetic.second"
    ]


GUARDED = """
def first(n):
    if n < 0:
        raise ValueError("first refuses a negative n")
    if n > 9:
        return n


class Check:
    def second(self, n):
        if n < 0:
            raise RangeError(f"second refuses {n}")
        elif n > 9:
            raise TypeError("not a class the lints follow")


def third(n):
    if n < 0:
        return 0
    if n > 9:
        raise ArithmeticError("only third guards a raise with n > 9")
"""


def test_the_guard_lint_reports_a_condition_of_two_functions():
    # a condition that guards no raise, or only a raise of another class,
    # is no copy of a rule
    sources = {"synthetic": GUARDED, "errors": SYNTHETIC_ERRORS}
    assert shared_guards(sources) == {"n < 0": ["synthetic.Check.second", "synthetic.first"]}


CAPPED = {
    "cli": """
def _cap(what, value, cap, by):
    if value > cap:
        raise ValueError(f"{what} capped at {cap} by {by}")


def command(args):
    _cap("n is", args.n, families.GRAPH_CAP, "GRAPH_CAP")
    _cap("n is", args.n, SPECTRUM_CAP, "SPECTRUM_CAP")
    _cap("top is", args.top, TABLE_CAP, "TABLE_CAP")
    if args.n > ROW_DEGREE_CAP:
        return 0


def other(args):
    _cap("top is", args.top, TABLE_CAP, "TABLE_CAP")
""",
    "families": """
def graph(n):
    if n > GRAPH_CAP:
        raise RangeError(f"graphs capped at {GRAPH_CAP}")
    if n == PAIRWISE_CAP:
        raise TypeError("not a class the lints follow")
    return n < ROW_DEGREE_CAP
""",
    "spectrum": """
def spectrum(n):
    if n > SPECTRUM_CAP:
        raise ValueError(f"spectra capped at {SPECTRUM_CAP}")
""",
    "errors": SYNTHETIC_ERRORS,
}


def test_the_cap_lint_reports_a_cap_refused_in_two_modules():
    # a comparison that guards no raise, or only a raise of another class,
    # is no refusal; one module may refuse a cap in several functions
    assert shared_caps(CAPPED) == {
        "GRAPH_CAP": ["cli.command", "families.graph"],
        "SPECTRUM_CAP": ["cli.command", "spectrum.spectrum"],
    }
    assert cap_guards(CAPPED)["TABLE_CAP"] == ["cli.command", "cli.other"]

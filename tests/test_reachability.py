"""``src/repro`` holds only what a root reaches.

Roots are what a user can run: ``repro.__main__`` (hence the CLI and
its ``cmd_*`` functions), every file under ``examples/`` and
``benchmarks/``, and module-level code of the package itself.  A
top-level function, class or method under ``src/repro`` is *reached*
when a root, or the body of a reached definition, mentions its name —
name-level, so ``x.packets`` reaches every ``packets``, but a bare name
the mentioning definition binds itself (a parameter, an assignment or
comprehension target, a nested ``def``) reaches nothing; dunder methods
follow their class.  Imports and ``__all__`` strings inside the package
are not mentions: re-exporting a name does not make it live.

Anything unreached fails the test — code only tests call belongs under
``tests/`` (``tests/reference/``), code nothing calls is deleted —
unless ``KEPT`` names it with a reason, or ``UNIT_TESTED_ONLY`` lists it
for deletion.  An entry of either table that has become reachable, or no
longer exists, fails too, so both only shrink.
"""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOT_FILES = [SRC / "repro" / "__main__.py"] + sorted(
    path for name in ("examples", "benchmarks") for path in (REPO / name).rglob("*.py")
)

#: unreached on purpose; at most 12, nothing speculative
KEPT = {
    "repro.faults.pcap.corrupt_pcap_bytes": "documented fault-injection API "
    "(docs/ROBUSTNESS.md): the in-memory form of corrupt_pcap",
    "repro.telescope.presets.paper_month": "the input of ROADMAP item 1 "
    "(the paper's month as a benchmark workload)",
}

#: unreached, and to be deleted: nothing but a dedicated unit test calls
#: these, and a PR may remove only a few tests, so they go a few per PR,
#: each with its tests.  Never add to this set.
UNIT_TESTED_ONLY = {
    "repro.core.extrapolate.TelescopeExtrapolator.detection_probability",
    "repro.core.extrapolate.TelescopeExtrapolator.min_rate_for_threshold",
}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def local_names(function) -> set:
    """Names ``function`` binds itself: parameters, assignment and
    comprehension targets, nested definitions (minus ``global`` and
    ``nonlocal`` declarations, which bind outside)."""
    bound, declared = set(), set()
    for child in ast.walk(function):
        if isinstance(child, ast.arg):
            bound.add(child.arg)
        elif isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            bound.add(child.id)
        elif isinstance(child, DEFINITIONS) and child is not function:
            bound.add(child.name)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            declared.update(child.names)
    return bound - declared


def mentions(nodes, imports: bool = False) -> set:
    """Every name or attribute loaded under ``nodes``; a bare name a
    definition binds itself is its own, not a mention."""
    found = set()
    for node in nodes:
        local = local_names(node) if isinstance(node, FUNCTIONS) else set()
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                if child.id not in local:
                    found.add(child.id)
            elif isinstance(child, ast.Attribute):
                found.add(child.attr)
            elif isinstance(child, ast.Call) and ast.unparse(child.func) == "getattr":
                found.add(getattr(child.args[1], "value", None))  # getattr(x, "name")
            elif imports and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.update(alias.name.rpartition(".")[2] for alias in child.names)
    return found


def survey():
    """(names the roots mention, {qualname: (name, names its body mentions)})."""
    rooted = set()
    for path in ROOT_FILES:
        rooted |= mentions([ast.parse(path.read_text())], imports=True)
    definitions = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        body = ast.parse(path.read_text()).body
        rooted |= mentions(
            n for n in body if not isinstance(n, DEFINITIONS + (ast.Import, ast.ImportFrom))
        )
        for node in body:
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, DEFINITIONS)]
                own = [n for n in ast.iter_child_nodes(node) if n not in methods]
                for method in methods:
                    if method.name.startswith("__") and method.name.endswith("__"):
                        own.append(method)
                    else:
                        definitions[f"{module}.{node.name}.{method.name}"] = (
                            method.name,
                            mentions([method]),
                        )
                definitions[f"{module}.{node.name}"] = (node.name, mentions(own))
            elif isinstance(node, DEFINITIONS):
                definitions[f"{module}.{node.name}"] = (node.name, mentions([node]))
    return rooted, definitions


def unreached() -> set:
    reached_names, definitions = survey()
    pending = dict(definitions)
    while True:
        newly = [q for q, (name, _) in pending.items() if name in reached_names]
        if not newly:
            return set(pending)
        for qualname in newly:
            reached_names |= pending.pop(qualname)[1]


def test_every_definition_is_reached_from_a_root():
    assert len(KEPT) <= 12 and all(KEPT.values())
    listed = set(KEPT) | UNIT_TESTED_ONLY
    dead = unreached()
    assert sorted(dead - listed) == [], "unreached: move to tests/reference or delete"
    assert sorted(listed - dead) == [], "listed entry is reachable or gone: drop it"

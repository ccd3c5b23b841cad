"""Only code that runs stays: every top-level function and class under
`src/aeronav`, and every method of such a class but the dunders, must be
named by the package itself, by the benchmark, or by the golden-digest
script, outside its own body.

The check is static and by name.  A name counts where it appears as an
identifier, an attribute, an imported name, or, in `benchmarks/`, as a part
of a dotted string (the tracer's `SPANS` entries, a workload's builder).
A method counts only where its name appears as an attribute or in such a
string.  A mention inside a definition that is itself uncalled does not
count, so a chain of helpers used only by each other is caught whole.
Tests do not count: a function that only tests call is kept only as an
entry of ORACLES, with the reason the tests need it.

Likewise every parameter of a top-level function must be read in its body:
a value the function is handed only to drop is dead code at every call.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aeronav"

# Definitions no run calls, kept because tests check running code with them.
ORACLES = {
    "flocking.flock_energy":
        "the energy-bound criterion evaluates it along FlockSim runs",
    "flocking.collision_energy_bound":
        "the energy below which the energy-bound criterion proves separation",
    "bezier.PiecewisePath.junction_residuals":
        "the C2 oracle for stitched and deformed paths",
    "harness.config.save_config":
        "the canonical writer of configs/, which the stock-config test re-applies",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(trees: dict) -> dict:
    """Qualified name -> (short name, node, is a method) for each checked
    definition; qualified names are module paths below aeronav."""
    out = {}
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            out[f"{module}.{node.name}"] = (node.name, node, False)
            if isinstance(node, ast.ClassDef):
                out.update({f"{module}.{node.name}.{sub.name}": (sub.name, sub, True)
                            for sub in node.body if isinstance(sub, FUNCTIONS)
                            and not (sub.name.startswith("__") and sub.name.endswith("__"))})
    return out


def _mentions(trees: dict) -> dict:
    """Name -> [(node, usable for a method)] over every scanned file."""
    out = {}
    for path, tree in trees.items():
        strings = path.is_relative_to(ROOT / "benchmarks")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, []).append((node, False))
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, []).append((node, True))
            elif isinstance(node, ast.alias):
                out.setdefault(node.name.split(".")[-1], []).append((node, False))
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and DOTTED.match(node.value)):
                for part in node.value.split("."):
                    out.setdefault(part, []).append((node, True))
    return out


def _scan():
    """(definitions, the uncalled ones, the oracles a caller would keep)."""
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py"),
             ROOT / "tests" / "golden" / "regen.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(paths)}
    defs = _definitions(trees)
    mentions = _mentions(trees)
    inside = {key: {id(n) for n in ast.walk(node)} for key, (_, node, _) in defs.items()}

    def called(key, hidden):
        name, _, method = defs[key]
        return any((attr or not method) and id(n) not in inside[key] and id(n) not in hidden
                   for n, attr in mentions.get(name, []))

    dead: set = set()
    while True:
        hidden = set().union(*(inside[key] for key in dead))
        more = {key for key in defs
                if key not in dead and key not in ORACLES and not called(key, hidden)}
        if not more:
            break
        dead |= more
    hidden = set().union(*(inside[key] for key in dead))
    return defs, dead, {key for key in ORACLES if key in defs and called(key, hidden)}


def test_every_definition_has_a_caller_or_is_an_oracle():
    defs, dead, called_oracles = _scan()
    assert not dead, ("defined under src/aeronav, called by no run, "
                      f"command or benchmark: {sorted(dead)}")
    assert len(ORACLES) <= 4
    assert sorted(set(ORACLES) - set(defs)) == [], "ORACLES names a missing definition"
    assert sorted(called_oracles) == [], "ORACLES names a definition that runs"


def _unread_parameters(trees: dict) -> list:
    """'module.function(parameter)' for each parameter of a top-level
    function under src/aeronav that its body never reads.  Methods and
    nested functions are exempt: they implement a protocol or a callback
    signature, whose parameters are fixed by the caller."""
    out = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, FUNCTIONS):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{module}.{node.name}({p.arg})" for p in params if p.arg not in read]
    return out


def test_every_parameter_of_a_function_is_read():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert _unread_parameters(trees) == []

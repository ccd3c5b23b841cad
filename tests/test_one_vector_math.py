"""One-vector math goes through `geom`: outside `geom.py`, no module under
`src/aeronav` calls `np.cross`, or `np.linalg.norm` without an axis.

`geom.norm` gives np.linalg.norm's bits at a third of its cost and
`geom.cross3` gives np.cross's at a twentieth, so a stray call is a silent
slowdown on the tick path.  It also keeps the BLAS-dependent norm in one
place, `geom.norm`, for the host-portable forms to replace.  The check is
static; a batched call that keeps numpy's row-wise form is listed in
ALLOWED with the reason."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aeronav"

# (module, enclosing function, call) -> how many such calls, and why.
ALLOWED = {
    ("tunnels", "_parallel_frames", "np.cross"): (
        2, "the rotation axes and binormals of every axis sample, one batched call each"),
}


def _call_name(node: ast.Call) -> str | None:
    """'np.cross' or 'np.linalg.norm' when node calls one of them."""
    parts, f = [], node.func
    while isinstance(f, ast.Attribute):
        parts.append(f.attr)
        f = f.value
    if not isinstance(f, ast.Name) or f.id not in ("np", "numpy"):
        return None
    name = ".".join(["np", *reversed(parts)])
    return name if name in ("np.cross", "np.linalg.norm") else None


def _one_vector(node: ast.Call, name: str) -> bool:
    """True unless the call is a norm over a given axis."""
    if name != "np.linalg.norm":
        return True
    return len(node.args) < 3 and not any(k.arg == "axis" for k in node.keywords)


def _sites() -> dict:
    """(module, enclosing top-level function or class, call) -> count, for
    every matching call outside geom.py."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "geom.py" and path.parent == PACKAGE:
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                name = isinstance(node, ast.Call) and _call_name(node)
                if name and _one_vector(node, name):
                    key = (module, getattr(top, "name", "<module>"), name)
                    out[key] = out.get(key, 0) + 1
    return out


def test_one_vector_norm_and_cross_go_through_geom():
    sites = _sites()
    stray = {k: n for k, n in sites.items() if k not in ALLOWED}
    assert not stray, f"use geom.norm / geom.cross3 at: {stray}"
    assert {k: n for k, (n, _) in ALLOWED.items()} == {k: sites.get(k, 0) for k in ALLOWED}, \
        "ALLOWED lists a call that is gone or moved"


def test_the_guard_sees_each_form():
    tree = ast.parse("np.cross(a, b)\nnp.linalg.norm(v)\nnp.linalg.norm(x, axis=1)\n"
                     "numpy.linalg.norm(x, 2, 1)\nnp.dot(a, b)\n")
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
    found = [(name, _one_vector(c, name)) for c in calls if (name := _call_name(c))]
    assert found == [("np.cross", True), ("np.linalg.norm", True),
                     ("np.linalg.norm", False), ("np.linalg.norm", False)]

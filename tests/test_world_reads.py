"""Obstacle distances are read through the `World`: outside `world.py`, no
module under `src/aeronav` calls `.distance(` on anything but a World.

The obstacles are records, and the rows of a World's table hold the one
geometry of each primitive, so a read such as
`world.obstacles[i].distance(p, t)` would bypass the table, the way the
navigators once read a NaN point as +inf from a wall.  The check is
static: the receiver of every `.distance(` call must be a name `world` or
an attribute `.world`, such as `self.world`."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aeronav"


def _stray(tree: ast.AST) -> list[str]:
    """The source of each `.distance(` call in tree whose receiver is not
    `world` or `<something>.world`."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "distance"):
            continue
        receiver = node.func.value
        if not ((isinstance(receiver, ast.Name) and receiver.id == "world")
                or (isinstance(receiver, ast.Attribute) and receiver.attr == "world")):
            out.append(ast.unparse(node))
    return out


def test_obstacle_distances_are_read_through_the_world():
    stray = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "world.py":
            continue
        found = _stray(ast.parse(path.read_text(), str(path)))
        if found:
            stray[str(path.relative_to(PACKAGE))] = found
    assert not stray, f"read obstacle distances with World.distance(i, p, t): {stray}"


def test_the_guard_sees_each_form():
    tree = ast.parse("self.world.distance(i, p, t)\nworld.distance(0, p)\n"
                     "self.world.obstacles[i].distance(p, t)\nob.distance(p)\n"
                     "self.known.distance(0, p)\nplane.signed_distance(p)\n"
                     "cloud.wall_distance(p)\n")
    assert _stray(tree) == ["self.world.obstacles[i].distance(p, t)", "ob.distance(p)",
                            "self.known.distance(0, p)"]

"""Every public name the library defines has a caller outside the tests.

A public top-level function or class of a library module must be loaded
somewhere in the package or in perfbench: as a name, or as an attribute of
anything but a module imported from outside xoverlab, so
``statistics.median`` is no use of a ``median``.  A public method of such a
class must be loaded as such an attribute, so a local variable of the same
name is no use of it, nor is an alias in its own class body.  Its own
``def`` is no use, and ``__init__`` only re-exports, so its imports are none
either.  The scan matches bare names, as the import scan does.
"""

import ast
from pathlib import Path

import xoverlab

PACKAGE = Path(xoverlab.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# names kept with no caller, each for its reason
ALLOWED = {
    "crossover.recombine": "the crossover operator itself",
    "words.interval": "the geodesic interval, the closure's literal box",
    "matroid.SignVector.compose": "the face axioms F2 and F3 are stated in it",
    "matroid.SignVector.conforms": "the face order",
    "matroid.SignVector.separation": "F3 eliminates at a separating position",
    "matroid.SignVector.zero": "F0 asks for the zero vector",
}


def public_defs(source: str, module: str) -> dict[str, tuple[str, bool]]:
    """Qualified name to bare name, and whether it is a method, of each
    public top-level function and class of source and of each public method
    of those classes."""
    out = {}
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            out[f"{module}.{node.name}"] = node.name, False
            if isinstance(node, ast.ClassDef):
                out.update({f"{module}.{node.name}.{m.name}": (m.name, True)
                            for m in node.body if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_")})
    return out


def loaded_names(source: str) -> tuple[set[str], set[str]]:
    """Names that source loads bare, and those it loads as an attribute of
    anything but a module it imports from outside xoverlab."""
    tree = ast.parse(source)
    foreign = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign |= {(a.asname or a.name).split(".")[0] for a in node.names
                        if not a.name.startswith("xoverlab")}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and not (
                node.module or "").startswith("xoverlab"):
            foreign |= {a.asname or a.name for a in node.names}
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and not (isinstance(node.value, ast.Name) and node.value.id in foreign)):
            attrs.add(node.attr)
    return names, attrs


def unused_public_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """Qualified public names of the modules (name to source) that neither
    the modules nor the callers' sources load; a method counts only when
    loaded as an attribute."""
    names, attrs = set(), set()
    for source in [*modules.values(), *callers]:
        bare, attributes = loaded_names(source)
        names |= bare
        attrs |= attributes
    return sorted(qualified for module, source in modules.items()
                  for qualified, (name, method) in public_defs(source, module).items()
                  if name not in attrs and (method or name not in names))


def library_unused() -> list[str]:
    modules = {".".join(p.relative_to(PACKAGE).with_suffix("").parts): p.read_text()
               for p in sorted(PACKAGE.rglob("*.py")) if p.name != "__init__.py"}
    callers = [p.read_text() for p in sorted(PERFBENCH.rglob("*.py"))]
    assert modules and callers
    return unused_public_names(modules, callers)


def test_every_public_name_has_a_caller():
    assert [name for name in library_unused() if name not in ALLOWED] == []


def test_every_allowed_name_is_defined_and_unused():
    assert sorted(ALLOWED) == [name for name in library_unused() if name in ALLOWED]


def test_the_scan_sees_an_unused_name():
    module = (
        "import statistics\n"
        "class A:\n"
        "    def used(self): pass\n"
        "    def spare(self): pass\n"
        "    def alias(self): pass\n"
        "    __neg__ = alias\n"
        "    def _own(self): pass\n"
        "class _Hidden:\n"
        "    def spare(self): pass\n"
        "def median(): pass\n"
        "def helper(): return A\n"
    )
    caller = "import statistics\nstatistics.median([1])\nhelper().used()\n"
    unused = ["m.A.alias", "m.A.spare", "m.median"]
    assert unused_public_names({"m": module}, [caller]) == unused
    assert unused_public_names({"m": module}, [caller + "median()\n"]) == unused[:2]
    # a bare name shared by a local variable is no call of the method
    spare = caller + "spare = 1\nprint(spare)\n"
    assert unused_public_names({"m": module}, [spare]) == unused
    assert unused_public_names({"m": module}, [caller + "A().spare()\n"]) == [
        "m.A.alias", "m.median"]

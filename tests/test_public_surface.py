"""The library holds what the library or its users call.

Each module of src/opdk writes its public surface down once, as
`__all__`.  Every other top-level function or class must be reached
from that surface or from module-level code under src/opdk: a helper
that only tests call lives in the test module that uses it.
"""

import ast
from pathlib import Path

import opdk

SRC = Path(__file__).resolve().parents[1] / "src" / "opdk"

# No module of the package calls opdk._kernel: the benchmark harness
# imports it and traces rref_mod and matmul_mod as a layer of their own,
# so the module goes together with that layer of the harness.
EXEMPT = {"_kernel"}


def _parsed():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))
            if p.stem not in EXEMPT | {"__init__"}}


def _declared(tree):
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and \
                [getattr(t, "id", None) for t in stmt.targets] == ["__all__"]:
            return ast.literal_eval(stmt.value)
    return None


def _read_names(nodes):
    """Every name the code in nodes reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached_definitions(modules):
    """'module.name' for each top-level function or class of the parsed
    modules that neither is in its module's `__all__` nor is named by
    module-level code or by a definition reached already.  A name counts
    for every definition of that name, so the scan never misses a use."""
    defs, live, frontier = {}, set(), []
    for mod, tree in modules.items():
        public = set(_declared(tree) or ())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[(mod, stmt.name)] = stmt
                if stmt.name in public:
                    live.add((mod, stmt.name))
                    frontier.append(stmt)
            else:
                frontier.append(stmt)
    while frontier:
        names = _read_names(frontier)
        new = [key for key in defs if key not in live and key[1] in names]
        live.update(new)
        frontier = [defs[key] for key in new]
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if (mod, name) not in live)


def test_every_module_declares_its_public_surface():
    modules = _parsed()
    assert sorted(opdk.__all__) == sorted(modules)
    for mod, tree in modules.items():
        declared = _declared(tree)
        assert declared is not None, f"opdk.{mod} has no __all__"
        assert len(set(declared)) == len(declared), mod
        defined = {s.name for s in tree.body
                   if isinstance(s, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for s in tree.body if isinstance(s, ast.Assign)
                    for t in s.targets if isinstance(t, ast.Name)}
        assert set(declared) <= defined, (mod, set(declared) - defined)


def test_every_top_level_definition_is_public_or_used():
    modules = _parsed()
    assert modules, f"no module parsed under {SRC}"
    unreached = unreached_definitions(modules)
    assert not unreached, ("neither in __all__ nor used under src/opdk: "
                           + ", ".join(unreached))


def test_the_scan_finds_helpers_no_public_name_reaches():
    # g is reached from f and from module-level code, helper from a
    # method of the public class C; h and k only call each other, and
    # nothing names unused
    source = """
__all__ = ["f", "C"]
def f(): return g()
def g(): return math.gcd
def h(): return k()
def k(): return h()
class C:
    def m(self): return self.helper()
def helper(): pass
def unused(): pass
LIMIT = g
"""
    assert unreached_definitions({"m": ast.parse(source)}) == \
        ["m.h", "m.k", "m.unused"]

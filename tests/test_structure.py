"""The package's module structure, read from the source with ``ast``:
sibling modules import one another without a cycle, and none reaches
into another's private names; and no test file imports a name it never
reads."""

import ast
from pathlib import Path

import atlstar

PACKAGE = Path(atlstar.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _imports(name):
    """The sibling modules that module ``name`` imports, the module
    aliases it binds to them, and the names it imports from them."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    siblings, aliases, names = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "atlstar" and len(parts) > 1:
                    siblings.add(parts[1])
                    if a.asname:
                        aliases.add(a.asname)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base != "atlstar" and not base.startswith("atlstar."):
                    continue
                base = base.removeprefix("atlstar").lstrip(".")
            if base:
                siblings.add(base.split(".")[0])
                names += [(base, a.name) for a in node.names]
            else:
                for a in node.names:
                    siblings.add(a.name)
                    aliases.add(a.asname or a.name)
    return siblings & set(MODULES), aliases, names, tree


def test_the_import_graph_has_no_cycle():
    graph = {m: _imports(m)[0] - {m} for m in MODULES}
    state = {}

    def visit(m, path):
        state[m] = "open"
        for n in sorted(graph[m]):
            if state.get(n) == "open":
                cycle = path[path.index(n):] + [n]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if n not in state:
                visit(n, path + [n])
        state[m] = "done"

    for m in MODULES:
        if m not in state:
            visit(m, [m])


def test_no_module_reaches_into_a_sibling_private_name():
    found = []
    for m in MODULES:
        _, aliases, names, tree = _imports(m)
        found += [f"{m}: from {base} import {n}" for base, n in names
                  if _private(n)]
        found += [f"{m}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and _private(node.attr)]
    assert found == []


def test_no_test_file_imports_a_name_it_never_reads():
    # the package is left out: a module may import a name to re-export
    # it, as ``finite_mc`` does ``build_product``
    found = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}"
                      for name in bound if name not in read]
    assert found == []

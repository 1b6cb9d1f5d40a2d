"""No dead library code: every top-level function, class and assigned
name of `src/autoeda`, and every method, is used from the program itself
(`src/`, `bench/` or `demos/`), not only from the tests. Private names (one
leading underscore, not a dunder) are held to the same rule, so a fold that
leaves a helper behind is caught, and no module imports another's private
name. Every `__slots__` entry is read by the program, so a fold that leaves
a cache slot behind, assigned but never read, is caught too."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autoeda"

# Kept though nothing in the program calls them, each for its reason.
ALLOWED = {
    # acceptance criterion 7 measures greedy agreement with the experts
    # through it
    "train.action_agreement",
}


def _is_public(name):
    return not name.startswith("_")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _definitions(wanted):
    """(qualified name, file, first line, last line) of each top-level
    function and class, and of each method, whose name `wanted` accepts."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if wanted(node.name):
                out.append((f"{module}.{node.name}", path, node.lineno,
                            node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{module}.{node.name}.{item.name}", path,
                            item.lineno, item.end_lineno)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and wanted(item.name))
    return out


def _assignments():
    """(qualified name, file, first line, last line) of each name a
    module-level assignment binds, dunders apart."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
            out.extend((f"{path.stem}.{name}", path, node.lineno, node.end_lineno)
                       for name in names
                       if not (name.startswith("__") and name.endswith("__")))
    return out


def _slots():
    """Qualified name of each `__slots__` entry of a class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in item.targets)):
                    out.extend(f"{path.stem}.{node.name}.{elt.value}"
                               for elt in item.value.elts)
    return out


def _program_nodes():
    """(file, node) of every AST node of the program."""
    for top in ("src", "bench", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                yield path, node


def _references():
    """name -> [(file, line)] of every Name, attribute and imported name."""
    refs = {}
    for path, node in _program_nodes():
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _unused(definitions):
    """Qualified names among `definitions` that the program never
    references outside their own body."""
    refs = _references()
    unused = []
    for qualname, path, first, last in definitions:
        name = qualname.rpartition(".")[2]
        used = any(not (ref_path == path and first <= line <= last)
                   for ref_path, line in refs.get(name, ()))
        if not used and qualname not in ALLOWED:
            unused.append(qualname)
    return unused


def test_every_public_definition_is_used_by_the_program():
    unused = _unused(_definitions(_is_public))
    assert not unused, f"defined but never used by the program: {unused}"


def test_every_private_definition_is_used_by_the_program():
    unused = _unused(_definitions(_is_private))
    assert not unused, f"private but never used by the program: {unused}"


def test_every_module_level_name_is_used_by_the_program():
    unused = _unused(_assignments())
    assert not unused, f"assigned but never used by the program: {unused}"


def test_every_slot_is_read_by_the_program():
    """An assignment, in `__init__` or elsewhere, is not a read: a slot is
    used only where the program loads it."""
    reads = {node.attr for _, node in _program_nodes()
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = [q for q in _slots() if q.rpartition(".")[2] not in reads]
    assert not unread, f"slots never read by the program: {unread}"


def test_no_module_imports_another_modules_private_name():
    """A private name stays inside its module: what another module needs
    is public."""
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imports.extend(f"{path.stem}: from {'.' * node.level}"
                               f"{node.module or ''} import {alias.name}"
                               for alias in node.names if _is_private(alias.name))
    assert not imports, f"private names imported across modules: {imports}"


def test_allowed_names_still_exist():
    names = {qualname for qualname, *_ in _definitions(_is_public)}
    assert ALLOWED <= names

"""The lsnc modules import one another one way only: every import of an lsnc
module sits at module level, and those imports form no cycle.  No module
imports another's private names, every module-level import is used, and
every public name has a caller outside the tests.

Imports under `if TYPE_CHECKING:` are annotations only and are not counted.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FILES = {
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): p
    for p in sorted((SRC / "lsnc").rglob("*.py"))
}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _targets(node: ast.Import | ast.ImportFrom, module: str) -> list[str]:
    """The lsnc modules an import statement of `module` loads by name."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            package = module if FILES[module].name == "__init__.py" else module.rpartition(".")[0]
            for _ in range(node.level - 1):
                package = package.rpartition(".")[0]
            base = f"{package}.{base}" if base else package
        # `from package import name` loads the submodule when there is one
        names = [f"{base}.{a.name}" if f"{base}.{a.name}" in FILES else base for a in node.names]
    out = []
    for name in names:
        while name and name not in FILES:
            name = name.rpartition(".")[0]
        if name:
            out.append(name)
    return out


def lsnc_imports(module: str) -> list[tuple[int, str, bool]]:
    """(line, imported lsnc module, inside a function) for each import that
    `module` makes outside `if TYPE_CHECKING:` blocks."""
    found: list[tuple[int, str, bool]] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            children: list[ast.AST] = node.orelse
        else:
            children = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((node.lineno, t, in_function) for t in _targets(node, module))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in children:
            visit(child, inner)

    visit(ast.parse(FILES[module].read_text()), False)
    return found


def test_no_lsnc_import_inside_a_function():
    assert {"lsnc", "lsnc.cli", "lsnc.coloring", "lsnc.latin", "lsnc.fixtures"} <= FILES.keys()
    late = [
        f"{FILES[mod].relative_to(SRC)}:{line} imports {target}"
        for mod in FILES
        for line, target, in_function in lsnc_imports(mod)
        if in_function
    ]
    assert late == []


def test_module_imports_form_no_cycle():
    graph = {
        mod: sorted({t for _, t, in_function in lsnc_imports(mod) if not in_function} - {mod})
        for mod in FILES
    }
    cycles = []
    state: dict[str, int] = {}  # 1 on the current path, 2 done
    path: list[str] = []

    def visit(mod: str) -> None:
        state[mod] = 1
        path.append(mod)
        for nxt in graph[mod]:
            if state.get(nxt) == 1:
                cycles.append(" -> ".join(path[path.index(nxt):] + [nxt]))
            elif nxt not in state:
                visit(nxt)
        path.pop()
        state[mod] = 2

    for mod in graph:
        if mod not in state:
            visit(mod)
    assert cycles == []


# Public names with no caller in the package, the demos or perfbench.
CALLED_ELSEWHERE = {
    "lsnc.fixtures.available": "the CI package job checks the installed fixtures with it",
}


def _exports(tree: ast.Module) -> list[str]:
    return next(
        (
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ),
        [],
    )


def _defines(node: ast.stmt) -> set[str]:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_public_name_has_a_caller_outside_tests():
    """A name in any lsnc module's `__all__` resolves, and is a Name or an
    attribute somewhere in src/lsnc outside its own definition and the
    package `__init__.py`, or in demos/ or perfbench/.  Imports alone are
    not calls."""
    trees = {mod: ast.parse(path.read_text()) for mod, path in FILES.items()}
    public = {(mod, name) for mod, tree in trees.items() for name in _exports(tree)}
    for mod, name in sorted(public):
        assert hasattr(importlib.import_module(mod), name), f"{mod}.__all__ names missing {name}"
    sources = [tree for mod, tree in trees.items() if mod != "lsnc"] + [
        ast.parse(path.read_text())
        for path in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])
    ]
    called: set[str] = set()
    for tree in sources:
        for stmt in tree.body:
            called |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - _defines(stmt)
    uncalled = sorted(f"{mod}.{name}" for mod, name in public if name not in called)
    assert [name for name in uncalled if name not in CALLED_ELSEWHERE] == []


def test_no_private_name_crosses_modules():
    """No lsnc module imports a `_`-prefixed name from another one."""
    crossing = [
        f"{FILES[mod].relative_to(SRC)}:{node.lineno} imports {alias.name} from {node.module}"
        for mod, path in FILES.items()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and _targets(node, mod)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossing == []


def test_every_module_import_is_used():
    """A module-level import binds a name its module uses, lists in
    `__all__`, or marks `# noqa: F401`."""
    unused = []
    for mod, path in FILES.items():
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        } | set(_exports(tree))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            ):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(SRC)}:{node.lineno} {bound}")
    assert unused == []


def test_psk_construction_has_one_owner():
    """The 2^n-PSK constraint blocks and construction checks live in
    `lsnc.psk_construct` alone."""
    names = {"psk_column_offsets", "psk_constraints_closed_form", "_psk_blocks",
             "check_closed_form", "check_construction_order"}
    owners = {
        name: mod
        for mod, path in FILES.items()
        for stmt in ast.parse(path.read_text()).body
        for name in _defines(stmt) & names
    }
    assert owners == dict.fromkeys(names, "lsnc.psk_construct")

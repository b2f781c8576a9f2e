"""The package runs on the standard library alone, and starts lean.

Every request is a fresh process, so what importing the command line loads
is paid on each one: no module may pull in dataclasses (and with it
inspect, ast, dis and tokenize) or typing.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import confalg

SOURCES = sorted(Path(confalg.__file__).parent.glob("*.py"))


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the modules a parsed file imports; relative
    imports count as confalg."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out.add("confalg" if node.level else node.module.partition(".")[0])
    return out


def test_every_source_file_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "freeconf.py", "pseudo.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_confalg_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = imported_modules(tree) - {"confalg"} - set(sys.stdlib_module_names)
    assert outside == set(), f"{path.name} imports {sorted(outside)}"


def test_only_checks_draws():
    """The seeded draws live in checks.py: no algebra module imports random."""
    importers = {
        path.name
        for path in SOURCES
        if "random" in imported_modules(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    }
    assert importers == {"checks.py"}


def unread_imports(tree: ast.AST) -> list[str]:
    """Names a parsed file binds by import and never reads; from __future__
    imports bind nothing to read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_source_module_imports_an_unread_name():
    """__init__.py imports to re-export; every other module reads what it imports."""
    unread = {
        path.name: names
        for path in SOURCES
        if path.name != "__init__.py"
        and (names := unread_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    }
    assert unread == {}


# dataclasses brings inspect, ast, dis and tokenize; annotation names come
# from collections.abc, whose package functools imports anyway
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_no_source_module_imports_dataclasses_or_typing():
    importers = {
        path.name: sorted(found)
        for path in SOURCES
        if (found := imported_modules(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            & {"dataclasses", "typing"})
    }
    assert importers == {}


def test_the_command_line_imports_none_of_the_heavy_modules():
    """-S skips site, whose .pth files may import typing and hide a regression."""
    src = str(Path(confalg.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import confalg.cli; "
        f"print(sorted(set({HEAVY!r}) & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

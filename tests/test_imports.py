"""Every module-level import in the package and its tests is read.

The scan is stdlib-only: it parses each module, collects the names that
its top-level imports bind, and fails on a name that no expression of the
module loads.  Names listed in ``__all__`` count as read (re-exports), and
``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "dmono").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import sys\n"
        "from json import dumps, loads as read\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "sys.exit(read('0'))\n"
    )
    assert unused_imports(source) == ["os (line 2)", "osp (line 3)", "dumps (line 5)"]


def test_every_module_level_import_is_read():
    assert MODULES
    unused = {
        str(path.relative_to(ROOT)): names
        for path in MODULES
        if (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def dict_and_new_uses(source: str) -> list[str]:
    """Calls of ``object.__new__`` and uses of an instance ``__dict__``, by line.

    Either one lets code build or fill a representation past its
    constructor's checks; a use counts even as a read, since a write can
    go through a name bound to the dict.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(f"__dict__ (line {node.lineno})")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            found.append(f"object.__new__ (line {node.lineno})")
    return found


def test_dict_scan_flags_new_and_dict_uses():
    source = (
        "h = object.__new__(C)\n"
        "fields = h.__dict__\n"
        "fields['mask'] = 0\n"
        "C.__new__(C)\n"
        "vars(h)\n"
    )
    assert dict_and_new_uses(source) == ["object.__new__ (line 1)", "__dict__ (line 2)"]


def test_only_boolfn_builds_representations_past_their_checks():
    package = sorted((ROOT / "src" / "dmono").glob("*.py"))
    found = {path.name: names for path in package if (names := dict_and_new_uses(path.read_text()))}
    assert set(found) == {"boolfn.py"}
    assert sum(name.startswith("object.__new__") for name in found["boolfn.py"]) == 1

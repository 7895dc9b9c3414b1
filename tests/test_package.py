"""The package namespace: `__all__` names exactly what `__init__` exports."""

import ast
from pathlib import Path

import phisoft


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from phisoft import *", namespace)
    assert set(phisoft.__all__) <= namespace.keys()
    assert len(set(phisoft.__all__)) == len(phisoft.__all__)


def test_every_public_name_imported_by_the_package_is_listed():
    tree = ast.parse(Path(phisoft.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public and public - set(phisoft.__all__) == set()

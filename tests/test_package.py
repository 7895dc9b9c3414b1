"""The package namespace: `__all__` names exactly what `__init__` exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import phisoft

ROOT = Path(__file__).resolve().parent.parent


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


def test_deciding_leaves_the_law_suites_unloaded():
    """`import phisoft` and `phisoft decide` never import `phisoft.laws`."""
    tables = [str(ROOT / "demos" / "data" / f"table{k}.csv") for k in (1, 2)]
    code = (
        "import sys, phisoft\n"
        "from phisoft import cli\n"
        f"assert cli.main(['decide', *{tables!r}]) == 0\n"
        "print('laws loaded:', 'phisoft.laws' in sys.modules)\n"
    )
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("ranking: p4 > p3 > p1 > p2\noptimal: p4\nlaws loaded: False\n")

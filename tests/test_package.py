import ast
import sys
from pathlib import Path

import netnum

SRC = Path(netnum.__file__).parent


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign


def test_package_has_no_assert_statements():
    # invariants are checks that raise, not asserts that python -O drops
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found

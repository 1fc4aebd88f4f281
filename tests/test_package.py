import ast
import json
import os
import subprocess
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


_TRACED_RUN = """
import json, sys
import tracer
t = tracer.Tracer()
t.install()
from netnum import cli
code = cli.main(["run", "--problem", sys.argv[1], "--scenario", sys.argv[2],
                 "--duration", "60", "--out", sys.argv[3]])
metrics = t.metrics("s5-joint-log")
print(json.dumps([code, metrics["solve.dual_update.calls_per_epoch"]]))
"""


def test_benchmark_tracer_wraps_every_name_it_patches(tmp_path):
    # perfbench/tracer.py rebinds netnum functions by name and calls them
    # with fixed signatures; a renamed phase must fail here, not only in a
    # traced benchmark run
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN,
                           str(SRC / "data" / "problems" / "jocp_log.ncp"),
                           str(SRC / "data" / "scenarios" / "s2.cfg"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # one constraint family: one dual step per epoch
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 1.0]

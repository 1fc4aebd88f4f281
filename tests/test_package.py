import ast
import copy
import importlib
import json
import os
import pkgutil
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


def calls_by_scope(names, methods=False):
    """(file, enclosing def or class path, name) of every call, in the
    package, of a bare name in `names`, or with methods=True, of a method
    named in `names`."""
    calls = []

    def called(call):
        if methods:
            return call.func.attr if isinstance(call.func, ast.Attribute) else None
        return call.func.id if isinstance(call.func, ast.Name) else None

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and called(child) in names:
                calls.append((path.name, scope, called(child)))
            visit(child, inner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return sorted(calls)


def test_generated_code_has_one_source():
    # every generated function is defined by expr.SourceGen.define: no
    # other place compiles, execs or evals source
    assert calls_by_scope(("compile", "exec", "eval")) \
        == [("expr.py", "SourceGen.define", "compile"),
            ("expr.py", "SourceGen.define", "exec")]


def test_no_variable_name_is_parsed_back():
    # design-time stages and the solver read a variable's (base, index)
    # pair; only SolverConfig.box splits a name, for boxes keyed by base
    assert sorted(set(calls_by_scope(("rsplit", "rpartition"), methods=True))) \
        == [("solve.py", "SolverConfig.box", "rsplit")]


def test_reuse_state_is_built_in_one_place():
    # every Kept is built by _derive, or by a solver that _derive drops:
    # all reuse state is reset together when net.cfg is replaced
    assert sorted(set(calls_by_scope(("Kept",)))) \
        == [("netsim.py", "_EntitySolver.__init__", "Kept"), ("netsim.py", "_derive", "Kept")]


def test_every_runtime_solve_binds_by_position():
    # one solve path: the simulator's solves, of links and sessions, go
    # through _EntitySolver.solve to solve_args, and solve_program, the
    # generic loop, runs only where solve_args falls back to it
    assert calls_by_scope(("solve_args", "solve_program")) \
        == [("netsim.py", "_EntitySolver.solve", "solve_args"),
            ("solve.py", "dual_loop", "solve_args"),
            ("solve.py", "solve_args", "solve_program")]


def test_cli_starts_without_dataclasses():
    # records are NamedTuples and plain classes: start-up execs no
    # generated methods, and loads neither dataclasses nor what it imports
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import netnum.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if "dataclass" in n]
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
stages = [f"{m}.{f}" for m, f in tracer.STAGES]
print(json.dumps([code, metrics["solve.dual_update.calls_per_epoch"], stages,
                  [s for s in stages if not metrics[f"{s}.ms"] > 0]]))
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
    # one constraint family: one dual step per epoch; and every
    # design-time stage of the build goes through the name the tracer times
    code, steps, stages, untimed = json.loads(proc.stdout.splitlines()[-1])
    assert (code, steps) == (0, 1.0)
    assert "decompose.lift_to_abstract" in stages and untimed == []


def module_containers():
    """Every module-level dict, list and set of the netnum modules, deep
    copied, by (module, name)."""
    for info in pkgutil.iter_modules(netnum.__path__):
        if info.name != "__main__":
            importlib.import_module(f"netnum.{info.name}")
    return {(name, attr): copy.deepcopy(value)
            for name, mod in sorted(sys.modules.items())
            if name == "netnum" or name.startswith("netnum.")
            for attr, value in vars(mod).items()
            if isinstance(value, (dict, list, set)) and not attr.startswith("__")}


def test_runs_leave_module_level_containers_unchanged(tmp_path):
    # reuse state lives on the simulator's objects, never in a
    # module-global cache: no run may add to, drop from or change one
    from netnum import cli
    before = module_containers()
    data = SRC / "data"
    root = Path(__file__).resolve().parent.parent
    for problem, scenario, scheme, duration in [
            ("jocp_log.ncp", data / "scenarios" / "s5.cfg", "joint", "60"),
            ("jocp_log.ncp", root / "perfbench" / "s5_drain.cfg", "rate-only", "600")]:
        code = cli.main(["run", "--problem", str(data / "problems" / problem),
                         "--scenario", str(scenario), "--scheme", scheme,
                         "--duration", duration, "--out", str(tmp_path)])
        assert code == 0
    assert module_containers() == before


_MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
             "pop", "popitem", "remove", "discard", "clear"}


def _own_names(fn):
    """The names a function binds for itself: its parameters and every
    name it stores, less those it declares global."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return names - declared


def test_no_function_mutates_a_module_level_container():
    # no module-global caches: a dict, list or set bound at module level
    # is a constant table, so no state can carry from one build or run
    # into the next through it
    shared: dict[str, set[str]] = {}
    for module, attr in module_containers():
        shared.setdefault(module.partition(".")[2] or "__init__", set()).add(attr)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        names = shared.get(path.stem, set())
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            free = names - _own_names(fn)
            for node in ast.walk(fn):
                target = None
                if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                    target = node.value
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _MUTATORS:
                    target = node.func.value
                if isinstance(target, ast.Name) and target.id in free:
                    found.add(f"{path.name}:{node.lineno} {target.id}")
    assert not found


def test_no_function_mutates_a_parsed_problem():
    # the parsed problem is the one source of truth for every stage after
    # the parse: building, deploying and running leave it as parsed
    from netnum import abstraction, cli, netsim
    for path in sorted((SRC / "data" / "problems").glob("*.ncp")):
        problem = abstraction.parse_problem(path.read_text())
        programs, _, _ = cli.build_programs(problem)
        net = cli.deploy(problem, programs, netsim.ScenarioConfig(scenario=2))
        for _ in range(3):
            netsim.step(net, "joint")
        fresh = abstraction.parse_problem(path.read_text())
        assert problem._replace(graph=None) == fresh._replace(graph=None), path.name
        assert problem.graph.elements == fresh.graph.elements
        assert type(problem.constraints) is tuple and type(problem.box_rules) is tuple

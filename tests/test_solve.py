import math
import random
from pathlib import Path

import pytest

from netnum import abstraction as ab
from netnum import decompose as dc
from netnum import expr as ex
from netnum import instantiate as it
from netnum import solve as sv
from netnum.reference import TOY_SESSIONS_OF_LINK

from conftest import TOY_CONST


def _prog(objective, decision="sesrate", mode="best_response"):
    return dc.ControlProgram("transport", "session", objective, decision, (), mode=mode)


def linear_rate_prog():
    return _prog(ex.sub(ex.var("sesrate"),
                        ex.mul(ex.var("sesrate"), ex.var("lbd"))))


def _args(compiled, params):
    """params, by name, as the sequence compiled.fused takes."""
    return [params[name] for name in compiled.params]


def test_linear_program_saturates_box():
    cfg = sv.SolverConfig(step=0.05, boxes={"sesrate": (0.0, 5.0)})
    d = sv.solve_program(linear_rate_prog(), {"lbd": 0.0, "sesrate_anchor": 0.0}, cfg)
    assert d == {"sesrate": 5.0}


def test_linear_program_negative_slope_hits_lower_bound():
    cfg = sv.SolverConfig(step=0.05, boxes={"sesrate": (0.0, 5.0)})
    d = sv.solve_program(linear_rate_prog(), {"lbd": 2.0, "sesrate_anchor": 3.0}, cfg)
    assert d == {"sesrate": 0.0}


def test_log_program_stationarity_matches_grid_search():
    obj = ex.sub(ex.ln(ex.var("sesrate")),
                 ex.mul(ex.var("sesrate"), ex.var("lbd")))
    cfg = sv.SolverConfig(step=0.5, max_iters=5000, tol=1e-12,
                          boxes={"sesrate": (0.01, 10.0)})
    d = sv.solve_program(_prog(obj), {"lbd": 0.5, "sesrate_anchor": 0.01}, cfg)
    # independent grid search at resolution 1e-4
    grid_best = max((k * 1e-4 for k in range(100, 100001)),
                    key=lambda r: math.log(r) - 0.5 * r)
    assert abs(grid_best - 2.0) <= 1e-4
    assert abs(d["sesrate"] - grid_best) < 1e-3


def test_solve_idempotent_at_convergence():
    obj = ex.sub(ex.ln(ex.var("sesrate")),
                 ex.mul(ex.var("sesrate"), ex.var("lbd")))
    cfg = sv.SolverConfig(step=0.5, max_iters=5000, tol=1e-12,
                          boxes={"sesrate": (0.01, 10.0)})
    params = {"lbd": 0.5}
    first = sv.solve_program(_prog(obj), {**params, "sesrate_anchor": 0.01}, cfg)
    second = sv.solve_program(_prog(obj),
                              {**params, "sesrate_anchor": first["sesrate"]}, cfg)
    assert abs(second["sesrate"] - first["sesrate"]) < cfg.tol * 10


def test_gradient_mode_is_single_projected_step():
    cfg = sv.SolverConfig(step=0.1, max_iters=100, boxes={"sesrate": (0.0, 5.0)})
    prog = _prog(linear_rate_prog().objective, mode="gradient")
    d = sv.solve_program(prog, {"lbd": 0.0, "sesrate_anchor": 1.0}, cfg)
    assert abs(d["sesrate"] - 1.1) < 1e-12


def test_numerical_error_on_nonfinite():
    obj = ex.div(ex.ONE, ex.var("sesrate"))
    cfg = sv.SolverConfig(step=1.0, boxes={"sesrate": (0.0, 1.0)})
    with pytest.raises((sv.NumericalError, ex.DomainError)):
        sv.solve_program(_prog(obj), {"sesrate_anchor": 0.0}, cfg)


def test_compiled_program_solves_as_the_plain_program():
    log_obj = ex.sub(ex.ln(ex.var("sesrate")),
                     ex.mul(ex.var("sesrate"), ex.var("lbd")))
    cfg = sv.SolverConfig(step=0.5, max_iters=50, max_move=0.3,
                          boxes={"sesrate": (0.01, 10.0)})
    for prog in (_prog(log_obj), linear_rate_prog(),
                 _prog(log_obj, mode="gradient")):
        compiled = sv.compile_program(prog)
        assert compiled.var == "sesrate"
        for lbd, anchor in ((0.5, 0.01), (0.1, 7.0), (2.0, 3.0)):
            params = {"lbd": lbd, "sesrate_anchor": anchor}
            assert sv.solve_program(compiled, params, cfg) \
                == sv.solve_program(prog, params, cfg)


def test_a_program_compiles_only_what_its_mode_runs(monkeypatch):
    defined, define = [], ex.SourceGen.define

    def counted_define(gen, source, fname, **names):
        defined.append(fname)
        return define(gen, source, fname, **names)

    monkeypatch.setattr(ex.SourceGen, "define", counted_define)
    cfg = sv.SolverConfig(step=0.5, boxes={"sesrate": (0.01, 10.0)})
    params = {"lbd": 0.5, "sesrate_anchor": 1.0}
    # ascent: the fused loop alone, at compile time
    compiled = sv.compile_program(_prog(LOG_RATE))
    assert defined == ["fused"]
    sv.solve_program(compiled, params, cfg)
    assert defined == ["fused"]
    # the generic loop compiles its objective and gradient once, when run
    generic = compiled._replace(fused=None)
    for _ in range(2):
        sv.solve_program(generic, params, cfg)
    assert defined == ["fused", "compiled", "compiled"]
    # gradient mode: its gradient alone, at its first solve
    defined.clear()
    compiled = sv.compile_program(_prog(LOG_RATE, mode="gradient"))
    assert defined == []
    for _ in range(2):
        sv.solve_program(compiled, params, cfg)
    assert defined == ["compiled"]


def test_compile_program_rejects_unexpanded_sums_and_missing_decision():
    with pytest.raises(sv.SolveError, match="unexpanded"):
        sv.compile_program(_prog(ex.bigsum("seslnk", ex.var("lbd", "seslnk"))))
    with pytest.raises(sv.SolveError, match="no sesrate variable"):
        sv.compile_program(_prog(ex.var("lbd")))


def test_compile_program_rejects_two_decision_variables():
    obj = ex.add(ex.var("sesrate", 0), ex.var("sesrate", 1))
    with pytest.raises(sv.SolveError, match=r"\(sesrate_00, sesrate_01\)"):
        sv.compile_program(_prog(obj))


def test_dual_update_arithmetic():
    duals = sv.dual_update([0.5], [-0.2], 0.1)
    assert abs(duals[0] - 0.52) < 1e-12


def test_dual_update_projection_at_zero():
    duals = sv.dual_update([0.05], [1.0], 0.1)
    assert duals[0] == 0.0


def test_dual_update_refuses_slacks_of_another_length():
    for slacks in ([], [1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(sv.SolveError, match=f"{len(slacks)} slacks for 2 duals"):
            sv.dual_update([0.5, 0.5], slacks, 0.1)


def test_dual_nonnegative_under_random_updates():
    rng = random.Random(0)
    duals = [rng.uniform(0, 1) for _ in range(4)]
    for _ in range(500):
        slacks = [rng.uniform(-3, 3) for _ in duals]
        duals = sv.dual_update(duals, slacks, 0.2)
        assert all(v >= 0.0 for v in duals)


def test_monotone_pressure_while_violated():
    duals = [0.0]
    prev = 0.0
    for _ in range(50):
        duals = sv.dual_update(duals, [-1.0], 0.05)
        assert duals[0] >= prev
        prev = duals[0]


def test_diminishing_dual_step():
    # dual_loop's schedule with diminishing set; test_pins.py pins its results
    duals = [10.0]
    duals = sv.dual_update(duals, [1.0], 1.0 / math.sqrt(1))
    assert abs(duals[0] - 9.0) < 1e-12
    duals = sv.dual_update(duals, [1.0], 1.0 / math.sqrt(2))
    assert abs(duals[0] - (9.0 - 1 / math.sqrt(2))) < 1e-12


@pytest.fixture(scope="module")
def toy_const_inst():
    p = ab.parse_problem(TOY_CONST)
    return it.instantiate_problem(p, it.InstanceConfig(3, 2, 7),
                                  preset={"lnkses": TOY_SESSIONS_OF_LINK})


def test_oracle_toy_constant_capacities(toy_const_inst):
    inst, _ = toy_const_inst
    best, val = sv.centralized_oracle(inst, 0.01)
    assert best == {"sesrate_00": 0.5, "sesrate_01": 0.5, "sesrate_02": 0.5}
    assert abs(val - 1.5) <= 0.01 + 1e-9


def test_oracle_infeasible_everywhere():
    src = ("var wos_x path=netses.sesrate quant=all,none\n"
           "var wos_y path=netlnk.lnkses.sesrate quant=every,all,none\n"
           "utility max sum(wos_x)\n"
           "constraint sum(wos_y) <= -1\n"
           "constraint 0 <= wos_x\nconstraint wos_x <= 1\n"
           "decompose cross=dual dist=best_response\n")
    p = ab.parse_problem(src)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 7),
                                     preset={"lnkses": TOY_SESSIONS_OF_LINK})
    with pytest.raises(sv.InfeasibleEverywhere):
        sv.centralized_oracle(inst, 0.25)


def test_oracle_rejects_too_many_variables(jocp_inst):
    inst, _ = jocp_inst
    with pytest.raises(sv.SolveError):
        sv.centralized_oracle(inst, 0.5)


def test_dual_loop_converges_to_oracle(toy_const_inst):
    inst, _ = toy_const_inst
    dp = dc.dualize(inst)
    cfg = sv.SolverConfig(step=0.05, dual_step=0.05,
                          boxes={"sesrate": (0.0, 1.0)})
    res = sv.dual_loop(dp, cfg, epochs=2000, seed=1)
    assert abs(res.utility - 1.5) / 1.5 < 0.05
    assert all(v >= 0 for v in res.duals)


def test_dual_loop_inactive_constraint_dual_vanishes():
    src = ("var wos_x path=netses.sesrate quant=all,none\n"
           "var wos_y path=netlnk.lnkses.sesrate quant=every,all,none\n"
           "var wos_z path=netlnk.lnkcap quant=every,none\n"
           "utility max sum(wos_x)\n"
           "constraint sum(wos_y) <= wos_z\n"
           "constraint 0 <= wos_x\nconstraint wos_x <= 1\n"
           "decompose cross=dual dist=best_response\n")
    p = ab.parse_problem(src)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 7),
                                     preset={"lnkses": TOY_SESSIONS_OF_LINK})
    dp = dc.dualize(inst)
    caps = {"lnkcap_00": 1.0, "lnkcap_01": 1.0, "lnkcap_02": 3.0}
    cfg = sv.SolverConfig(step=0.05, dual_step=0.05,
                          boxes={"sesrate": (0.0, 1.0)})
    res = sv.dual_loop(dp, cfg, epochs=3000, seed=1, params=caps)
    best, val = sv.centralized_oracle(inst, 0.02, params=caps)
    # third constraint is slack at the optimum; its dual decays to zero
    assert abs(best["sesrate_01"] - 1.0) <= 0.02 and abs(best["sesrate_02"] - 1.0) <= 0.02
    assert res.duals[2] < 0.02
    # oracle utility and loop utility agree up to averaging slack
    assert res.utility >= val - 0.15
    assert val >= res.utility - 0.05


# ---------------------------------------------------------------------------
# compiled programs raise what eval_expr raises

def _shipped_programs():
    """The compiled link programs of jocp_log and powermin (with their
    interference penalties) and the jocp_log session program on s5."""
    from pathlib import Path

    import netnum
    from netnum import cli, netsim
    problems = Path(netnum.__file__).parent / "data" / "problems"
    out = []
    for name, kinds in (("jocp_log.ncp", (("link", 7), ("session", 1))),
                        ("powermin.ncp", (("link", 7),))):
        problem = ab.parse_problem((problems / name).read_text())
        programs, _, _ = cli.build_programs(problem)
        net = cli.deploy(problem, programs, netsim.ScenarioConfig(scenario=5))
        netsim._apply_pending(net)
        for kind, idx in kinds:
            out.append(netsim._get_solver(net, kind, idx).program)
    return out


def _random_env(rng, tree):
    return {n: rng.uniform(0.0, 30.0) if n.startswith("pwrgain")
            else rng.uniform(0.01, 3.0) for n in sorted(ex.free_vars(tree))}


def test_staged_program_missing_parameter_raises_as_unstaged():
    link = _shipped_programs()[0]
    env = _random_env(random.Random(13), link.prog.objective)
    noise = min(n for n in env if n.startswith("itf_lnknoise@"))
    # inside a decision-invariant interference term, and a bare factor of
    # the own term
    for missing in (noise, "lbd"):
        partial = {k: v for k, v in env.items() if k != missing}
        with pytest.raises(ex.UnboundVariable) as unstaged:
            ex.eval_expr(link.prog.objective, partial)
        assert unstaged.value.name == missing
        with pytest.raises(ex.UnboundVariable) as solved:
            sv.solve_program(link, partial, sv.SolverConfig(boxes={"pwrgain": (0.0, 30.0)}))
        assert solved.value.name == unstaged.value.name


@pytest.mark.parametrize("invariant, lbd", [
    (ex.ln(ex.var("lbd")), -1.0),
    (ex.div(ex.ONE, ex.sub(ex.var("lbd"), ex.ONE)), 1.0),
    (ex.exp10(ex.var("lbd")), 400.0),
], ids=["ln-negative", "div-zero", "exp10-overflow"])
def test_staged_domain_error_raises_as_unstaged(invariant, lbd):
    obj = ex.sub(ex.ln(ex.var("sesrate")), ex.mul(ex.var("sesrate"), invariant))
    prog = _prog(obj)
    env = {"lbd": lbd, "sesrate": 1.0}
    with pytest.raises(Exception) as unstaged:
        ex.eval_expr(obj, env)
    cfg = sv.SolverConfig(boxes={"sesrate": (0.01, 10.0)})
    with pytest.raises(Exception) as staged:
        sv.solve_program(sv.compile_program(prog), {"lbd": lbd, "sesrate_anchor": 1.0}, cfg)
    assert type(staged.value) is type(unstaged.value)
    assert str(staged.value) == str(unstaged.value)


def test_gradient_mode_ignores_an_objective_only_domain_error():
    # d/dsesrate is lbd + 1; ln(mu) fails, and only the objective holds it
    obj = ex.sub(ex.mul(ex.var("sesrate"), ex.add(ex.var("lbd"), ex.ONE)),
                 ex.ln(ex.var("mu")))
    cfg = sv.SolverConfig(step=0.25, boxes={"sesrate": (0.0, 5.0)})
    compiled = sv.compile_program(_prog(obj, mode="gradient"))
    params = {"lbd": 1.0, "mu": -1.0, "sesrate_anchor": 1.0}
    assert sv.solve_program(compiled, params, cfg) == {"sesrate": 1.5}
    with pytest.raises(ex.DomainError):
        sv.solve_program(sv.compile_program(_prog(obj)), params, cfg)


def test_solve_skips_the_trial_when_the_step_cannot_move(monkeypatch):
    # the anchor sits on the upper edge and the gradient points outward
    calls = {"objective": 0, "gradient": 0}

    def counted(kind, fn):
        def evaluate(env):
            calls[kind] += 1
            return fn(env)
        return evaluate

    compile_program = sv.compile_program

    def counted_program(prog):
        # the generic loop: without the fused function, which bypasses
        # the objective and gradient functions
        c = compile_program(prog)
        return c._replace(
            objective=counted("objective", c.objective),
            grad=counted("gradient", c.grad),
            fused=None)

    monkeypatch.setattr(sv, "compile_program", counted_program)
    cfg = sv.SolverConfig(step=0.05, boxes={"sesrate": (0.0, 5.0)})
    params = {"lbd": 0.0, "sesrate_anchor": 5.0}
    d = sv.solve_program(linear_rate_prog(), params, cfg)
    assert d == {"sesrate": 5.0}
    assert calls == {"objective": 1, "gradient": 1}
    # the fused loop reports its own evaluation counts
    compiled = compile_program(linear_rate_prog())
    assert compiled.fused(_args(compiled, params), 0.0, 5.0, cfg) == (5.0, 1, 1)


def test_staging_keeps_each_operation_in_place():
    # x + (sesrate - lbd) as built, not flattened: at x = lbd = 2**53 and
    # sesrate = 3 it is 3.0, where x + sesrate - lbd left to right is 4.0
    # (2**53 + 3 rounds to 2**53 + 4).  The ascents on -(sum)^2 from
    # there differ, and the fused loop takes the generic loop's path.
    x, lbd, sesrate = ex.var("x"), ex.var("lbd"), ex.var("sesrate")
    env = {"x": 2.0 ** 53, "lbd": 2.0 ** 53, "sesrate": 3.0}
    params = {"x": 2.0 ** 53, "lbd": 2.0 ** 53, "sesrate_anchor": 3.0}
    cfg = sv.SolverConfig(step=0.5, boxes={"sesrate": (-10.0, 10.0)})
    paths = []
    for total, at_anchor in ((ex.Expr("add", (x, ex.Expr("add", (sesrate, ex.neg(lbd))))), 3.0),
                             (ex.add(x, sesrate, ex.neg(lbd)), 4.0)):
        compiled = sv.compile_program(_prog(ex.neg(ex.mul(total, total))))
        assert compiled.objective(env) == -at_anchor ** 2
        generic, calls = _counted_generic(compiled)
        want = sv.solve_program(generic, params, cfg)["sesrate"]
        fused = compiled.fused(_args(compiled, params), -10.0, 10.0, cfg)
        assert fused == (want, calls["objective"], calls["gradient"])
        paths.append(fused)
    assert paths[0] != paths[1]


# ---------------------------------------------------------------------------
# the fused solver: the ascent loop as one generated function

DATA = Path(sv.__file__).parent / "data"


@pytest.mark.parametrize("problem", ["jocp.ncp", "jocp_log.ncp",
                                     "jocp_log_powercap.ncp", "powermin.ncp"])
def test_fused_solver_matches_the_generic_loop(monkeypatch, problem):
    from netnum import cli, netsim
    solve_program = sv.solve_program
    generic: dict[int, sv.CompiledProgram] = {}
    solved = {"pwrgain": 0, "sesrate": 0}

    def both(prog, params, cfg):
        v = prog.var
        fused = prog.fused(_args(prog, params), *cfg.box(v), cfg)
        plain = generic.setdefault(id(prog), prog._replace(fused=None))
        want = solve_program(plain, params, cfg)
        assert fused is not None
        assert fused[0].hex() == want[v].hex()
        solved[v] += 1
        return want

    # link solves pass their parameters by position
    def both_by_position(prog, args, lo, hi, cfg):
        assert (lo, hi) == cfg.box(prog.var)
        return both(prog, dict(zip(prog.params, args)), cfg)[prog.var]

    # a link solve that repeats, bit for bit, the parameters of its last
    # solve, when that one left the power in place, reuses its decision
    # without solving: each must equal a fresh solve
    link_solves = 0
    entity_solve = netsim._EntitySolver.solve

    def checked(solver, args):
        nonlocal link_solves
        link_solves += 1
        decision = entity_solve(solver, args)
        params = dict(zip(solver.program.params, args))
        fresh = solve_program(solver.program, params, solver.cfg)
        assert decision.hex() == fresh["pwrgain"].hex()
        return decision

    monkeypatch.setattr(netsim, "solve_program", both)
    monkeypatch.setattr(netsim, "solve_args", both_by_position)
    monkeypatch.setattr(netsim._EntitySolver, "solve", checked)
    for scenario, duration in (("s2.cfg", 90), ("s4.cfg", 90), ("s5.cfg", 60)):
        parsed = ab.parse_problem((DATA / "problems" / problem).read_text())
        programs, _, _ = cli.build_programs(parsed)
        cfg = netsim.load_scenario((DATA / "scenarios" / scenario).read_text())
        netsim.run(cli.deploy(parsed, programs, cfg), duration, "joint")
    # solves run plus solves reused: one per link and epoch, since no
    # power pass of these runs is skipped
    assert link_solves == 90 * 4 + 90 * 6 + 60 * 18
    assert 0 < solved["pwrgain"] <= link_solves
    if problem == "jocp_log.ncp":
        assert solved["pwrgain"] < link_solves
    assert solved["sesrate"] == 3 * 2 + 3 * 3 + 2 * 3


LOG_RATE = ex.sub(ex.ln(ex.var("sesrate")), ex.mul(ex.var("sesrate"), ex.var("lbd")))


def _shifted_square(total):
    """-(sesrate - total)^2: the ascent lands on total."""
    d = ex.sub(ex.var("sesrate"), total)
    return ex.neg(ex.mul(d, d))


RATE_BOX = dict(boxes={"sesrate": (0.01, 10.0)})


@pytest.mark.parametrize("obj, params, cfg, error, message", [
    (LOG_RATE, {"sesrate_anchor": 1.0}, RATE_BOX,
     ex.UnboundVariable, "unbound variable: lbd"),
    # ln(lbd) does not vary with the decision
    (ex.sub(ex.ln(ex.var("sesrate")), ex.mul(ex.var("sesrate"), ex.ln(ex.var("lbd")))),
     {"lbd": -1.0, "sesrate_anchor": 1.0}, RATE_BOX,
     ex.DomainError, "ln of non-positive value -1.0"),
    (ex.mul(ex.var("sesrate"), ex.var("lbd")), {"lbd": math.inf, "sesrate_anchor": 1.0},
     RATE_BOX, sv.NumericalError, "non-finite objective at start"),
    # -inf at the anchor, with a finite gradient, and finite after the
    # first (capped) move: only the check at the start fails
    (_shifted_square(ex.ZERO), {"sesrate_anchor": 1.5e154},
     dict(boxes={"sesrate": (-1e300, 1e300)}, max_move=1e154),
     sv.NumericalError, "non-finite objective at start"),
    # 1/x is 1e160, its gradient -1/(x*x) is -inf
    (ex.div(ex.ONE, ex.var("sesrate")), {"sesrate_anchor": 1e-160},
     dict(boxes={"sesrate": (1e-300, 1.0)}), sv.NumericalError,
     "non-finite gradient for sesrate"),
    # x*x climbs from 1e308 to +inf, which every later trial matches
    (ex.mul(ex.var("sesrate"), ex.var("sesrate")), {"sesrate_anchor": 1e154},
     dict(boxes={"sesrate": (-1e300, 1e300)}, max_move=5e153, max_iters=3),
     sv.NumericalError, "non-finite objective at solution"),
    # not a number: the objective multiplies by it first
    (LOG_RATE, {"lbd": None, "sesrate_anchor": 1.0}, RATE_BOX,
     TypeError, "unsupported operand type(s) for *: 'float' and 'NoneType'"),
    # a move of 1e160 overflows when squared
    (ex.var("sesrate"), {"sesrate_anchor": 0.0},
     dict(step=1e160, boxes={"sesrate": (-1e300, 1e300)}),
     sv.NumericalError, "non-finite move for sesrate"),
], ids=["unbound", "prelude-domain", "non-finite-start", "minus-infinity-start",
        "infinite-gradient", "infinite-at-solution", "not-a-number", "move-overflow"])
def test_fused_solver_raises_as_the_generic_loop(obj, params, cfg, error, message):
    # the parameters in the order of params, which may miss a variable
    compiled = sv.compile_program(_prog(obj), tuple(params))
    cfg = sv.SolverConfig(**{"step": 0.5, **cfg})
    assert compiled.fused(list(params.values()), *cfg.box("sesrate"), cfg) is None
    raised = []
    for prog in (compiled._replace(fused=None), compiled):
        with pytest.raises(Exception) as exc:
            sv.solve_program(prog, params, cfg)
        raised.append((type(exc.value), str(exc.value)))
    assert raised == [(error, message)] * 2


def test_fused_solver_sums_fold_left_from_zero():
    # 1e16 + 1.0 - 1e16 is 0.0 folded left, 1.0 compensated
    total = ex.add(ex.var("a"), ex.var("b"), ex.var("c"))
    compiled = sv.compile_program(_prog(_shifted_square(total)))
    cfg = sv.SolverConfig(step=0.5, boxes={"sesrate": (-5.0, 5.0)})
    params = {"a": 1e16, "b": 1.0, "c": -1e16, "sesrate_anchor": 3.0}
    x, _, _ = compiled.fused(_args(compiled, params), -5.0, 5.0, cfg)
    assert x.hex() == (0.0).hex()
    assert sv.solve_program(compiled._replace(fused=None), params, cfg) \
        == {"sesrate": x}


def test_fused_solver_merges_equal_subtrees():
    # each neighbour's -lnkpwr_anchor and each gradient term's 2048*2048,
    # built apart, are computed once, before the loop
    link = _shipped_programs()[0]
    trees = [link.prog.objective, ex.differentiate(link.prog.objective, "pwrgain")]
    built: dict[int, ex.Expr] = {}

    def collect(e):
        built[id(e)] = e
        for c in e.children:
            collect(c)

    for tree in trees:
        collect(tree)
    rendered = [ex.render(e) for e in built.values()]
    assert rendered.count("-lnkpwr_anchor") == 2 and rendered.count("2048*2048") == 3
    gen = ex.SourceGen(link.params)
    gen.bind("pwrgain", "p")
    for tree in trees:
        gen.emit(tree)
    anchor, = (local for local, name in gen.reads if name == "lnkpwr_anchor")
    two_k, = (name for name, value in gen.consts.items() if value == 2048.0)
    merged = [name for name, code in gen.lines
              if code in (f"-{anchor}", f"1.0 * {two_k} * {two_k}")]
    assert len(merged) == 2 and not gen.varying.intersection(merged)


def _counted_generic(compiled):
    """The generic loop over compiled, and its evaluation counts."""
    calls = {"objective": 0, "gradient": 0}

    def counted(kind, fn):
        def evaluate(env):
            calls[kind] += 1
            return fn(env)
        return evaluate

    return compiled._replace(
        objective=counted("objective", compiled.objective),
        grad=counted("gradient", compiled.grad),
        fused=None), calls


@pytest.mark.parametrize("obj, anchor, cfg, decision", [
    # the step cannot move off the box edge
    (LOG_RATE, 10.0, dict(step=0.5, boxes={"sesrate": (0.01, 10.0)}), None),
    # only the 30th trial step, scaled by 2**-29, stays within the peak
    (_shifted_square(ex.ZERO), 1.0,
     dict(step=0.75 * 2.0 ** 29, max_iters=1, boxes={"sesrate": (-10.0, 10.0)}), -0.5),
    # no trial of the 30 is accepted
    (_shifted_square(ex.ZERO), 1.0,
     dict(step=2.0 ** 31, max_iters=1, boxes={"sesrate": (-10.0, 10.0)}), 1.0),
    # moves shrink below the tolerance
    (LOG_RATE, 0.5, dict(step=0.5, tol=1e-3, boxes={"sesrate": (0.01, 10.0)}), None),
    # every move is capped, and the iterations run out
    (LOG_RATE, 0.5, dict(step=0.5, max_move=0.05, max_iters=7,
                         boxes={"sesrate": (0.01, 10.0)}), 0.85),
], ids=["box-edge", "thirtieth-halving", "halvings-exhausted", "tolerance", "max-move"])
def test_fused_solver_leaves_the_loop_as_the_generic_loop(obj, anchor, cfg, decision):
    compiled = sv.compile_program(_prog(obj))
    cfg = sv.SolverConfig(**cfg)
    params = {"lbd": 0.5, "sesrate_anchor": anchor}
    generic, calls = _counted_generic(compiled)
    want = sv.solve_program(generic, params, cfg)["sesrate"]
    fused = compiled.fused(_args(compiled, params), *cfg.box("sesrate"), cfg)
    assert fused is not None
    x, n_obj, n_grad = fused
    assert (x.hex(), n_obj, n_grad) == (want.hex(), calls["objective"], calls["gradient"])
    if decision is not None:
        assert x == pytest.approx(decision)

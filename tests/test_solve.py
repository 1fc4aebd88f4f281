import math
import random

import pytest

from netnum import abstraction as ab
from netnum import decompose as dc
from netnum import expr as ex
from netnum import instantiate as it
from netnum import solve as sv
from netnum.reference import TOY_SESSIONS_OF_LINK

from conftest import TOY_CONST


def _prog(objective, decision="sesrate", mode="best_response"):
    return dc.ControlProgram("transport", "session", objective, "max",
                             decision, (), mode=mode)


def linear_rate_prog():
    return _prog(ex.sub(ex.var("sesrate"),
                        ex.mul(ex.var("sesrate"), ex.var("lbd"))))


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
        assert compiled.owned == ("sesrate",)
        for lbd, anchor in ((0.5, 0.01), (0.1, 7.0), (2.0, 3.0)):
            params = {"lbd": lbd, "sesrate_anchor": anchor}
            assert sv.solve_program(compiled, params, cfg) \
                == sv.solve_program(prog, params, cfg)


def test_compile_program_rejects_unexpanded_sums_and_missing_decision():
    with pytest.raises(sv.SolveError, match="unexpanded"):
        sv.compile_program(_prog(ex.bigsum("seslnk", ex.var("lbd", "seslnk"))))
    with pytest.raises(sv.SolveError, match="no sesrate variable"):
        sv.compile_program(_prog(ex.var("lbd")))


def test_dual_update_arithmetic():
    st = sv.dual_update(sv.DualState({"lbd_00": 0.5}), {"lbd_00": -0.2},
                        sv.SolverConfig(dual_step=0.1))
    assert abs(st.values["lbd_00"] - 0.52) < 1e-12


def test_dual_update_projection_at_zero():
    st = sv.dual_update(sv.DualState({"lbd_00": 0.05}), {"lbd_00": 1.0},
                        sv.SolverConfig(dual_step=0.1))
    assert st.values["lbd_00"] == 0.0


def test_dual_nonnegative_under_random_updates():
    rng = random.Random(0)
    st = sv.DualState({f"lbd_{i:02d}": rng.uniform(0, 1) for i in range(4)})
    cfg = sv.SolverConfig(dual_step=0.2)
    for _ in range(500):
        slacks = {k: rng.uniform(-3, 3) for k in st.values}
        st = sv.dual_update(st, slacks, cfg)
        assert all(v >= 0.0 for v in st.values.values())


def test_monotone_pressure_while_violated():
    st = sv.DualState({"lbd_00": 0.0})
    cfg = sv.SolverConfig(dual_step=0.05)
    prev = 0.0
    for _ in range(50):
        st = sv.dual_update(st, {"lbd_00": -1.0}, cfg)
        assert st.values["lbd_00"] >= prev
        prev = st.values["lbd_00"]


def test_diminishing_dual_step():
    cfg = sv.SolverConfig(dual_step=1.0, diminishing=True)
    st = sv.DualState({"l": 10.0})
    st = sv.dual_update(st, {"l": 1.0}, cfg)       # step 1/sqrt(1)
    assert abs(st.values["l"] - 9.0) < 1e-12
    st = sv.dual_update(st, {"l": 1.0}, cfg)       # step 1/sqrt(2)
    assert abs(st.values["l"] - (9.0 - 1 / math.sqrt(2))) < 1e-12


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
    assert all(v >= 0 for v in res.duals.values.values())


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
    assert res.duals.values["lbd_02"] < 0.02
    # oracle utility and loop utility agree up to averaging slack
    assert res.utility >= val - 0.15
    assert val >= res.utility - 0.05

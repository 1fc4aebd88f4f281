"""Acceptance suite: one test per verification criterion.  Each test runs
its experiment at the stated tolerance and prints a single pass line
(run with `pytest -s tests/test_acceptance.py` to see them)."""

import math
import statistics
import time
from itertools import combinations
from pathlib import Path

import pytest

import netnum
from netnum import abstraction as ab
from netnum import cli
from netnum import decompose as dc
from netnum import expr as ex
from netnum import instantiate as it
from netnum import netsim as ns
from netnum import solve as sv
from netnum.reference import REFERENCE_SESSIONS_OF_LINK, TOY_SESSIONS_OF_LINK

from conftest import JOCP_LOG, JOCP_RATE, TOY_CONST

DATA = Path(netnum.__file__).parent / "data"

SESSION4_LINKS = (0, 3, 4, 7, 9, 10, 11, 12, 13, 14, 18, 19)


def _mean_utilities(problem, programs, scenario, seeds, scheme, duration=1500.0):
    vals = []
    for seed in seeds:
        net = cli.deploy(problem, programs,
                         ns.ScenarioConfig(scenario=scenario, seed=seed))
        trace = ns.run(net, duration, scheme)
        vals.append(trace.mean("net", "sum_utility", tail=0.3))
    return statistics.mean(vals)


def test_criterion_1_toy_golden(jocp_problem, toy_inst):
    t0 = time.time()
    inst, imap = toy_inst
    assert ex.render(inst.utility) == "sesrate_00 + sesrate_01 + sesrate_02"
    assert [f"{ex.render(c.lhs)} <= {ex.render(c.rhs)}" for c in inst.constraints] == [
        "sesrate_00 + sesrate_01 <= lnkcap_00",
        "sesrate_00 + sesrate_02 <= lnkcap_01",
        "sesrate_01 + sesrate_02 <= lnkcap_02",
    ]
    dp = dc.dualize(inst)
    assert ex.render(dp.dual) == (
        "sesrate_00 + sesrate_01 + sesrate_02"
        " + lnkcap_00*lbd_00 - sesrate_00*lbd_00 - sesrate_01*lbd_00"
        " + lnkcap_01*lbd_01 - sesrate_00*lbd_01 - sesrate_02*lbd_01"
        " + lnkcap_02*lbd_02 - sesrate_01*lbd_02 - sesrate_02*lbd_02")
    layers, residual = dc.split_by_layer(dp, jocp_problem.graph)
    assert residual == []
    flows = dc.split_by_entity(layers["transport"], jocp_problem.graph)
    assert [ex.render(f.objective) for f in flows] == [
        "sesrate_00 - sesrate_00*lbd_00 - sesrate_00*lbd_01",
        "sesrate_01 - sesrate_01*lbd_00 - sesrate_01*lbd_02",
        "sesrate_02 - sesrate_02*lbd_01 - sesrate_02*lbd_02",
    ]
    assert ex.render(layers["physical"].objective) == \
        "lnkcap_00*lbd_00 + lnkcap_01*lbd_01 + lnkcap_02*lbd_02"
    dt = time.time() - t0
    assert dt < 1.0
    print(f"\n[criterion 1] PASS toy instantiation/dual/split goldens ({dt:.2f}s)")


def test_criterion_2_jocp_golden(jocp_problem, jocp_inst):
    t0 = time.time()
    inst, imap = jocp_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, jocp_problem.graph)
    s4 = next(s for s in dc.split_by_entity(layers["transport"], jocp_problem.graph)
              if s.entity_index == 4)
    expected = "sesrate_04 " + " ".join(f"- sesrate_04*lbd_{j:02d}"
                                        for j in SESSION4_LINKS)
    assert ex.render(s4.objective) == expected
    prog = dc.lift_to_abstract(s4, imap)
    assert ex.render(prog.objective) == "sesrate - sesrate*sum(seslnk: lbd)"
    assert prog.collect == (dc.CollectionRule("seslnk", 0),)
    assert imap.lcl["seslnk"].instances[4] == SESSION4_LINKS
    dt = time.time() - t0
    assert dt < 5.0
    print(f"\n[criterion 2] PASS session-4 subproblem, lift, and inversion ({dt:.2f}s)")


def test_criterion_3_di_property_suite(jocp_problem):
    t0 = time.time()
    assert it.InstanceConfig().capacity == 184756
    for seed in range(1000):
        cfg = it.InstanceConfig(seed=seed)
        _, imap = it.instantiate_problem(jocp_problem, cfg)
        fam = imap.lcl["lnkses"]
        vals = list(fam.instances.values())
        assert all(len(v) == cfg.n_lcl for v in vals)                  # rule 1
        assert len(set(vals)) == len(vals)                             # rule 2
        assert len({it.hash_id(v) for v in vals}) == len(vals)
        for a, b in combinations(vals, 2):                             # no subset
            assert not set(a) < set(b) and not set(b) < set(a)
    for seed in (0, 1, 999):
        cfg = it.InstanceConfig(seed=seed)
        _, a = it.instantiate_problem(jocp_problem, cfg)
        _, b = it.instantiate_problem(jocp_problem, cfg)
        assert a.lcl["lnkses"].instances == b.lcl["lnkses"].instances  # determinism
    dt = time.time() - t0
    assert dt < 30.0
    print(f"\n[criterion 3] PASS rules 1-2 over 1000 seeded instantiations, "
          f"capacity 184756 ({dt:.1f}s)")


def test_criterion_4_differentiation_suite(jocp_problem):
    import random
    t0 = time.time()
    model = ab.resolve_model(jocp_problem.graph, "lnkcap")
    rng = random.Random(42)
    worst = 0.0
    for wrt in ("itfpwr", "lnkpwr"):
        deriv = ex.differentiate(model, wrt)
        for _ in range(50):
            env = {"freq": 2e5, "lnkpwr": rng.uniform(0.5, 900),
                   "lnkgain": rng.uniform(1e-6, 1e-4),
                   "lnknoise": rng.uniform(1e-5, 1e-3),
                   "lnkgain_itf": rng.uniform(1e-7, 1e-5),
                   "itfpwr": rng.uniform(0.5, 900)}
            h = 1e-6 * max(1.0, abs(env[wrt]))
            hi = dict(env, **{wrt: env[wrt] + h})
            lo = dict(env, **{wrt: env[wrt] - h})
            num = (ex.eval_expr(model, hi) - ex.eval_expr(model, lo)) / (2 * h)
            sym = ex.eval_expr(deriv, env)
            rel = abs(sym - num) / max(1e-12, abs(num))
            worst = max(worst, rel)
            assert rel < 1e-5
    dt = time.time() - t0
    assert dt < 1.0
    print(f"\n[criterion 4] PASS capacity derivatives vs finite differences, "
          f"worst rel err {worst:.2e} ({dt:.2f}s)")


def test_criterion_5_oracle_convergence():
    t0 = time.time()
    p = ab.parse_problem(TOY_CONST)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 7),
                                     preset={"lnkses": TOY_SESSIONS_OF_LINK})
    best, val = sv.centralized_oracle(inst, 0.01)
    assert abs(val - 1.5) <= 0.01 + 1e-9
    dp = dc.dualize(inst)
    cfg = sv.SolverConfig(step=0.05, dual_step=0.05, boxes={"sesrate": (0.0, 1.0)})
    res = sv.dual_loop(dp, cfg, epochs=2000, seed=1)
    gap = abs(res.utility - val) / val
    assert gap < 0.05
    dt = time.time() - t0
    assert dt < 10.0
    print(f"\n[criterion 5] PASS dual loop at {res.utility:.4f} vs oracle "
          f"{val:.4f} (gap {gap:.2%}) ({dt:.1f}s)")


def test_criterion_6_scheme_ordering():
    t0 = time.time()
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    seeds = range(10)
    gains = []
    for scen in (1, 2, 3):
        u = {scheme: _mean_utilities(problem, programs, scen, seeds, scheme)
             for scheme in ("joint", "rate-only", "power-only", "no-control")}
        assert u["joint"] >= max(u["rate-only"], u["power-only"]) >= u["no-control"], \
            (scen, u)
        gains.append(u["joint"] - u["no-control"])
    assert gains[0] <= gains[1] <= gains[2], gains
    dt = time.time() - t0
    assert dt < 300.0
    print(f"\n[criterion 6] PASS scheme ordering on scenarios 1-3; gains "
          f"{[round(g, 2) for g in gains]} non-decreasing ({dt:.0f}s)")


def test_criterion_7_behavior_modification():
    t0 = time.time()
    scn = ns.load_scenario((DATA / "scenarios" / "fairness.cfg").read_text())
    results = {}
    for name in ("jocp_log.ncp", "jocp.ncp"):
        problem = ab.parse_problem((DATA / "problems" / name).read_text())
        programs, _, _ = cli.build_programs(problem)
        sums, disps = [], []
        for seed in range(5):
            net = cli.deploy(problem, programs,
                             ns.ScenarioConfig(**{**scn._asdict(), "seed": seed}))
            trace = ns.run(net, 900, "joint")
            thr = [trace.mean("session", "throughput_pps", s.index, tail=0.3)
                   for s in net.sessions]
            sums.append(sum(thr))
            disps.append(abs(thr[0] - thr[1]))
        results[name] = (statistics.mean(sums), statistics.mean(disps))
    log_sum, log_disp = results["jocp_log.ncp"]
    rate_sum, rate_disp = results["jocp.ncp"]
    assert rate_sum > log_sum
    assert rate_disp > log_disp

    problem = ab.parse_problem((DATA / "problems" / "jocp_log_powercap.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    net = cli.deploy(problem, programs, ns.ScenarioConfig(scenario=2, seed=1))
    trace = ns.run(net, 600, "joint")
    capped_nodes = {net.links[i].tx for i in net.sessions[0].path}
    for (_, kind, eid, metric, v) in trace.rows:
        if metric == "power_gain_db" and eid in capped_nodes:
            assert v <= 5.0 + 1e-9
    dt = time.time() - t0
    assert dt < 120.0
    print(f"\n[criterion 7] PASS sum-rate vs sum-log: sum {rate_sum:.1f}>{log_sum:.1f},"
          f" dispersion {rate_disp:.1f}>{log_disp:.1f}; 5 dB cap held ({dt:.0f}s)")


def test_criterion_8_power_min_contrast():
    t0 = time.time()
    runs = {}
    for name in ("powermin.ncp", "jocp_log.ncp"):
        problem = ab.parse_problem((DATA / "problems" / name).read_text())
        programs, _, _ = cli.build_programs(problem)
        net = cli.deploy(problem, programs, ns.ScenarioConfig(scenario=5, seed=0))
        trace = ns.run(net, 900, "joint")
        thr = [trace.mean("session", "throughput_pps", s.index, tail=0.3)
               for s in net.sessions]
        runs[name] = (thr, trace.mean("node", "power_gain_db", tail=0.3), trace)
    thr_min, power_min, trace_min = runs["powermin.ncp"]
    _, power_log, trace_log = runs["jocp_log.ncp"]
    target = 4.0
    for v in thr_min:
        assert v >= 0.9 * target, thr_min
    assert power_min < power_log
    # the comparison report also sees the power ordering
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        a, b = Path(d) / "a.csv", Path(d) / "b.csv"
        a.write_text(trace_min.to_csv())
        b.write_text(trace_log.to_csv())
        report = cli.compare_runs(a, b)
    line = next(l for l in report.splitlines() if "node/power_gain_db" in l)
    assert line.endswith("A<B")
    dt = time.time() - t0
    assert dt < 300.0
    print(f"\n[criterion 8] PASS power-min meets target {target} pps "
          f"(throughputs {[round(v, 2) for v in thr_min]}) at {power_min:.2f} dB "
          f"vs sum-log {power_log:.2f} dB ({dt:.0f}s)")


def test_criterion_9_conservation_and_feasibility(toy_inst, jocp_inst):
    t0 = time.time()
    import random
    # term conservation across splits, on both shipped instances
    rng = random.Random(0)
    for inst, _ in (toy_inst, jocp_inst):
        dp = dc.dualize(inst)
        layers, residual = dc.split_by_layer(dp, inst.problem.graph)
        pieces = [e.objective for sub in layers.values()
                  for e in dc.split_by_entity(sub, inst.problem.graph)] + residual
        names = ex.free_vars(dp.dual)
        for _ in range(20):
            env = {n: rng.uniform(0.1, 2.0) for n in names}
            assert abs(sum(ex.eval_expr(x, env) for x in pieces)
                       - ex.eval_expr(dp.dual, env)) < 1e-9
    # run-time invariants on every epoch of a run per scenario
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    for scen in (1, 2, 3, 5):
        net = cli.deploy(problem, programs, ns.ScenarioConfig(scenario=scen, seed=3))
        trace = ns.run(net, 300, "joint")  # step() asserts the share bound inline
        for (_, kind, eid, metric, v) in trace.rows:
            if metric == "lambda":
                assert v >= 0.0
            if metric == "power_gain_db":
                assert -1e-9 <= v <= 30.0 + 1e-9
            if metric == "throughput_pps":
                assert v >= 0.0
    dt = time.time() - t0
    print(f"\n[criterion 9] PASS conservation and feasibility invariants ({dt:.0f}s)")

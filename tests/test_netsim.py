import dataclasses
import statistics
from pathlib import Path

import pytest

from netnum import abstraction as ab
from netnum import cli
from netnum import expr as ex
from netnum import netsim as ns
from netnum.solve import clip

from conftest import JOCP_LOG, JOCP_RATE

DATA = Path(ns.__file__).parent / "data"


def deploy(source=JOCP_LOG, **cfg_kw):
    problem = ab.parse_problem(source)
    programs, dp, imap = cli.build_programs(problem)
    net = cli.deploy(problem, programs, ns.ScenarioConfig(**cfg_kw))
    return net, problem, programs


def test_scenario_shapes():
    for scen, nodes, sessions, hops in [(1, 6, 2, 2), (2, 6, 2, 2), (3, 6, 2, 2),
                                        (4, 9, 3, 2), (5, 21, 3, 6)]:
        net = ns.build_scenario(ns.ScenarioConfig(scenario=scen))
        assert len(net.nodes) == nodes
        assert len(net.sessions) == sessions
        assert all(len(s.path) == hops for s in net.sessions)


def test_scenario_5_uses_six_bands():
    net = ns.build_scenario(ns.ScenarioConfig(scenario=5))
    assert {l.band for l in net.links} == set(range(6))
    assert all(l.bandwidth == 200e3 for l in net.links)


def test_scenarios_1_to_3_differ_only_in_band_sharing():
    nets = {s: ns.build_scenario(ns.ScenarioConfig(scenario=s)) for s in (1, 2, 3)}
    pos = {s: [n.pos for n in net.nodes] for s, net in nets.items()}
    assert pos[1] == pos[2] == pos[3]
    bands = {s: tuple(l.band for l in net.links) for s, net in nets.items()}
    assert len(set(bands.values())) == 3
    # interference pairs strictly grow from scenario 1 upward
    pairs = {s: sum(len(l.cross_gain) for l in net.links) for s, net in nets.items()}
    assert pairs[1] == 0 < pairs[2] <= pairs[3]
    total = {s: sum(g for l in net.links for g in l.cross_gain.values())
             for s, net in nets.items()}
    assert total[1] < total[2] < total[3]


def test_same_seed_same_netstate():
    a = ns.build_scenario(ns.ScenarioConfig(scenario=2, seed=9))
    b = ns.build_scenario(ns.ScenarioConfig(scenario=2, seed=9))
    assert [(l.tx, l.rx, l.band, l.gain, l.cross_gain) for l in a.links] \
        == [(l.tx, l.rx, l.band, l.gain, l.cross_gain) for l in b.links]


def test_interference_excludes_half_duplex_conflicts():
    net = ns.build_scenario(ns.ScenarioConfig(scenario=3, band_pattern=(0, 0, 0, 0)))
    for link in net.links:
        for j in link.cross_gain:
            assert net.links[j].tx != link.rx


def test_link_capacity_unit_snr():
    net, _, _ = deploy(scenario=1)
    link = net.links[0]
    link.pwr_gain_db = 0.0          # linear power 1
    link.gain = link.noise          # SNR exactly 1 -> one bit per Hz
    link.cross_gain = {}
    cap = ns.link_capacity(link, net, ns._linear_powers(net))
    assert abs(cap - link.bandwidth) < 1e-6


def test_interference_and_trace_means_fold_left_from_zero():
    # 0.0 added left to right; 1.0 compensated, as sum() of floats is
    # from Python 3.12 on
    net = ns.build_scenario(ns.ScenarioConfig(scenario=1))
    link = net.links[0]
    link.cross_gain = {1: 1.0, 2: 1.0, 3: 1.0}
    itf = ns._aggregate_interference(link, net, [0.0, 1e16, 1.0, -1e16])
    assert repr(itf) == "0.0"
    trace = ns.Trace()
    for t, v in enumerate((1e16, 1.0, -1e16)):
        trace.record(float(t), "net", 0, "sum_utility", v)
    assert repr(trace.mean("net", "sum_utility")) == "0.0"


def test_link_capacity_inactive_link_is_zero():
    net, _, _ = deploy(scenario=1)
    net.links[0].active = False
    assert ns.link_capacity(net.links[0], net, ns._linear_powers(net)) == 0.0


def test_capacity_strictly_decreases_with_interference():
    net, _, _ = deploy(scenario=3)
    link = net.links[0]
    caps = []
    for pwr in (0.0, 10.0, 20.0, 30.0):
        for j in link.cross_gain:
            net.links[j].pwr_gain_db = pwr
        caps.append(ns.link_capacity(link, net, ns._linear_powers(net)))
    assert all(a > b for a, b in zip(caps, caps[1:]))


def test_rates_hit_box_max_with_zero_duals_in_one_transport_epoch():
    net, _, _ = deploy(JOCP_RATE, scenario=1, rate_move_max=0.0, rate_iters=400,
                       rate_step=5.0)
    for s in net.sessions:
        s.rate = s.rate_box[0]
    ns.step(net, "joint")  # duals start at zero; transport fires at epoch 0
    for s in net.sessions:
        assert s.rate == s.rate_box[1]


def test_transport_fires_every_nth_epoch(monkeypatch):
    net, _, _ = deploy(scenario=2)
    calls = []
    orig = ns._solve_rate
    monkeypatch.setattr(ns, "_solve_rate",
                        lambda n, s: (calls.append(n.epoch), orig(n, s)))
    for _ in range(300):
        ns.step(net, "joint")
    assert len({e for e in calls}) == 10
    assert len(calls) == 10 * len(net.sessions)


def test_run_is_bit_deterministic():
    traces = []
    for _ in range(2):
        net, _, _ = deploy(scenario=2, seed=3)
        traces.append(ns.run(net, 120, "joint").to_csv())
    assert traces[0] == traces[1]


def test_best_response_holds_max_rate_and_power():
    net, _, _ = deploy(scenario=2, seed=1)
    trace = ns.run(net, 90, "best-response")
    powers = {v for (_, k, _, m, v) in trace.rows if m == "power_gain_db"}
    assert powers == {30.0}
    assert all(s.rate == s.rate_box[1] for s in net.sessions)


def test_no_control_keeps_rates_and_powers_constant():
    net, _, _ = deploy(scenario=2, seed=1)
    ns.run(net, 90, "no-control")
    rates = [s.rate for s in net.sessions]
    powers = [l.pwr_gain_db for l in net.links]
    net2, _, _ = deploy(scenario=2, seed=1)
    ns.run(net2, 30, "no-control")
    assert [s.rate for s in net2.sessions] == rates
    assert [l.pwr_gain_db for l in net2.links] == powers


def test_single_layer_schemes_freeze_the_other_layer():
    net, _, _ = deploy(scenario=2, seed=5)
    trace = ns.run(net, 150, "rate-only")
    for link in net.links:
        seen = {v for (_, k, e, m, v) in trace.rows
                if m == "power_gain_db" and e == link.tx}
        assert len(seen) == 1  # frozen at the initial random draw
    net, _, _ = deploy(scenario=2, seed=5)
    ns.run(net, 150, "power-only")
    rates = [s.rate for s in net.sessions]
    net2, _, _ = deploy(scenario=2, seed=5)
    ns.run(net2, 30, "power-only")
    assert [s.rate for s in net2.sessions] == rates


def test_unknown_scheme_and_duration():
    net, _, _ = deploy(scenario=1)
    with pytest.raises(ns.ConfigError):
        ns.run(net, 10, "warp")
    with pytest.raises(ns.ConfigError):
        ns.run(net, 0, "joint")


def test_install_on_unknown_entity():
    net, problem, programs = deploy(scenario=1)
    with pytest.raises(ns.UnknownEntity):
        ns.install_program(net, ("session", 99), programs["transport"])
    with pytest.raises(ns.UnknownEntity):
        ns.install_program(net, ("vehicle", 0), programs["transport"])


def test_install_unresolvable_collection_rule():
    net, problem, programs = deploy(scenario=1)
    with pytest.raises(ns.UnresolvableCollectionRule):
        ns.install_program(net, ("link", 0), programs["transport"])


def test_power_cap_rule_binds_every_epoch():
    src = JOCP_LOG.replace(
        "decompose",
        "var wos_c path=netses.seslnk.lnkpwr quant=0,all,none\n"
        "constraint wos_c <= 5\ndecompose")
    net, problem, _ = deploy(src, scenario=2, seed=1)
    trace = ns.run(net, 300, "joint")
    capped = {net.links[i].tx for i in net.sessions[0].path}
    for (t, kind, eid, metric, v) in trace.rows:
        if metric == "power_gain_db" and eid in capped:
            assert v <= 5.0 + 1e-9


def test_lambda_nonnegative_and_power_in_box_every_epoch():
    net, _, _ = deploy(scenario=3, seed=2)
    trace = ns.run(net, 300, "joint")
    for (t, kind, eid, metric, v) in trace.rows:
        if metric == "lambda":
            assert v >= 0.0
        if metric == "power_gain_db":
            assert -1e-9 <= v <= 30.0 + 1e-9


def test_throughput_never_exceeds_bottleneck_share():
    net, _, _ = deploy(scenario=3, seed=2)
    for _ in range(200):
        ns.step(net, "joint")
        demand = {}
        for s in net.sessions:
            for li in s.path:
                demand[li] = demand.get(li, 0.0) + s.rate
        for s in net.sessions:
            assert s.throughput <= s.rate + 1e-9
            for li in s.path:
                cap = net.links[li].capacity_pps
                if demand[li] > 0:
                    assert s.throughput <= cap * s.rate / demand[li] + 1e-9


def test_cross_gain_ablation_decouples_sessions():
    rates = []
    for forced_power in (0.0, 30.0):
        net, _, _ = deploy(scenario=3, seed=6)
        for link in net.links:
            link.cross_gain = {}
        trace = ns.run(net, 240, "rate-only")  # powers frozen; rates adapt
        for li in net.sessions[1].path:     # force the other session's power
            net.links[li].pwr_gain_db = forced_power
        for _ in range(240):
            ns.step(net, "rate-only")
        rates.append(net.sessions[0].rate)
    assert rates[0] == pytest.approx(rates[1], rel=1e-12)


def test_budget_drain_frees_the_survivor():
    net, _, _ = deploy(scenario=2, seed=4, budgets=(0.0, 12000.0))
    trace = ns.run(net, 1500, "joint")
    s1 = trace.series("session", 1, "throughput_pps")
    drain_t = next(t for t, v in s1 if v == 0.0)
    s0 = trace.series("session", 0, "throughput_pps")
    pre = [v for t, v in s0 if drain_t - 150 <= t < drain_t]
    post = [v for t, v in s0 if t >= drain_t + 150]
    assert statistics.mean(post) > statistics.mean(pre)
    assert all(not net.links[li].active for li in net.sessions[1].path)


def test_program_installed_mid_run_takes_effect_at_next_step():
    # two identical networks; one gets a rate-shedding transport program
    # for session 0 between two steps
    nets = [deploy(scenario=2, seed=1, timescale=1)[0] for _ in range(2)]
    for net in nets:
        for _ in range(3):
            ns.step(net, "rate-only")
    kept, swapped = nets
    old = swapped.programs[("session", 0)]
    new = dataclasses.replace(old, objective=ex.neg(ex.var("sesrate")))
    ns.install_program(swapped, ("session", 0), new)
    assert swapped.programs[("session", 0)] is old
    assert ns._get_solver(swapped, "session", 0).program.prog.objective \
        == ns._get_solver(kept, "session", 0).program.prog.objective
    for net in nets:
        ns.step(net, "rate-only")
    assert swapped.programs[("session", 0)] is new
    assert swapped.sessions[0].rate < kept.sessions[0].rate
    assert swapped.sessions[1].rate == kept.sessions[1].rate


def counted_compiles(monkeypatch):
    """compile_program calls the simulator makes, by decision variable:
    pwrgain for link programs, sesrate for session programs."""
    counts = {"pwrgain": 0, "sesrate": 0}
    compile_program = ns.compile_program

    def counted(prog):
        counts[prog.decision] += 1
        return compile_program(prog)

    monkeypatch.setattr(ns, "compile_program", counted)
    return counts


def test_solvers_compile_once_per_layer_shape(monkeypatch):
    counts = counted_compiles(monkeypatch)
    net, _, _ = deploy(scenario=5)
    ns.run(net, 90, "joint")
    # 18 links with two interfered neighbours each, 3 six-hop sessions
    assert counts == {"pwrgain": 1, "sesrate": 1}
    for kind, entities in (("link", net.links), ("session", net.sessions)):
        solvers = [ns._get_solver(net, kind, e.index) for e in entities]
        assert len({id(solver.program) for solver in solvers}) == 1
        assert len({id(solver) for solver in solvers}) == len(entities)


@pytest.mark.parametrize("band_pattern, neighbour_counts", [
    ((), {2}),
    ((0, 0, 1, 0, 0, 0), {0, 3, 4}),
])
def test_link_solvers_compile_once_per_neighbour_count(monkeypatch, band_pattern,
                                                       neighbour_counts):
    counts = counted_compiles(monkeypatch)
    net, _, _ = deploy(scenario=4, band_pattern=band_pattern)
    assert {len(link.cross_gain) for link in net.links} == neighbour_counts
    ns.run(net, 60, "joint")
    assert counts == {"pwrgain": len(neighbour_counts), "sesrate": 1}
    for link in net.links:
        solver = ns._get_solver(net, "link", link.index)
        assert [j for j, _ in solver.neighbours] == sorted(link.cross_gain)


def test_shared_link_program_keeps_each_link_power_box():
    # jocp_log_powercap caps the first session's links at 5 dB; the
    # jocp_log_powercap.ncp/s4.cfg pin in test_cli.py holds the traces
    problem = ab.parse_problem((DATA / "problems" / "jocp_log_powercap.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    net = cli.deploy(problem, programs, ns.ScenarioConfig(scenario=4))
    trace = ns.run(net, 60, "joint")
    solvers = [ns._get_solver(net, "link", link.index) for link in net.links]
    assert len({id(solver.program) for solver in solvers}) == 1
    boxes = [solver.cfg.box("pwrgain") for solver in solvers]
    assert boxes == [link.power_box for link in net.links]
    assert boxes == [(0.0, 5.0)] * 2 + [(0.0, 30.0)] * 4
    for link in net.links:
        powers = [v for _, v in trace.series("node", link.tx, "power_gain_db")]
        assert max(powers) <= link.power_box[1]
    assert max(net.links[2].pwr_gain_db, net.links[3].pwr_gain_db) > 5.0


def test_program_installed_mid_run_compiles_its_own_solver(monkeypatch):
    counts = counted_compiles(monkeypatch)
    nets = [deploy(scenario=5, seed=2)[0] for _ in range(2)]
    for net in nets:
        for _ in range(3):
            ns.step(net, "joint")
    # each network compiles its own
    assert counts == {"pwrgain": 2, "sesrate": 2}
    kept, swapped = nets
    old = swapped.programs[("link", 3)]
    # the same penalties, and an own term that only pays for power
    new = dataclasses.replace(old, objective=ex.neg(ex.var("lnkpwr")))
    for idx in (3, 9):
        ns.install_program(swapped, ("link", idx), new)
    # queued with the others, and rebuilt from the old shared program
    ns.install_program(swapped, ("link", 15), old)
    for net in nets:
        ns.step(net, "joint")
    # one compile for both links with the new program, none for the rest
    assert counts == {"pwrgain": 3, "sesrate": 2}
    shared = ns._get_solver(swapped, "link", 0).program
    assert shared.prog.objective == ns._get_solver(kept, "link", 0).program.prog.objective
    assert ns._get_solver(swapped, "link", 15).program is shared
    for idx in (3, 9):
        program = ns._get_solver(swapped, "link", idx).program
        assert program is not shared and program.prog.penalty == old.penalty
        assert "log2" not in ex.render(program.prog.objective)
        assert swapped.links[idx].pwr_gain_db < kept.links[idx].pwr_gain_db
    assert ns._get_solver(swapped, "link", 3).program \
        is ns._get_solver(swapped, "link", 9).program
    # solved before link 3, from the same state
    assert swapped.links[0].pwr_gain_db == kept.links[0].pwr_gain_db
    # once no link runs the new program, its compiled program is dropped
    for idx in (3, 9):
        ns.install_program(swapped, ("link", idx), old)
    ns.step(swapped, "joint")
    assert counts == {"pwrgain": 3, "sesrate": 2}
    kept_programs = [prog for prog, _ in swapped._shared.values()]
    assert len(kept_programs) == 2 and all(prog is not new for prog in kept_programs)


def interpreted_env(net, rates):
    env = {}
    for s in net.sessions:
        env[ex.var_name("sesrate", s.index)] = rates(s)
    for l in net.links:
        env[ex.var_name("lnkcap", l.index)] = l.capacity_pps
        env[ex.var_name("lnkpwr", l.index)] = l.power_linear
    return env


def interpreted_slacks(net, fam, env):
    """Each member's slack with its sums expanded over the live sessions
    now, walked by eval_expr: the reference for the compiled slacks."""
    slacks = {}
    members = net.links if fam.entity == "link" else net.sessions
    limit = net.cfg.slack_clip
    for m in range(len(members)):
        if fam.entity == "link":
            bindings = {"lnkses": [s.index for s in net.sessions
                                   if m in s.path and not s.done]}
        else:
            bindings = {"seslnk": list(net.sessions[m].path)}
        lhs = ex.expand_sums(ex.bind_index(fam.lhs, fam.holder, m), bindings)
        rhs = ex.expand_sums(ex.bind_index(fam.rhs, fam.holder, m), bindings)
        slack = ex.eval_expr(rhs, env) - ex.eval_expr(lhs, env)
        slacks[m] = clip(slack, -limit, limit)
    return slacks


def interpreted_utility(net):
    live_s = [s.index for s in net.sessions if not s.done]
    live_l = [l.index for l in net.links if l.active]
    e = ex.expand_sums(net.utility_expr, {"netses": live_s, "netlnk": live_l})
    env = interpreted_env(net, lambda s: max(s.throughput, 1e-6))
    val = ex.eval_expr(e, env)
    return val if net.utility_sense == "max" else -val


# No shipped problem declares a family over sessions (powermin's rate
# floor is a box rule), so one is added at install: each session's rate
# within the sum of its path's capacities.
SESSION_FAMILY = ab.Constraint(ex.var("sesrate", "netses"),
                               ex.bigsum("seslnk", ex.var("lnkcap", "seslnk")),
                               "netses")


@pytest.mark.parametrize("problem, extra, families", [
    ("jocp_log.ncp", [], ["link"]),
    ("powermin.ncp", [SESSION_FAMILY], ["link", "session"]),
])
def test_compiled_slacks_and_utility_match_interpreted(problem, extra, families):
    problem = ab.parse_problem((DATA / "problems" / problem).read_text())
    programs, _, _ = cli.build_programs(problem)
    problem.constraints.extend(extra)
    cfg = ns.ScenarioConfig(scenario=2, seed=4, budgets=(0.0, 400.0))
    net = cli.deploy(problem, programs, cfg)
    assert [f.entity for f in net.families] == families

    def bits(values):
        return {k: v.hex() for k, v in values.items()}

    def check():
        env = interpreted_env(net, lambda s: 0.0 if s.done else s.rate)
        assert bits(ns._runtime_bindings(net)) == bits(env)
        # finished sessions keep their rate here, so a member whose sums
        # still include one reads differently
        probe = interpreted_env(net, lambda s: s.rate)
        for fam in net.families:
            for e in (env, probe):
                assert bits(ns._family_slacks(net, fam, e)) \
                    == bits(interpreted_slacks(net, fam, e))
        assert ns.sum_utility(net).hex() == interpreted_utility(net).hex()

    for _ in range(150):
        ns.step(net, "joint")
        check()
    assert net.sessions[1].done and not net.sessions[0].done
    assert [l.active for l in net.links] == [True, True, False, False]

    # flipped by hand, with no drain: both caches must follow the state
    for obj, attr, value in [(net.sessions[0], "done", True),
                             (net.sessions[1], "done", False),
                             (net.links[2], "active", True),
                             (net.links[0], "active", False)]:
        setattr(obj, attr, value)
        check()
        setattr(obj, attr, not value)
        check()
    for _ in range(30):
        ns.step(net, "joint")
        check()


def test_slacks_and_utility_compile_once_per_topology(monkeypatch):
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    cfg = ns.load_scenario((DATA / "scenarios" / "s2_drain.cfg").read_text())
    net = cli.deploy(problem, programs, dataclasses.replace(cfg, seed=0))

    epoch = 0          # the step running, or the one whose record is running
    compiles, drains = [], []
    compile_expr, step = ex.compile_expr, ns.step

    def counted_compile(e, **kwargs):
        compiles.append(epoch)
        return compile_expr(e, **kwargs)

    def tagged_step(net, scheme):
        nonlocal epoch
        epoch = net.epoch
        live = sum(not s.done for s in net.sessions)
        step(net, scheme)
        if sum(not s.done for s in net.sessions) < live:
            drains.append(epoch)

    monkeypatch.setattr(ex, "compile_expr", counted_compile)
    monkeypatch.setattr(ns, "step", tagged_step)
    ns.run(net, 360, "rate-only")
    assert len(drains) == 1
    d = drains[0]
    # the first epoch compiles everything; the drain's record recompiles
    # the utility, and the next epoch's dual update the slacks
    assert set(compiles) == {0, d, d + 1}
    assert compiles.count(d) == 1
    assert compiles.count(d + 1) == 2 * len(net.links)


def test_trace_csv_schema():
    net, _, _ = deploy(scenario=1, seed=0)
    trace = ns.run(net, 30, "joint")
    lines = trace.to_csv().splitlines()
    assert lines[0] == "time,entity_kind,entity_id,metric,value"
    kinds = {line.split(",")[1] for line in lines[1:]}
    metrics = {line.split(",")[3] for line in lines[1:]}
    assert kinds == {"session", "node", "link", "net"}
    assert metrics == {"throughput_pps", "power_gain_db", "lambda", "sum_utility"}


def test_scenario_loader():
    cfg = ns.load_scenario("scenario = 2\nseed = 7\nbudgets = 0,500\n# note\n")
    assert cfg.scenario == 2 and cfg.seed == 7 and cfg.budgets == (0.0, 500.0)
    with pytest.raises(ns.ConfigError):
        ns.load_scenario("nosuchkey = 3\n")
    with pytest.raises(ns.ConfigError):
        ns.load_scenario("scenario: 2\n")


def test_transport_epoch_is_timescale_multiple():
    cfg = ns.ScenarioConfig(phys_epoch=2.0, timescale=30)
    assert cfg.transport_epoch == 60.0

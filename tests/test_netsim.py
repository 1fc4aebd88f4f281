import math
import statistics
from pathlib import Path

import pytest

from netnum import abstraction as ab
from netnum import cli
from netnum import expr as ex
from netnum import netsim as ns
from netnum import solve as sv
from netnum.solve import clip

from conftest import JOCP_LOG, JOCP_RATE, csv_text

DATA = Path(ns.__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


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


def fresh_capacity(link, net, powers):
    """link_capacity at `powers`, its interference folded afresh."""
    return ns.link_capacity(link, net, powers[link.index],
                            ns._aggregate_interference(link, net, powers))


def test_link_capacity_unit_snr():
    net, _, _ = deploy(scenario=1)
    link = net.links[0]
    link.pwr_gain_db = 0.0          # linear power 1
    link.gain = link.noise          # SNR exactly 1 -> one bit per Hz
    link.cross_gain = {}
    cap = fresh_capacity(link, net, ns._linear_powers(net))
    assert abs(cap - link.bandwidth) < 1e-6


def test_interference_and_trace_means_fold_left_from_zero():
    # 0.0 added left to right; 1.0 compensated, as sum() of floats is
    # from Python 3.12 on
    net = ns.build_scenario(ns.ScenarioConfig(scenario=1))
    link = net.links[0]
    link.cross_gain = {1: 1.0, 2: 1.0, 3: 1.0}
    itf = ns._aggregate_interference(link, net, [0.0, 1e16, 1.0, -1e16])
    assert repr(itf) == "0.0"
    trace = ns.Trace.from_rows((float(t), "net", 0, "sum_utility", v)
                               for t, v in enumerate((1e16, 1.0, -1e16)))
    assert repr(trace.mean("net", "sum_utility")) == "0.0"


def test_link_capacity_inactive_link_is_zero():
    net, _, _ = deploy(scenario=1)
    net.links[0].active = False
    assert fresh_capacity(net.links[0], net, ns._linear_powers(net)) == 0.0


def test_capacity_strictly_decreases_with_interference():
    net, _, _ = deploy(scenario=3)
    link = net.links[0]
    caps = []
    for pwr in (0.0, 10.0, 20.0, 30.0):
        for j in link.cross_gain:
            net.links[j].pwr_gain_db = pwr
        caps.append(fresh_capacity(link, net, ns._linear_powers(net)))
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
        traces.append(csv_text(ns.run(net, 120, "joint")))
    assert traces[0] == traces[1]


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


def test_programs_and_steps_need_an_installed_problem():
    _, _, programs = deploy(scenario=1)
    bare = ns.build_scenario(ns.ScenarioConfig(scenario=1))
    with pytest.raises(ns.NetsimError, match="install_problem must run before install_program"):
        ns.install_program(bare, ("link", 0), programs["physical"])
    with pytest.raises(ns.NetsimError, match="install_problem must run before step"):
        ns.step(bare, "joint")


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


@pytest.mark.parametrize("exponent", [math.nan, 0.5])
def test_conservation_breach_raises(exponent):
    # ScenarioConfig refuses such an exponent; it is set past that check
    # (_make builds the tuple without __new__), so that the simulator's own
    # check is what fails
    net, _, _ = deploy(scenario=2)
    fields = {**net.cfg._asdict(), "congestion_exp": exponent}
    net.cfg = ns.ScenarioConfig._make(fields.values())
    with pytest.raises(ns.NetsimError, match="breaks conservation"):
        ns.run(net, 30, "joint")


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
    old = swapped.control.programs[("session", 0)]
    new = old._replace(objective=ex.neg(ex.var("sesrate")))
    ns.install_program(swapped, ("session", 0), new)
    assert swapped.control.programs[("session", 0)] is old
    assert ns._get_solver(swapped, "session", 0).program.prog.objective \
        == ns._get_solver(kept, "session", 0).program.prog.objective
    for net in nets:
        ns.step(net, "rate-only")
    assert swapped.control.programs[("session", 0)] is new
    assert swapped.sessions[0].rate < kept.sessions[0].rate
    assert swapped.sessions[1].rate == kept.sessions[1].rate


def counted_compiles(monkeypatch):
    """compile_program calls the simulator makes, by decision variable:
    pwrgain for link programs, sesrate for session programs."""
    counts = {"pwrgain": 0, "sesrate": 0}
    compile_program = ns.compile_program

    def counted(prog, *params):
        counts[prog.decision] += 1
        return compile_program(prog, *params)

    monkeypatch.setattr(ns, "compile_program", counted)
    return counts


def test_solvers_compile_once_per_layer_shape(monkeypatch):
    counts = counted_compiles(monkeypatch)
    net, _, _ = deploy(scenario=5)
    ns.run(net, 90, "joint")
    # 18 links with two victims each, 3 six-hop sessions
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
        # a slot for each victim: each link whose capacity this link's power lowers
        assert list(solver.neighbours) \
            == [v.index for v in net.links if link.index in v.cross_gain]


def test_link_slots_are_its_victims_not_its_interferers(monkeypatch):
    # link 1 transmits from link 0's receiver, so half duplex keeps it out
    # of link 0's interference, yet link 0's power lowers link 1's
    # capacity: link 0 is charged for link 1, and link 1 not for link 0
    net, _, _ = deploy(scenario=4, band_pattern=(0, 0, 1, 0, 0, 0))
    assert sorted(net.links[0].cross_gain) == [3, 4, 5]
    params, solve = {}, ns._EntitySolver.solve

    def recorded(solver, args):
        params.setdefault(id(solver), dict(zip(solver.program.params, args)))
        return solve(solver, args)

    monkeypatch.setattr(ns._EntitySolver, "solve", recorded)
    ns.step(net, "joint")
    slots = {}
    for link in net.links:
        solver = ns._get_solver(net, "link", link.index)
        slots[link.index] = list(solver.neighbours)
        assert all(params[id(solver)][f"itf_lnkgain_itf@{slot}"] > 0
                   for slot in range(len(solver.neighbours)))
    assert slots[0] == [1, 3, 4, 5] and slots[1] == [3, 4, 5]


def named_link_params(net, link, powers, itfs):
    """A link solve's parameters by name, each victim's under its slot's
    names: the reference for the sequence _solve_power builds."""
    i, own = link.index, powers[link.index]
    solver, cap = ns._get_solver(net, "link", i), net.control.link_family
    params = {"freq": link.bandwidth, "lnkgain": link.gain, "lnknoise": link.noise,
              "lnkgain_itf": 1.0, "itfpwr": itfs[i],
              "pwrgain_anchor": link.pwr_gain_db, "lnkpwr_anchor": own,
              "lbd": 0.0 if solver.self_family is None
              else net.control.families[solver.self_family].prev[i]}
    victims = [] if net.control.programs[("link", i)].penalty is None \
        else [v for v in net.links if i in v.cross_gain]
    for slot, v in enumerate(victims):
        back = v.cross_gain[i]
        other = itfs[v.index] - back * own
        params.update({f"lbd_itf@{slot}": cap.prev[v.index] if v.active and cap else 0.0,
                       f"itf_freq@{slot}": v.bandwidth,
                       f"itf_lnkpwr@{slot}": powers[v.index],
                       f"itf_lnkgain@{slot}": v.gain,
                       f"itf_lnkgain_itf@{slot}": back,
                       f"itf_lnknoise@{slot}": v.noise + (other if other > 0.0 else 0.0)})
    return params


def named_session_params(net, s):
    """A session solve's parameters by name, each collected dual under
    its hop's name, in the order a name-keyed env was built: the
    reference for the sequence _solve_rate builds."""
    solver = ns._get_solver(net, "session", s.index)
    params = {"sesrate_anchor": s.rate,
              "lbd": 0.0 if solver.self_family is None
              else net.control.families[solver.self_family].prev[s.index]}
    for rule in net.control.programs[("session", s.index)].collect:
        if rule.symbol != "self":
            for hop, li in enumerate(s.path):
                params[ex.var_name("lbd", hop)] = net.control.families[rule.family].prev[li]
    return params


def typed_bits(values):
    return {k: (type(v), float(v).hex()) for k, v in values.items()}


def test_link_solves_pass_their_parameters_in_program_order(monkeypatch, tmp_path):
    # every shipped problem on every scenario, s4 and s5 also with more
    # victims per link, and a gradient-mode program, which has no fused
    # loop: the sequence each link or session solve passes, read by the
    # program's parameter names, is the parameters by name, and its
    # decision is solve_program's on them
    gradient = tmp_path / "jocp_log_gradient.ncp"
    gradient.write_text((DATA / "problems" / "jocp_log.ncp").read_text()
                        .replace("dist=dpl", "dist=gradient"))
    solve_power, solve_rate, solve = ns._solve_power, ns._solve_rate, ns._EntitySolver.solve
    at, checked = {}, []

    def stashed_power(net, link, powers, itfs):
        at["pwrgain"] = [net, link, powers[:], itfs[:]]
        return solve_power(net, link, powers, itfs)

    def stashed_rate(net, s):
        at["sesrate"] = [net, s]
        return solve_rate(net, s)

    def by_name(solver, args):
        program = solver.program
        v = program.var
        params = dict(zip(program.params, args))
        assert len(params) == len(args) == len(program.params)
        # an interference folded from 0 over no interferer is the int 0
        named = named_link_params if v == "pwrgain" else named_session_params
        assert typed_bits(params) == typed_bits(named(*at[v]))
        want = sv.solve_program(program, params, solver.cfg)[v]
        if program.fused is None:
            assert program.prog.mode == "gradient"
        else:
            fused, _, _ = program.fused(args, solver.lo, solver.hi, solver.cfg)
            assert fused.hex() == want.hex()
        decision = solve(solver, args)
        assert decision.hex() == want.hex()
        shape = len(solver.neighbours) if v == "pwrgain" else len(solver.lam_sources)
        checked.append((v, program.prog.mode, shape))
        return decision

    monkeypatch.setattr(ns, "_solve_power", stashed_power)
    monkeypatch.setattr(ns, "_solve_rate", stashed_rate)
    monkeypatch.setattr(ns._EntitySolver, "solve", by_name)
    sources = [(DATA / "problems" / name).read_text()
               for name in ("jocp.ncp", "jocp_log.ncp", "jocp_log_powercap.ncp", "powermin.ncp")]
    runs = [(source, dict(scenario=scenario))
            for source in sources for scenario in range(1, 6)]
    runs += [(source, dict(scenario=4, band_pattern=(0, 0, 1, 0, 0, 0)))
             for source in sources]
    runs += [(source, dict(scenario=5, band_pattern=(0, 1) * 9)) for source in sources]
    runs += [(gradient.read_text(), dict(scenario=scenario)) for scenario in (2, 5)]
    for source, cfg in runs:
        net, _, _ = deploy(source, **cfg)
        ns.run(net, 31, "joint")
    for v in ("pwrgain", "sesrate"):
        modes = {mode for var, mode, _ in checked if var == v}
        assert "gradient" in modes and len(modes) == 2
    # each session collects one dual per hop: paths of 2 hops, and of 6 on s5
    assert {victims for v, _, victims in checked if v == "pwrgain"} == {0, 1, 2, 3, 4, 8}
    assert {hops for v, _, hops in checked if v == "sesrate"} == {2, 6}


def test_each_install_starts_from_the_scenario_boxes():
    # a problem's box rules narrow the scenario's boxes, not the boxes
    # the problem installed before it left
    def parsed(name):
        return ab.parse_problem((DATA / "problems" / name).read_text())

    def boxes(net):
        return [l.power_box for l in net.links], [s.rate_box for s in net.sessions]

    scenario = ([(0.0, 30.0)] * 4, [(0.05, 100.0)] * 2)
    for before, narrowed in [
            ("powermin.ncp", ([(0.0, 30.0)] * 4, [(4.0, 100.0)] * 2)),
            ("jocp_log_powercap.ncp", ([(0.0, 5.0)] * 2 + [(0.0, 30.0)] * 2,
                                       [(0.05, 100.0)] * 2))]:
        net = ns.build_scenario(ns.ScenarioConfig(scenario=2))
        assert boxes(net) == scenario
        ns.install_problem(net, parsed(before))
        assert boxes(net) == narrowed
        ns.install_problem(net, parsed("jocp_log.ncp"))
        assert boxes(net) == scenario


def controller_objects(control):
    """The runtime objects a controller holds: its families and their
    dual lists, its solvers and shared programs, and its Kepts."""
    objects = [control.families, control.programs, control.pending, control.solvers,
               control.shared, control.kept_slacks, control.kept_utility, control.kept_power]
    for fam in control.families:
        objects += [fam, fam.duals, fam.prev]
    objects += [solver for solver in control.solvers.values() if solver is not None]
    objects += [solver.kept for solver in control.solvers.values() if solver is not None]
    objects += [compiled for _, compiled in control.shared.values()]
    return objects


def test_each_install_builds_a_controller_of_its_own():
    # powermin's controller, with every solver and shared program built,
    # leaves nothing to jocp_log's on the same network
    cfg = ns.load_scenario((DATA / "scenarios" / "s2.cfg").read_text())
    net = deploy_file("powermin.ncp", "s2.cfg")
    ns._apply_pending(net)
    for kind, entities in (("link", net.links), ("session", net.sessions)):
        for e in entities:
            assert ns._get_solver(net, kind, e.index) is not None
    first = net.control
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    ns.install_problem(net, problem)
    assert net.control is not first and not net.control.programs
    for s in net.sessions:
        ns.install_program(net, ("session", s.index), programs["transport"])
    for link in net.links:
        ns.install_program(net, ("link", link.index), programs["physical"])
    trace = ns.run(net, 300, "joint")
    old = {id(obj) for obj in controller_objects(first)}
    assert len(net.control.solvers) == len(net.links) + len(net.sessions)
    assert not old & {id(obj) for obj in controller_objects(net.control)}
    only = cli.deploy(problem, programs, cfg)
    assert csv_text(trace) == csv_text(ns.run(only, 300, "joint"))


def test_the_plant_capacity_is_compiled_once_per_network(monkeypatch):
    compiled, compile_expr = [], ex.compile_expr

    def counted(e, params=None):
        if params == ns._CAPACITY_PARAMS:
            compiled.append(e)
        return compile_expr(e, params)

    monkeypatch.setattr(ex, "compile_expr", counted)
    net = ns.build_scenario(ns.ScenarioConfig(scenario=2))
    capacity = net.capacity
    assert compiled == [ab.resolve_model(ab.builtin_graph(), "lnkcap")]
    for name in ("powermin.ncp", "jocp_log.ncp"):
        problem = ab.parse_problem((DATA / "problems" / name).read_text())
        programs, _, _ = cli.build_programs(problem)
        ns.install_problem(net, problem)
        for link in net.links:
            ns.install_program(net, ("link", link.index), programs["physical"])
        ns.run(net, 30, "joint")
        assert net.capacity is capacity and len(compiled) == 1


def subtrees(e):
    yield e
    for child in e.children:
        yield from subtrees(child)


def test_a_swapped_capacity_model_reaches_only_the_controller():
    # the high-SINR surrogate of tests/test_decompose.py, swapped into
    # the problem's graph: the link programs read it, the plant does not
    problem = ab.parse_problem(JOCP_LOG)
    programs, _, _ = cli.build_programs(problem)
    builtin = ab.resolve_model(problem.graph, "lnkcap")
    el = problem.graph.elements["lnkcap"]
    problem.graph.elements["lnkcap"] = el._replace(
        model=ex.mul(ex.var("freq"), ex.log2(ex.var("lnksinr"))))
    surrogate = ab.resolve_model(problem.graph, "lnkcap")
    assert surrogate != builtin
    cfg = ns.ScenarioConfig(scenario=2, seed=3)
    swapped = cli.deploy(problem, programs, cfg)
    plain, _, _ = deploy(scenario=2, seed=3)
    assert swapped.control.capacity_model == surrogate
    assert plain.control.capacity_model == builtin
    for net in (swapped, plain):
        for link in net.links:
            link.pwr_gain_db = 5.0 + link.index
        ns._measure(net, ns._linear_powers(net))
    powers = ns._linear_powers(plain)
    for link in swapped.links:
        env = {"freq": link.bandwidth, "lnkpwr": powers[link.index], "lnkgain": link.gain,
               "lnknoise": link.noise, "lnkgain_itf": 1.0,
               "itfpwr": ns._aggregate_interference(link, swapped, powers)}
        want = ex.eval_expr(builtin, env) / cfg.packet_bits
        assert want != ex.eval_expr(surrogate, env) / cfg.packet_bits
        assert link.capacity_pps.hex() == want.hex()
        assert plain.links[link.index].capacity_pps.hex() == want.hex()
    bits = ex.const(cfg.packet_bits)
    for model, net in ((surrogate, swapped), (builtin, plain)):
        ns.run(net, 60, "joint")
        own = ex.substitute(ex.div(model, bits), {"lnkpwr": ns.DB_TO_LINEAR})
        for link in net.links:
            objective = ns._get_solver(net, "link", link.index).program.prog.objective
            assert own in set(subtrees(objective))
    assert [l.pwr_gain_db for l in swapped.links] != [l.pwr_gain_db for l in plain.links]


def test_a_refused_install_keeps_the_controller_before_it():
    # powermin's rate floor of 4 pps does not fit a rate_max of 3
    net, _, _ = deploy(scenario=2, rate_max=3.0)
    ns.step(net, "joint")
    control = net.control
    powermin = ab.parse_problem((DATA / "problems" / "powermin.ncp").read_text())
    with pytest.raises(ns.ConfigError, match="box lower 4.0 exceeds upper 3.0"):
        ns.install_problem(net, powermin)
    assert net.control is control
    ns.step(net, "joint")


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
    old = swapped.control.programs[("link", 3)]
    # the same penalties, and an own term that only pays for power
    new = old._replace(objective=ex.neg(ex.var("lnkpwr")))
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
    kept_programs = [prog for prog, _ in swapped.control.shared.values()]
    assert len(kept_programs) == 2 and all(prog is not new for prog in kept_programs)


def deploy_file(problem, scenario, **cfg_kw):
    problem = ab.parse_problem((DATA / "problems" / problem).read_text())
    programs, _, _ = cli.build_programs(problem)
    cfg = ns.load_scenario((DATA / "scenarios" / scenario).read_text())
    return cli.deploy(problem, programs, cfg._replace(**cfg_kw))


def copy_operating_point(src, dst):
    """Set dst's epoch, decisions, traffic, flags and duals to src's."""
    dst.epoch = src.epoch
    for a, b in zip(src.sessions, dst.sessions):
        b.rate, b.sent, b.done, b.throughput = a.rate, a.sent, a.done, a.throughput
    for a, b in zip(src.links, dst.links):
        b.pwr_gain_db, b.active, b.capacity_pps = a.pwr_gain_db, a.active, a.capacity_pps
    for a, b in zip(src.control.families, dst.control.families):
        b.duals, b.prev = list(a.duals), list(a.prev)


@pytest.mark.parametrize("key, value", [
    ("packet_bits", 4096), ("power_step", 30.0), ("power_iters", 7),
    ("power_move_max", 0.25), ("rate_step", 12.5), ("rate_iters", 4),
    ("rate_move_max", 1.5)])
def test_replaced_config_takes_effect_at_next_step(key, value):
    net = deploy_file("jocp_log.ncp", "s2.cfg", seed=0)
    ns.run(net, 30, "joint")
    net.cfg = net.cfg._replace(**{key: value})
    # solvers built afresh for the new config, at the same operating point
    fresh = deploy_file("jocp_log.ncp", "s2.cfg", seed=0, **{key: value})
    copy_operating_point(net, fresh)
    # epoch 30 runs both layers' solvers
    for n in (net, fresh):
        ns.step(n, "joint")
    for kind, entities in (("link", net.links), ("session", net.sessions)):
        for e in entities:
            got, want = ns._get_solver(net, kind, e.index), ns._get_solver(fresh, kind, e.index)
            assert got.program.prog.objective == want.program.prog.objective
            assert got.cfg == want.cfg
    assert len(net.control.solvers) == len(net.links) + len(net.sessions)
    assert [l.pwr_gain_db.hex() for l in net.links] \
        == [l.pwr_gain_db.hex() for l in fresh.links]
    assert [s.rate.hex() for s in net.sessions] == [s.rate.hex() for s in fresh.sessions]
    assert [l.capacity_pps.hex() for l in net.links] \
        == [l.capacity_pps.hex() for l in fresh.links]


def test_power_solve_reuse_needs_the_same_bits_and_program(monkeypatch):
    net, _, _ = deploy(scenario=2, seed=1)
    for _ in range(3):
        ns.step(net, "joint")
    runs = []
    solve_args = ns.solve_args
    monkeypatch.setattr(ns, "solve_args",
                        lambda prog, args, *box_cfg: runs.append(dict(zip(prog.params, args)))
                        or solve_args(prog, args, *box_cfg))
    link = net.links[0]
    start, powers = link.pwr_gain_db, ns._linear_powers(net)
    itfs = [ns._aggregate_interference(l, net, powers) for l in net.links]
    cap = net.control.link_family

    def solve(lbd):
        # with no price on any link the power stays at its anchor, so the
        # solve is kept for reuse
        cap.prev = [0.0] * len(net.links)
        cap.prev[link.index] = lbd
        link.pwr_gain_db = start
        ns._solve_power(net, link, powers, itfs)
        return link.pwr_gain_db

    assert solve(0.0) == start and len(runs) == 1
    assert solve(0.0) == start and len(runs) == 1
    # equal to 0.0, but not bit for bit
    assert solve(-0.0) == start and len(runs) == 2
    assert math.copysign(1.0, runs[1]["lbd"]) == -1.0
    assert solve(-0.0) == start and len(runs) == 2
    # a neighbour's noise enters only the noise parameter of its slot
    j, = ns._get_solver(net, "link", 0).neighbours
    net.links[j].noise *= 2.0
    assert solve(-0.0) == start and len(runs) == 3
    assert [k for k in runs[2] if runs[2][k] != runs[1][k]] == ["itf_lnknoise@0"]
    # a program installed mid-run solves afresh, from the same parameters
    old = net.control.programs[("link", 0)]
    new = old._replace(objective=ex.neg(ex.var("lnkpwr")))
    ns.install_program(net, ("link", 0), new)
    ns._apply_pending(net)
    swapped = solve(-0.0)
    assert len(runs) == 4 and runs[3] == runs[2]
    assert swapped < start
    solver = ns._get_solver(net, "link", 0)
    assert swapped.hex() == sv.solve_program(solver.program, runs[3], solver.cfg)["pwrgain"].hex()

    # a whole power pass is skipped while it would only reuse decisions;
    # each edit below, made after a skipped pass, makes the next one run.
    # powermin leaves every power at 0 dB, and the duals at 0.
    net, _, _ = deploy((DATA / "problems" / "powermin.ncp").read_text(), scenario=2, seed=1)
    passes, solve_power = [], ns._solve_power
    monkeypatch.setattr(ns, "_solve_power", lambda net, *args: passes.append(net.epoch)
                        or solve_power(net, *args))
    cap, j = net.control.link_family, min(net.links[0].cross_gain)
    victim = next(l for l in net.links if l.cross_gain)

    def reinstall():
        ns.install_program(net, ("link", 0), net.control.programs[("link", 0)])

    def moved_and_set_back():
        # a pass that moves a power keeps no key, even one the next pass's
        # inputs repeat
        start = net.links[0].pwr_gain_db
        cap.duals[0] = 5.0
        ns.step(net, "joint")
        assert net.links[0].pwr_gain_db > start
        net.links[0].pwr_gain_db = start
        cap.duals[0] = 5.0

    # each by the least step that changes bits, so that the net settles again
    edits = [lambda: cap.duals.__setitem__(0, -0.0),
             lambda: setattr(net.links[j], "noise", math.nextafter(net.links[j].noise, 1.0)),
             # the same linear power, not the same bits
             lambda: setattr(net.links[0], "pwr_gain_db", -0.0),
             lambda: victim.cross_gain.update(
                 {k: math.nextafter(g, 1.0) for k, g in victim.cross_gain.items()}),
             # the same program: only the solver is new
             reinstall, moved_and_set_back]
    ns.run(net, 100, "joint")
    for edit in edits:
        for _ in range(100):
            ns.step(net, "joint")
            if passes[-1] != net.epoch - 1:
                break
        assert passes[-1] < net.epoch - 1
        assert cap.duals[0] == 0.0 and net.links[0].pwr_gain_db == 0.0
        edit()
        ns.step(net, "joint")
        assert passes.count(net.epoch - 1) == len(net.links)


@pytest.mark.parametrize("problem, skipped", [("jocp_log.ncp", 173), ("powermin.ncp", 233)])
def test_skipped_power_passes_match_fresh_solves(monkeypatch, problem, skipped):
    net = deploy_file(problem, "s5.cfg", seed=0)
    solve_power, deliver = ns._solve_power, ns._deliver
    solved, checked = set(), []
    monkeypatch.setattr(ns, "_solve_power", lambda net, *args: solved.add(net.epoch)
                        or solve_power(net, *args))

    def checked_deliver(net):
        # after the epoch's power pass: no power moved since _measure
        if net.epoch not in solved:
            checked.append(net.epoch)
            powers = ns._linear_powers(net)
            itfs = [ns._aggregate_interference(l, net, powers) for l in net.links]
            for link in net.links:
                solver, bound = ns._get_solver(net, "link", link.index), []
                with monkeypatch.context() as m:
                    m.setattr(solver, "solve", lambda args: bound.append(
                        dict(zip(solver.program.params, args))) or link.pwr_gain_db)
                    solve_power(net, link, powers, itfs)
                fresh = sv.solve_program(solver.program, bound[0], solver.cfg)["pwrgain"]
                assert fresh.hex() == link.pwr_gain_db.hex()
        deliver(net)

    monkeypatch.setattr(ns, "_deliver", checked_deliver)
    ns.run(net, 360, "joint")
    assert len(checked) == skipped


@pytest.mark.parametrize("problem, solved", [("jocp.ncp", 4), ("powermin.ncp", 10)])
def test_kept_session_solves_match_fresh_solves(monkeypatch, problem, solved):
    # a session solve that repeats, bit for bit, the parameters of its
    # last solve, when that one left the rate at its anchor, reuses the
    # decision without solving: each decision must equal a fresh solve
    net = deploy_file(problem, "s1.cfg")
    entity_solve, solve_args = ns._EntitySolver.solve, ns.solve_args
    ran, sessions = [], []
    monkeypatch.setattr(ns, "solve_args", lambda prog, *rest: ran.append(prog.var)
                        or solve_args(prog, *rest))

    def checked(solver, args):
        decision = entity_solve(solver, args)
        program = solver.program
        if program.var == "sesrate":
            fresh = sv.solve_program(program, dict(zip(program.params, args)), solver.cfg)
            assert decision.hex() == fresh["sesrate"].hex()
            sessions.append(args)
        return decision

    monkeypatch.setattr(ns._EntitySolver, "solve", checked)
    ns.run(net, 300, "joint")
    # 2 sessions over 10 transport epochs
    assert len(sessions) == 20 and ran.count("sesrate") == solved


def test_a_session_solve_that_gives_up_runs_the_generic_loop_once(monkeypatch):
    # where the fused loop is missing or gives up, a session solve ends
    # as solve_program does: its decision, or its exception and message;
    # the fused loop runs once, the generic loop once
    net = deploy_file("jocp_log.ncp", "s2.cfg")
    ns.run(net, 31, "joint")
    s = net.sessions[0]
    solver = ns._get_solver(net, "session", s.index)
    program, fused_calls, generic_calls = solver.program, [], []
    solve_program = sv.solve_program
    monkeypatch.setattr(sv, "solve_program", lambda *a: generic_calls.append(a)
                        or solve_program(*a))

    # no fused loop
    want = solve_program(program, named_session_params(net, s), solver.cfg)["sesrate"]
    monkeypatch.setattr(solver, "program", program._replace(fused=None))
    ns._solve_rate(net, s)
    assert s.rate.hex() == want.hex() and len(generic_calls) == 1

    # a fused loop that gives up on a non-finite objective
    fam, li = solver.lam_sources[0]
    net.control.families[fam].prev[li] = math.inf
    params = named_session_params(net, s)
    assert program.fused([params[name] for name in program.params],
                         solver.lo, solver.hi, solver.cfg) is None
    with pytest.raises(Exception) as generic:
        solve_program(program, params, solver.cfg)
    monkeypatch.setattr(solver, "program", program._replace(
        fused=lambda *a: fused_calls.append(a) or program.fused(*a)))
    with pytest.raises(Exception) as solved:
        ns._solve_rate(net, s)
    assert (type(solved.value), str(solved.value)) \
        == (type(generic.value), str(generic.value)) \
        == (sv.NumericalError, "non-finite objective at start")
    assert len(fused_calls) == 1 and len(generic_calls) == 2


def check_links_every_phase(monkeypatch):
    """Check, each time _measure or _solve_power runs, that every link's
    interference and capacity_pps are what a fresh fold and a fresh
    link_capacity give, bit for bit; returns the list of checked epochs."""
    measure, solve_power = ns._measure, ns._solve_power
    epochs = []

    def fresh_itfs(net, powers):
        return [repr(ns._aggregate_interference(l, net, powers)) for l in net.links]

    def checked_measure(net, powers):
        itfs = measure(net, powers)
        assert [repr(x) for x in itfs] == fresh_itfs(net, powers)
        assert [repr(l.capacity_pps) for l in net.links] == [
            repr(fresh_capacity(l, net, powers) / net.cfg.packet_bits) for l in net.links]
        epochs.append(net.epoch)
        return itfs

    def checked_solve_power(net, link, powers, itfs):
        assert powers == ns._linear_powers(net)
        assert [repr(x) for x in itfs] == fresh_itfs(net, powers)
        solve_power(net, link, powers, itfs)

    monkeypatch.setattr(ns, "_measure", checked_measure)
    monkeypatch.setattr(ns, "_solve_power", checked_solve_power)
    return epochs


def test_interference_and_capacity_match_fresh_ones_across_a_drain(monkeypatch):
    epochs = check_links_every_phase(monkeypatch)
    net = deploy_file("jocp_log.ncp", "s2_drain.cfg")
    ns.run(net, 360, "joint")
    assert epochs == list(range(360))
    assert [l.active for l in net.links] == [True, True, False, False]


def test_interference_and_capacity_follow_state_set_by_hand(monkeypatch):
    epochs = check_links_every_phase(monkeypatch)
    net, _, _ = deploy(scenario=3, seed=2)
    ns.run(net, 60, "joint")
    edits = [(net.links[1], "pwr_gain_db", 7.5), (net.links[2], "active", False),
             (net.links[0], "pwr_gain_db", 0.0), (net.links[2], "active", True),
             (net.links[3], "active", False), (net.links[3], "active", True),
             (net.links[0], "gain", 2.0 * net.links[0].gain),
             (net.links[2], "noise", 0.5 * net.links[2].noise),
             (net.links[1], "bandwidth", 2.0 * net.links[1].bandwidth)]
    # each edit is the only change the next epoch's measure sees: the
    # last step before it moves no power
    for link, attr, value in edits:
        setattr(link, attr, value)
        for scheme in ("rate-only", "joint", "power-only", "rate-only"):
            ns.step(net, scheme)
    # and the capacity model itself
    net.capacity = lambda env, model=net.capacity: 2.0 * model(env)
    ns.step(net, "rate-only")
    assert epochs == list(range(61 + 4 * len(edits)))


@pytest.mark.parametrize("emptied", [(0, 1, 2, 3), (2,)])
def test_interference_and_capacity_follow_emptied_cross_gains(monkeypatch, emptied):
    epochs = check_links_every_phase(monkeypatch)
    net, _, _ = deploy(scenario=3, seed=6)
    heard = dict(net.links[emptied[0]].cross_gain)
    for li in emptied:
        net.links[li].cross_gain = {}
    if len(emptied) == 1:
        # the link hears no one, yet still interferes with another: its
        # victims are not its interferers
        assert any(emptied[0] in l.cross_gain for l in net.links)
    ns.run(net, 120, "joint")
    for epoch in range(60):
        # rate-only moves no power, so these are the only changes that
        # the next measure sees: a rebinding, then an edit in place
        if epoch == 20:
            net.links[emptied[0]].cross_gain = heard
        if epoch == 40:
            for j in heard:
                heard[j] *= 4.0
        ns.step(net, "rate-only")
    assert epochs == list(range(180))


def test_capacity_recomputed_only_where_its_inputs_change(monkeypatch):
    calls = []
    link_capacity = ns.link_capacity
    monkeypatch.setattr(ns, "link_capacity",
                        lambda link, net, *args: calls.append(net.epoch)
                        or link_capacity(link, net, *args))
    net = deploy_file("jocp_log.ncp", "s2_drain.cfg", seed=0)
    drains, step = [], ns.step

    def tagged_step(net, scheme):
        done = [s.done for s in net.sessions]
        step(net, scheme)
        if [s.done for s in net.sessions] != done:
            drains.append(net.epoch - 1)

    monkeypatch.setattr(ns, "step", tagged_step)
    ns.run(net, 360, "rate-only")
    assert len(drains) == 1
    d = drains[0]
    per_epoch = [calls.count(e) for e in range(360)]
    # powers stay fixed: the first epoch computes the four capacities, and
    # the next change is the drain of session 1 (links 2 and 3), which
    # deactivates them and changes the interference on links 0 and 1; a
    # measure keyed only where the powers repeat misses in the epoch after
    # the drain, and again in the next, which builds its key
    assert per_epoch == [4] + [0] * d + [4, 4] + [0] * (357 - d)

    calls.clear()
    net, _, _ = deploy(scenario=5, seed=0)
    ns.run(net, 120, "joint")
    per_epoch = [calls.count(e) for e in range(120)]
    assert per_epoch[0] == 18 and max(per_epoch) <= 18
    assert sum(per_epoch) < 18 * 120


def bits(values):
    return {k: v.hex() for k, v in values.items()}


def hexes(values):
    return [v.hex() for v in values]


def interpreted_env(net, rates):
    env = {}
    for s in net.sessions:
        env[ex.var_name("sesrate", s.index)] = rates(s)
    for l in net.links:
        env[ex.var_name("lnkcap", l.index)] = l.capacity_pps
        power = ns.db_to_linear(l.pwr_gain_db) if l.active else 0.0
        env[ex.var_name("lnkpwr", l.index)] = power
    return env


def slack_names(net):
    """The names of the slack functions' parameters, in their order:
    every session's rate, then every link's capacity, then its power."""
    return ([ex.var_name("sesrate", s.index) for s in net.sessions]
            + [ex.var_name(base, l.index) for base in ("lnkcap", "lnkpwr")
               for l in net.links])


def interpreted_slacks(net, fam, env):
    """Each member's slack with its sums expanded over the live sessions
    now, walked by eval_expr: the reference for the compiled slacks."""
    slacks = []
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
        slacks.append(clip(slack, -limit, limit) if limit > 0 else slack)
    return slacks


def interpreted_utility(net):
    live_s = [s.index for s in net.sessions if not s.done]
    live_l = [l.index for l in net.links if l.active]
    e = ex.expand_sums(net.control.utility, {"netses": live_s, "netlnk": live_l})
    env = interpreted_env(net, lambda s: max(s.throughput, 1e-6))
    return ex.eval_expr(e, env)


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
def test_compiled_slacks_and_utility_match_interpreted(monkeypatch, problem, extra,
                                                      families):
    problem = ab.parse_problem((DATA / "problems" / problem).read_text())
    programs, _, _ = cli.build_programs(problem)
    problem = problem._replace(constraints=problem.constraints + tuple(extra))
    cfg = ns.ScenarioConfig(scenario=2, seed=4, budgets=(0.0, 400.0))
    net = cli.deploy(problem, programs, cfg)
    assert [f.entity for f in net.control.families] == families
    names = slack_names(net)
    family_slacks, passed = ns._family_slacks, []

    def checked_slacks(net, fam, args):
        # what the dual update passes, read by name, is the env now
        env = interpreted_env(net, lambda s: 0.0 if s.done else s.rate)
        assert bits(dict(zip(names, args))) == bits(env)
        passed.append(net.epoch)
        return family_slacks(net, fam, args)

    monkeypatch.setattr(ns, "_family_slacks", checked_slacks)

    def check():
        env = interpreted_env(net, lambda s: 0.0 if s.done else s.rate)
        # finished sessions keep their rate here, so a member whose sums
        # still include one reads differently
        probe = interpreted_env(net, lambda s: s.rate)
        for fam in net.control.families:
            for e in (env, probe):
                assert hexes(family_slacks(net, fam, [e[n] for n in names])) \
                    == hexes(interpreted_slacks(net, fam, e))
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
    assert passed


def test_family_duals_and_prev_are_distinct_lists_by_member():
    problem = ab.parse_problem((DATA / "problems" / "powermin.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    problem = problem._replace(constraints=problem.constraints + (SESSION_FAMILY,))
    net = cli.deploy(problem, programs, ns.ScenarioConfig(scenario=2))

    def check():
        for fam in net.control.families:
            members = len(net.links if fam.entity == "link" else net.sessions)
            assert type(fam.duals) is list and type(fam.prev) is list
            assert fam.duals is not fam.prev
            assert len(fam.duals) == len(fam.prev) == members

    assert [f.entity for f in net.control.families] == ["link", "session"]
    check()
    ns.step(net, "joint")
    check()


def check_duals_and_utility_every_epoch(monkeypatch):
    """Check, each time _update_duals runs, that the duals it leaves are
    the ones a dual step on interpreted slacks gives, and, each time
    _record runs, that the utility it records is the interpreted one, bit
    for bit; returns the list of checked epochs."""
    update_duals, record = ns._update_duals, ns._record
    epochs = []

    def checked_update_duals(net, powers):
        assert powers == ns._linear_powers(net)
        env = interpreted_env(net, lambda s: 0.0 if s.done else s.rate)
        want = [ns.dual_update(fam.duals, interpreted_slacks(net, fam, env), net.cfg.dual_step)
                for fam in net.control.families]
        update_duals(net, powers)
        assert [hexes(fam.duals) for fam in net.control.families] \
            == [hexes(duals) for duals in want]
        epochs.append(net.epoch)

    def checked_record(net, trace):
        record(net, trace)
        _, _, values = trace.epochs[-1]
        assert values[-1].hex() == interpreted_utility(net).hex()

    monkeypatch.setattr(ns, "_update_duals", checked_update_duals)
    monkeypatch.setattr(ns, "_record", checked_record)
    return epochs


# A link family that reads what no shipped family does: each live
# session on the link counts 1 beyond its rate, and the link's own linear
# power enters.  Its slack stays negative, so its duals never rest at 0
# and every change of a slack reaches them.
PROBE_FAMILY = ab.Constraint(
    ex.add(ex.bigsum("lnkses", ex.add(ex.var("sesrate", "lnkses"), ex.const(1.0))),
           ex.mul(ex.const(0.01), ex.var("lnkpwr", "netlnk"))),
    ex.mul(ex.const(0.001), ex.var("lnkcap", "netlnk")), "netlnk")


@pytest.mark.parametrize("problem, extra", [
    ("jocp_log.ncp", [PROBE_FAMILY]),
    ("powermin.ncp", [SESSION_FAMILY, PROBE_FAMILY]),
])
def test_duals_and_utility_follow_state_set_by_hand(monkeypatch, problem, extra):
    epochs = check_duals_and_utility_every_epoch(monkeypatch)
    parsed = ab.parse_problem((DATA / "problems" / problem).read_text())
    programs, _, _ = cli.build_programs(parsed)
    parsed = parsed._replace(constraints=parsed.constraints + tuple(extra))
    # no clipping, so that every change of a slack reaches its dual
    net = cli.deploy(parsed, programs, ns.ScenarioConfig(scenario=2, seed=3, slack_clip=0.0))
    other = ab.parse_problem((DATA / "problems" / "powermin.ncp").read_text())
    trace = ns.run(net, 62, "rate-only")
    s, link = net.sessions[1], net.links[2]
    edits = [(s, "rate", 0.5 * s.rate), (link, "capacity_pps", 2.0 * link.capacity_pps),
             (s, "throughput", 3.0 * s.throughput), (link, "pwr_gain_db", 7.5),
             (link, "active", False), (link, "active", True),
             # the masked rate is 0.0 either way: only the done flag differs
             (s, "rate", 0.0), (s, "done", True), (s, "done", False),
             (net, "cfg", net.cfg._replace(slack_clip=5.0)),
             (net, "cfg", net.cfg._replace(slack_clip=0.0)),
             (net, "cfg", net.cfg._replace(dual_step=0.5))]
    # each edit is the only change the next epoch's dual update sees: the
    # last rate solve ran in epoch 60 and reached the duals in epoch 61,
    # and rate-only moves no power
    for obj, attr, value in edits:
        setattr(obj, attr, value)
        # the utility reads state that the next step's delivery overwrites
        assert ns.sum_utility(net).hex() == interpreted_utility(net).hex()
        for _ in range(2):
            ns.step(net, "rate-only")
            ns._record(net, trace)
    # a power alone, with every capacity as last measured
    link.pwr_gain_db += 1.0
    ns._update_duals(net, ns._linear_powers(net))
    ns._record(net, trace)
    assert all(v > 0 for v in net.control.families[-1].duals)
    # a fresh problem: new families, and another utility, then a min one (powermin)
    doubled = parsed._replace(utility=ex.mul(ex.const(2.0), parsed.utility))
    for fresh in (doubled, other, parsed):
        ns.install_problem(net, fresh)
        assert ns.sum_utility(net).hex() == interpreted_utility(net).hex()
        for _ in range(2):
            ns.step(net, "rate-only")
            ns._record(net, trace)
    end = 62 + 2 * len(edits)
    assert epochs == list(range(end + 1)) + list(range(end, end + 6))


def member_slacks(net, fam, env):
    """Each member's rhs - lhs, unclipped, expanded and walked by eval_expr
    one member after another: the reference for a family's one compiled
    slack function."""
    out = []
    for m in range(len(net.links if fam.entity == "link" else net.sessions)):
        if fam.entity == "link":
            bindings = {"lnkses": [s.index for s in net.sessions
                                   if m in s.path and not s.done]}
        else:
            bindings = {"seslnk": list(net.sessions[m].path)}
        lhs = ex.expand_sums(ex.bind_index(fam.lhs, fam.holder, m), bindings)
        rhs = ex.expand_sums(ex.bind_index(fam.rhs, fam.holder, m), bindings)
        out.append(ex.eval_expr(rhs, env) - ex.eval_expr(lhs, env))
    return out


@pytest.mark.parametrize("problem, extra", [
    ("jocp_log.ncp", [PROBE_FAMILY]),
    ("powermin.ncp", [SESSION_FAMILY, PROBE_FAMILY]),
])
def test_family_slack_function_matches_member_by_member(problem, extra):
    parsed = ab.parse_problem((DATA / "problems" / problem).read_text())
    programs, _, _ = cli.build_programs(parsed)
    parsed = parsed._replace(constraints=parsed.constraints + tuple(extra))
    cfg = ns.ScenarioConfig(scenario=2, seed=4, budgets=(0.0, 400.0))
    net = cli.deploy(parsed, programs, cfg)
    checked = {False: 0, True: 0}   # epochs checked before and after the drain
    names = slack_names(net)
    for _ in range(180):
        ns.step(net, "joint")
        env = interpreted_env(net, lambda s: 0.0 if s.done else s.rate)
        args = [env[n] for n in names]
        for fam in net.control.families:
            got = ns._compile_slacks(net, fam)(args)
            assert [v.hex() for v in got] == [v.hex() for v in member_slacks(net, fam, env)]
            if fam.slack_key == tuple(s.done for s in net.sessions):
                # the function the last dual update kept is the same
                assert [v.hex() for v in fam.slack_fn(args)] == [v.hex() for v in got]
        checked[net.sessions[1].done] += 1
    assert checked[False] > 0 and checked[True] > 0


def test_slacks_evaluated_only_where_their_inputs_change(monkeypatch):
    # the benchmark's rate-only drain run
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    cfg = ns.load_scenario((ROOT / "perfbench" / "s5_drain.cfg").read_text())
    net = cli.deploy(problem, programs, cfg)
    slack_epochs, utility_epochs, drains = [], [], []
    family_slacks, record, step = ns._family_slacks, ns._record, ns.step

    def counted_slacks(net, fam, env):
        slack_epochs.append(net.epoch)
        return family_slacks(net, fam, env)

    def tagged_record(net, trace):
        kept = net.control.kept_utility.key
        record(net, trace)
        if net.control.kept_utility.key is not kept:
            utility_epochs.append(net.epoch - 1)

    def tagged_step(net, scheme):
        live = sum(not s.done for s in net.sessions)
        step(net, scheme)
        if sum(not s.done for s in net.sessions) < live:
            drains.append(net.epoch - 1)

    monkeypatch.setattr(ns, "_family_slacks", counted_slacks)
    monkeypatch.setattr(ns, "_record", tagged_record)
    monkeypatch.setattr(ns, "step", tagged_step)
    ns.run(net, 1500, "rate-only")
    d, = drains
    assert d == 474
    # rates move in every 30th epoch and reach the slacks in the next; the
    # drain changes the done flags and the capacities that the epoch after
    # it reads
    assert slack_epochs == sorted({0, 1, d + 1, *range(31, 1500, 30)})
    assert len(slack_epochs) == 52
    # throughput follows the rates in the epoch they move; the drained
    # session's is zeroed in the epoch after its drain
    assert utility_epochs == sorted({d, d + 1, *range(0, 1500, 30)})


def test_interference_and_shares_computed_only_where_their_inputs_change(monkeypatch):
    # the benchmark's rate-only drain run
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    cfg = ns.load_scenario((ROOT / "perfbench" / "s5_drain.cfg").read_text())
    net = cli.deploy(problem, programs, cfg)
    fold_epochs, share_epochs, drains = [], [], []
    fold, shares, step = ns._aggregate_interference, ns._shares, ns.step

    def counted_fold(link, net, powers):
        fold_epochs.append(net.epoch)
        return fold(link, net, powers)

    def counted_shares(net):
        share_epochs.append(net.epoch)
        return shares(net)

    def tagged_step(net, scheme):
        live = sum(not s.done for s in net.sessions)
        step(net, scheme)
        if sum(not s.done for s in net.sessions) < live:
            drains.append(net.epoch - 1)

    monkeypatch.setattr(ns, "_aggregate_interference", counted_fold)
    monkeypatch.setattr(ns, "_shares", counted_shares)
    monkeypatch.setattr(ns, "step", tagged_step)
    ns.run(net, 1500, "rate-only")
    d, = drains
    assert d == 474
    # a changed input is computed afresh: the powers (and so the
    # interference) change only when the drain deactivates six links, and
    # are kept with their key on the next epoch that repeats them; the
    # shares, keyed on every call, read the capacities the drain changes,
    # and the rates that move in every 30th epoch
    assert sorted(set(fold_epochs)) == [0, d + 1, d + 2]
    assert len(fold_epochs) == 3 * len(net.links)
    assert share_epochs == sorted({0, d + 1, *range(30, 1500, 30)})


def fresh_throughputs(net):
    """Each session's throughput from the live rates, done flags and
    capacities, computed afresh: the reference for the kept shares."""
    demand = {}
    for s in net.sessions:
        if not s.done:
            for li in s.path:
                demand[li] = demand.get(li, 0.0) + s.rate
    throughputs = []
    for s in net.sessions:
        share = 1.0
        for li in s.path:
            if not s.done and demand[li] > 0:
                share = min(share, net.links[li].capacity_pps / demand[li])
        throughputs.append(0.0 if s.done
                           else s.rate * min(1.0, share) ** net.cfg.congestion_exp)
    return throughputs


def test_throughputs_follow_state_set_by_hand(monkeypatch):
    epochs, shares = [], ns._shares
    monkeypatch.setattr(ns, "_shares", lambda net: epochs.append(net.epoch) or shares(net))
    # a budget no run exhausts, so that session 1 accounts what it sends
    net, _, _ = deploy(scenario=2, seed=3, budgets=(0.0, 1e12))
    ns.run(net, 62, "rate-only")
    s, link = net.sessions[1], net.links[2]
    # the capacity cut overloads link 2; a replaced config measures the
    # capacities again, so the rate overloads it there, and the exponent
    # matters
    edits = [(s, "rate", 8.0), (link, "capacity_pps", 2.0),
             (s, "done", True), (s, "done", False), (s, "rate", 1000.0),
             (net, "cfg", net.cfg._replace(congestion_exp=3.0)),
             (net, "cfg", net.cfg._replace(congestion_exp=2.0))]
    # each edit is the only change the next epoch's delivery sees: the
    # next rate solve is in epoch 90, and rate-only moves no power
    for obj, attr, value in edits:
        setattr(obj, attr, value)
        first = net.epoch
        for _ in range(3):
            sent = s.sent
            ns.step(net, "rate-only")
            assert [x.throughput.hex() for x in net.sessions] \
                == [x.hex() for x in fresh_throughputs(net)]
            if not s.done:
                assert s.sent.hex() == (sent + s.throughput * net.cfg.phys_epoch).hex()
        assert first in epochs and first + 2 not in epochs
    assert 2.0 < link.capacity_pps < s.rate == 1000.0
    assert net.epoch == 62 + 3 * len(edits) < 90


def test_slacks_and_utility_compile_once_per_topology(monkeypatch):
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    cfg = ns.load_scenario((DATA / "scenarios" / "s2_drain.cfg").read_text())
    net = cli.deploy(problem, programs, cfg._replace(seed=0))

    epoch = 0          # the step running, or the one whose record is running
    compiles, drains = [], []
    define, step = ex.SourceGen.define, ns.step

    def counted_define(gen, source, fname, **names):
        compiles.append(epoch)
        return define(gen, source, fname, **names)

    def tagged_step(net, scheme):
        nonlocal epoch
        epoch = net.epoch
        live = sum(not s.done for s in net.sessions)
        step(net, scheme)
        if sum(not s.done for s in net.sessions) < live:
            drains.append(epoch)

    monkeypatch.setattr(ex.SourceGen, "define", counted_define)
    monkeypatch.setattr(ns, "step", tagged_step)
    ns.run(net, 360, "rate-only")
    assert len(drains) == 1
    d = drains[0]
    # the first epoch compiles everything; the drain's record recompiles
    # the utility, and the next epoch's dual update the slacks: one
    # generated function per family
    assert set(compiles) == {0, d, d + 1}
    assert compiles.count(d) == 1
    assert compiles.count(d + 1) == len(net.control.families) == 1


def test_joint_run_defines_one_function_per_runtime_unit(monkeypatch, tmp_path):
    # every s5 link has two victims and every session six
    # hops, so one link program and one session program serve them all;
    # their fused loops never give up here, so the generic loop's
    # objective and gradient are never compiled
    defined, define = [], ex.SourceGen.define

    def counted_define(gen, source, fname, **names):
        defined.append(fname)
        return define(gen, source, fname, **names)

    monkeypatch.setattr(ex.SourceGen, "define", counted_define)
    code = cli.main(["run", "--problem", str(DATA / "problems" / "jocp_log.ncp"),
                     "--scenario", str(DATA / "scenarios" / "s5.cfg"),
                     "--duration", "60", "--out", str(tmp_path)])
    assert code == 0
    # the capacity at install; at the first step the slacks of the one
    # family, the link program, the session program; the utility at the
    # first record
    assert defined == ["compiled", "slacks", "fused", "fused", "compiled"]


def test_trace_csv_schema():
    net, _, _ = deploy(scenario=1, seed=0)
    trace = ns.run(net, 30, "joint")
    lines = csv_text(trace).splitlines()
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


def test_scenario_loader_refuses_a_repeated_key():
    with pytest.raises(ns.ConfigError, match="line 3: duplicate key 'seed'"):
        ns.load_scenario("scenario = 2\nseed = 1\nseed = 2\n")


# The trace as it was recorded and written one row at a time, kept here
# as the reference for Trace's by-epoch storage.
def reference_record(net, rows):
    t = net.clock
    cap = net.control.link_family
    lams = [0.0] * len(net.links) if cap is None else cap.duals
    add = rows.append
    for s in net.sessions:
        add((t, "session", s.index, "throughput_pps", s.throughput))
    for link in net.links:
        if link.active:
            add((t, "node", link.tx, "power_gain_db", link.pwr_gain_db))
        add((t, "link", link.index, "lambda", lams[link.index]))
    add((t, "net", 0, "sum_utility", ns.sum_utility(net)))


def reference_csv(rows):
    lines = ["time,entity_kind,entity_id,metric,value"]
    for (t, k, e, m, v) in rows:
        lines.append(f"{t!r},{k},{e},{m},{v!r}")
    return "\n".join(lines) + "\n"


class RecordingWriter:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def assert_streams_reference_csv(trace, rows):
    """to_csv writes reference_csv(rows), and no write holds rows of
    more than one epoch."""
    out = RecordingWriter()
    trace.to_csv(out)
    assert "".join(out.writes) == reference_csv(rows)
    for text in out.writes:
        assert len({line.split(",", 1)[0] for line in text.split("\n")[1:] if line}) <= 1


def hexed(rows):
    return [(t.hex(), k, e, m, v.hex()) for (t, k, e, m, v) in rows]


def step_and_record(net, scheme, epochs, trace):
    for _ in range(epochs):
        ns.step(net, scheme)
        ns._record(net, trace)


def edited_joint_run():
    net, _, _ = deploy(scenario=2, seed=3)
    trace = ns.run(net, 40, "joint")
    net.links[2].active = False
    step_and_record(net, "joint", 5, trace)
    net.links[2].active = True
    step_and_record(net, "joint", 5, trace)
    other = ab.parse_problem((DATA / "problems" / "powermin.ncp").read_text())
    ns.install_problem(net, other)
    step_and_record(net, "joint", 40, trace)
    return net, trace


def drain_run():
    # session 1 drains at t = 196, and links 2 and 3 go inactive
    net = deploy_file("jocp_log.ncp", "s2_drain.cfg", seed=0)
    return net, ns.run(net, 360, "rate-only")


def all_inactive_run():
    net, _, _ = deploy(scenario=2, budgets=(1.0, 1.0))
    return net, ns.run(net, 30, "joint")


@pytest.mark.parametrize("run, layouts", [
    (edited_joint_run, 2), (drain_run, 2), (all_inactive_run, 1)])
def test_trace_matches_the_row_by_row_recorder(monkeypatch, run, layouts):
    rows, record = [], ns._record

    def both(net, trace):
        record(net, trace)
        reference_record(net, rows)

    monkeypatch.setattr(ns, "_record", both)
    net, trace = run()
    assert hexed(trace.rows) == hexed(rows)
    assert_streams_reference_csv(trace, rows)
    for kind, eid, metric in {(k, e, m) for (_, k, e, m, _) in rows}:
        want = [(t, v) for (t, k, e, m, v) in rows if (k, e, m) == (kind, eid, metric)]
        assert [(t.hex(), v.hex()) for t, v in trace.series(kind, eid, metric)] \
            == [(t.hex(), v.hex()) for t, v in want]
        assert [v.hex() for v in trace.values(kind, metric)] \
            == [v.hex() for (_, k, _, m, v) in rows if (k, m) == (kind, metric)]
    assert len(trace.layouts) == layouts
    assert trace.layouts[tuple(l.active for l in net.links)] is trace.epochs[-1][1]


def test_trace_csv_edge_values():
    a, b = float("2.5"), float("2.5")
    assert a is not b
    nan, inf = float("nan"), float("inf")
    series = [0.0, -0.0, 0.0, a, b, 1, 1.0, nan, nan, inf, -inf, -inf, 0.0, -0.0]
    rows = []
    for t, v in enumerate(series):
        rows.append((float(t), "net", 0, "sum_utility", v))
        rows.append((float(t), "link", 1, "lambda", 0.0 if t % 2 else -0.0))
        if t in (5, 6, 11):   # the layout changes and changes back
            rows.append((float(t), "node", 3, "power_gain_db", v))
    trace = ns.Trace.from_rows(rows)
    assert len(trace.epochs) == len(series) and len(trace.layouts) == 2
    assert [repr(r) for r in trace.rows] == [repr(r) for r in rows]
    assert_streams_reference_csv(trace, rows)
    lines = csv_text(trace).splitlines()
    assert lines[1:8:2] == ["0.0,net,0,sum_utility,0.0", "1.0,net,0,sum_utility,-0.0",
                            "2.0,net,0,sum_utility,0.0", "3.0,net,0,sum_utility,2.5"]
    assert reference_csv([]) == "time,entity_kind,entity_id,metric,value\n"
    assert_streams_reference_csv(ns.Trace(), [])
    assert_streams_reference_csv(ns.Trace.from_rows([]), [])

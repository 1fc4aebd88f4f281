"""The records the pipeline passes around keep their semantics: the
validated ones check every value they are built or replaced with, no two
fresh instances share a mutable default, simulator state equals only
itself, expressions compare, hash and print by value, and every problem
is carried in maximize form with no sense beside it."""

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

DATA = Path(netnum.__file__).parent / "data"


@pytest.mark.parametrize("record, good, bad, error, message", [
    (ns.ScenarioConfig, {"seed": 3}, {"packet_bits": 0}, ns.ConfigError,
     "packet_bits must be at least 1, got 0"),
    (ns.ScenarioConfig, {"seed": 3}, {"band_pattern": (0, 1)}, ns.ConfigError,
     "band_pattern has 2 entries; scenario 1 has 4 links"),
    (ns.ScenarioConfig, {"rate_iters": 0}, {"rate_iters": -3}, ns.ConfigError,
     "rate_iters must not be negative, got -3"),
    (ns.ScenarioConfig, {"power_iters": 0}, {"power_iters": -3}, ns.ConfigError,
     "power_iters must not be negative, got -3"),
    (it.InstanceConfig, {"seed": 3}, {"n_lcl": 21}, it.CardinalityError,
     "local cardinality 21 exceeds global 20"),
    (sv.SolverConfig, {"step": 0.5}, {"tol": 0.0}, sv.SolveError,
     "steps and tolerance must be positive"),
    (sv.SolverConfig, {"step": 0.5}, {"boxes": {"x": (2.0, 1.0)}}, sv.SolveError,
     "x: box lower 2.0 exceeds upper 1.0"),
    # nan compares false both ways: refused as not positive, not ordered
    (sv.SolverConfig, {"step": 0.5}, {"step": float("nan")}, sv.SolveError,
     "steps and tolerance must be positive"),
    (sv.SolverConfig, {"step": 0.5}, {"dual_step": float("nan")}, sv.SolveError,
     "steps and tolerance must be positive"),
    (sv.SolverConfig, {"step": 0.5}, {"tol": float("nan")}, sv.SolveError,
     "steps and tolerance must be positive"),
    (sv.SolverConfig, {"step": 0.5}, {"boxes": {"x": (float("nan"), 1.0)}}, sv.SolveError,
     "x: box lower nan exceeds upper 1.0"),
], ids=["scenario-packet-bits", "scenario-band-pattern", "scenario-rate-iters",
        "scenario-power-iters", "instance", "solver-tol", "solver-box", "solver-step-nan",
        "solver-dual-step-nan", "solver-tol-nan", "solver-box-nan"])
def test_validated_records_check_when_built_and_when_replaced(record, good, bad, error,
                                                              message):
    with pytest.raises(error, match=message):
        record(**bad)
    fresh = record()
    with pytest.raises(error, match=message):
        fresh._replace(**bad)
    replaced = fresh._replace(**good)
    assert type(replaced) is record
    for key, value in good.items():
        assert getattr(replaced, key) == value


def fresh_mutables():
    """Each record's mutable defaults, read from one fresh instance."""
    graph, imap = ab.ElementGraph(), it.InstanceMap()
    family = ns.ConstraintFamily("netlnk", "link", ex.ZERO, ex.ZERO, 2)
    net = ns.NetState(ns.ScenarioConfig(), [], [], [])
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    control = ns.Controller(net, problem)
    link = ns.Link(0, 0, 1, 0, 1.0, 1.0, 1.0, (0.0, 30.0), (0,))
    return [graph.elements, imap.glb, imap.lcl, sv.SolverConfig().boxes, family.duals,
            family.prev, control.families, control.pending, control.programs,
            control.solvers, control.shared, link.cross_gain]


def test_fresh_records_share_no_mutable_default():
    for a, b in zip(fresh_mutables(), fresh_mutables()):
        assert a is not b


def deploy():
    problem = ab.parse_problem((DATA / "problems" / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    net = cli.deploy(problem, programs, ns.ScenarioConfig(scenario=2))
    ns.step(net, "joint")
    return net


def test_simulator_state_equals_only_itself():
    # two networks built alike hold equal values in distinct objects
    a, b = deploy(), deploy()
    pairs = [(a, b), (a.control, b.control), (a.links[0], b.links[0]),
             (a.sessions[0], b.sessions[0]), (a.control.families[0], b.control.families[0]),
             (ns._get_solver(a, "link", 0), ns._get_solver(b, "link", 0)),
             (ns._get_solver(a, "session", 0), ns._get_solver(b, "session", 0))]
    for x, y in pairs:
        assert x == x and x != y
    # the values they hold compare by value
    assert a.cfg == b.cfg and a.nodes == b.nodes
    assert a.control.families[0].duals == b.control.families[0].duals
    assert ns._get_solver(a, "link", 0).cfg == ns._get_solver(b, "link", 0).cfg
    assert ns._get_solver(a, "link", 0).cfg != ns._get_solver(a, "session", 0).cfg


def test_every_record_maximizes_and_carries_no_sense():
    for record in (ab.ControlProblem, it.InstantiatedProblem, dc.DualProblem,
                   dc.Subproblem, dc.ControlProgram):
        assert "sense" not in record._fields, record
    assert "utility_sense" not in ns.NetState.__slots__ + ns.Controller.__slots__
    # `min U` is parsed once into the maximized utility -U
    source = (DATA / "problems" / "powermin.ncp").read_text()
    assert "utility min sum(wos_p)" in source
    as_max = ab.parse_problem(source.replace("utility min", "utility max"))
    assert ab.parse_problem(source).utility == ex.neg(as_max.utility)


def test_expr_equality_hash_and_repr():
    def build():
        return ex.add(ex.var("x", 1), ex.neg(ex.const(2.5)))
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ex.add(ex.var("x", 2), ex.neg(ex.const(2.5)))
    assert a.var_pairs == frozenset({("x", 1)})
    # the repr names every field, in order
    assert repr(a) == (
        "Expr(kind='add', children=(Expr(kind='var', children=(), value=0.0, name='x', "
        "index=1), Expr(kind='neg', children=(Expr(kind='const', children=(), value=2.5, "
        "name='', index=None),), value=0.0, name='', index=None)), value=0.0, name='', "
        "index=None)")

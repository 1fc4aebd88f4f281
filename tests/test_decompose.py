import copy
import math
import random
from pathlib import Path

import pytest

from netnum import abstraction as ab
from netnum import cli
from netnum import decompose as dc
from netnum import expr as ex
from netnum import instantiate as it
from netnum.reference import TOY_SESSIONS_OF_LINK

from conftest import JOCP_LOG, JOCP_RATE

TOY_DUAL = ("sesrate_00 + sesrate_01 + sesrate_02"
            " + lnkcap_00*lbd_00 - sesrate_00*lbd_00 - sesrate_01*lbd_00"
            " + lnkcap_01*lbd_01 - sesrate_00*lbd_01 - sesrate_02*lbd_01"
            " + lnkcap_02*lbd_02 - sesrate_01*lbd_02 - sesrate_02*lbd_02")


def test_dualize_toy_matches_worked_dual(toy_inst):
    inst, _ = toy_inst
    dp = dc.dualize(inst)
    assert ex.render(dp.dual) == TOY_DUAL
    assert dp.registry == inst.constraints
    assert [c.label for c in dp.registry] == ["netlnk_00", "netlnk_01", "netlnk_02"]


def test_dualize_without_constraints_returns_utility():
    src = ("var wos_x path=netses.sesrate quant=all,none\n"
           "utility max sum(wos_x)\n"
           "constraint 0 <= wos_x\n"
           "decompose cross=dual dist=best_response\n")
    p = ab.parse_problem(src)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 0))
    dp = dc.dualize(inst)
    assert dp.dual == inst.utility
    assert dp.registry == []


def test_weak_duality_direction(toy_inst):
    inst, _ = toy_inst
    dp = dc.dualize(inst)
    rng = random.Random(2)
    for _ in range(50):
        env = {f"sesrate_{i:02d}": rng.uniform(0.0, 0.5) for i in range(3)}
        env.update({f"lnkcap_{i:02d}": rng.uniform(1.0, 2.0) for i in range(3)})
        env.update({f"lbd_{i:02d}": rng.uniform(0.0, 2.0) for i in range(3)})
        for c in inst.constraints:
            assert ex.eval_expr(c.lhs, env) <= ex.eval_expr(c.rhs, env)
        assert ex.eval_expr(dp.dual, env) >= ex.eval_expr(inst.utility, env) - 1e-12


def test_split_by_layer_toy(toy_inst):
    inst, _ = toy_inst
    dp = dc.dualize(inst)
    layers, residual = dc.split_by_layer(dp, inst.problem.graph)
    assert residual == []
    assert set(layers) == {"transport", "physical"}
    assert ex.render(layers["physical"].objective) == \
        "lnkcap_00*lbd_00 + lnkcap_01*lbd_01 + lnkcap_02*lbd_02"
    owned, foreign = _owned_and_foreign([layers["transport"].objective])
    assert "sesrate_00" in owned
    assert all(v.startswith("lbd") for v in foreign)


def test_term_assignment_examples(toy_inst):
    inst, _ = toy_inst
    graph = inst.problem.graph
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, graph)
    transport_terms = {ex.render(t) for t in ex.level1_terms(layers["transport"].objective)}
    physical_terms = {ex.render(t) for t in ex.level1_terms(layers["physical"].objective)}
    assert "sesrate_00" in transport_terms
    assert "lnkcap_00*lbd_00" in physical_terms


def test_constant_rhs_terms_go_to_residual():
    src = ("var wos_x path=netses.sesrate quant=all,none\n"
           "var wos_y path=netlnk.lnkses.sesrate quant=every,all,none\n"
           "utility max sum(wos_x)\n"
           "constraint sum(wos_y) <= 1\n"
           "decompose cross=dual dist=best_response\n")
    p = ab.parse_problem(src)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 0),
                                     preset={"lnkses": TOY_SESSIONS_OF_LINK})
    dp = dc.dualize(inst)
    layers, residual = dc.split_by_layer(dp, p.graph)
    assert [ex.render(t) for t in residual] == ["lbd_00", "lbd_01", "lbd_02"]
    assert set(layers) == {"transport"}


def test_constraint_without_holder_is_one_global_instance():
    # a constraint over no holder expands once, after every instance of
    # the per-link family, and its dual absorbs it like any other
    p = ab.parse_problem(JOCP_RATE + "constraint sum(wos_x) <= 150\n")
    inst, _ = it.instantiate_problem(p, it.InstanceConfig())
    *per_link, extra = inst.constraints
    assert [(c.family, c.holder, c.member) for c in per_link] \
        == [(0, "netlnk", m) for m in range(20)]
    assert (extra.family, extra.holder, extra.member, extra.label) == (1, None, None, "global")
    absorbed = " - ".join(f"sesrate_{i:02d}*lbd_20" for i in range(20))
    assert dc.dump_dual(dc.dualize(inst)).endswith(
        f"\nlbd_20 [global]: 150*lbd_20 - {absorbed}\n")


CONSTANT_LHS = JOCP_RATE.replace("constraint sum(wos_y) <= wos_z",
                                 "constraint sum(wos_y) + 5 <= wos_z")


def test_constant_dual_term_takes_the_layer_of_the_rhs():
    # -5*lbd_00 holds no primal variable: it goes to the layer of the
    # constraint's modelled rhs (lnkcap, physical), not to the residual
    p = ab.parse_problem(CONSTANT_LHS)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 7),
                                     preset={"lnkses": TOY_SESSIONS_OF_LINK})
    layers, residual = dc.split_by_layer(dc.dualize(inst), p.graph)
    assert residual == []
    physical = [ex.render(t) for t in ex.level1_terms(layers["physical"].objective)]
    transport = [ex.render(t) for t in ex.level1_terms(layers["transport"].objective)]
    assert "-5*lbd_00" in physical and "-5*lbd_00" not in transport


def test_constant_dual_term_goes_to_the_holder_member():
    # -5*lbd_j holds no primal variable: it goes to member j of the
    # constraint's holder (netlnk), so to link j
    p = ab.parse_problem(CONSTANT_LHS)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 7),
                                     preset={"lnkses": TOY_SESSIONS_OF_LINK})
    layers, _ = dc.split_by_layer(dc.dualize(inst), p.graph)
    links = dc.split_by_entity(layers["physical"], p.graph)
    assert [(s.entity_kind, s.entity_index, ex.render(s.objective)) for s in links] == [
        ("link", j, f"lnkcap_{j:02d}*lbd_{j:02d} - 5*lbd_{j:02d}") for j in range(3)]


def test_constant_dual_term_builds_programs():
    # the constant term and the capacity term each collect the link's own
    # dual; the template keeps that rule once
    problem = ab.parse_problem(JOCP_LOG.replace("constraint sum(wos_y) <= wos_z",
                                                "constraint sum(wos_y) + 5 <= wos_z"))
    programs, _, _ = cli.build_programs(problem)
    physical = programs["physical"]
    assert ex.render(physical.objective) == "lnkcap*lbd - 5*lbd"
    assert physical.collect == (dc.CollectionRule("self", 0),)
    assert physical.decision == "lnkpwr"
    transport = programs["transport"]
    assert ex.render(transport.objective) == "ln(sesrate) - sesrate*sum(seslnk: lbd)"
    assert transport.collect == (dc.CollectionRule("seslnk", 0),)


def test_term_conservation(toy_inst, jocp_inst):
    rng = random.Random(9)
    for inst, _ in (toy_inst, jocp_inst):
        dp = dc.dualize(inst)
        layers, residual = dc.split_by_layer(dp, inst.problem.graph)
        pieces = [s.objective for s in layers.values()] + residual
        entity_objs = []
        for sub in layers.values():
            entity_objs.extend(e.objective for e in
                               dc.split_by_entity(sub, inst.problem.graph))
        names = ex.free_vars(dp.dual)
        for _ in range(20):
            env = {n: rng.uniform(0.1, 2.0) for n in names}
            total = ex.eval_expr(dp.dual, env)
            assert abs(sum(ex.eval_expr(p_, env) for p_ in pieces) - total) < 1e-9
            assert abs(sum(ex.eval_expr(o, env) for o in entity_objs)
                       + sum(ex.eval_expr(r, env) for r in residual) - total) < 1e-9


def test_ambiguous_layer():
    p = ab.parse_problem(JOCP_RATE)
    inst, _ = it.instantiate_problem(p, it.InstanceConfig(3, 2, 7))
    dp = dc.dualize(inst)
    dp = dp._replace(dual=ex.add(dp.dual, ex.mul(ex.var("sesrate", 0), ex.var("lnkpwr", 0))))
    with pytest.raises(dc.AmbiguousLayer) as err:
        dc.split_by_layer(dp, p.graph)
    assert str(err.value) == "term sesrate_00*lnkpwr_00 mixes layers physical, transport"
    # a dual-only term whose constraint's rhs reads two layers
    c = dp.registry[0]
    dp = dp._replace(dual=ex.var("lbd", 0), registry=[
        c._replace(rhs=ex.add(ex.var("sesrate", 0), ex.var("lnkpwr", 0)))])
    with pytest.raises(dc.AmbiguousLayer) as err:
        dc.split_by_layer(dp, p.graph)
    assert str(err.value) == "term lbd_00: rhs spans physical, transport"


def test_split_by_entity_refuses_a_term_of_two_entities_or_none(toy_inst):
    inst, _ = toy_inst
    graph = inst.problem.graph
    layers, _ = dc.split_by_layer(dc.dualize(inst), graph)
    sub = layers["transport"]
    for extra, entities in [
            (ex.mul(ex.var("sesrate", 2), ex.var("sesrate", 0)),
             "[('session', 0), ('session', 2)]"),
            (ex.var("sesrate"), "[]")]:
        bad = sub._replace(objective=ex.add(sub.objective, extra))
        with pytest.raises(dc.AmbiguousEntity) as err:
            dc.split_by_entity(bad, graph)
        assert str(err.value) == f"term {ex.render(extra)} references entities {entities}"


def test_split_by_entity_toy_flows(toy_inst):
    inst, _ = toy_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    flows = dc.split_by_entity(layers["transport"], inst.problem.graph)
    assert [ex.render(f.objective) for f in flows] == [
        "sesrate_00 - sesrate_00*lbd_00 - sesrate_00*lbd_01",
        "sesrate_01 - sesrate_01*lbd_00 - sesrate_01*lbd_02",
        "sesrate_02 - sesrate_02*lbd_01 - sesrate_02*lbd_02",
    ]
    assert all(f.entity_kind == "session" for f in flows)


def test_split_by_entity_single_entity_identity(toy_inst):
    inst, _ = toy_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    flows = dc.split_by_entity(layers["transport"], inst.problem.graph)
    again = dc.split_by_entity(flows[0], inst.problem.graph)
    assert len(again) == 1 and again[0].objective == flows[0].objective


def test_two_holders_make_an_entity_ambiguous(toy_inst):
    # sesrate loses its has-attribute holder after a split and a lift that
    # saw it; both read the graph as it stands now
    inst, imap = toy_inst
    dp = copy.deepcopy(dc.dualize(inst))
    graph = dp.inst.problem.graph
    layers, _ = dc.split_by_layer(dp, graph)
    sessions = dc.split_by_entity(layers["transport"], graph)
    assert len(sessions) == 3
    dc.lift_to_abstract([sessions[0]], imap)
    graph.elements["sesrate"] = graph.elements["sesrate"]._replace(holder=None)
    with pytest.raises(dc.AmbiguousEntity, match="sesrate has no holder"):
        dc.split_by_entity(layers["transport"], graph)
    with pytest.raises(dc.AmbiguousEntity, match="sesrate has no holder"):
        dc.lift_to_abstract([sessions[0]], imap)


def test_session4_subproblem_renders_exactly(jocp_inst):
    inst, _ = jocp_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    s4 = next(s for s in dc.split_by_entity(layers["transport"], inst.problem.graph)
              if s.entity_index == 4)
    expected = "sesrate_04 " + " ".join(
        f"- sesrate_04*lbd_{j:02d}"
        for j in (0, 3, 4, 7, 9, 10, 11, 12, 13, 14, 18, 19))
    assert ex.render(s4.objective) == expected


def test_lift_session4_to_template(jocp_inst):
    inst, imap = jocp_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    s4 = next(s for s in dc.split_by_entity(layers["transport"], inst.problem.graph)
              if s.entity_index == 4)
    prog = dc.lift_to_abstract([s4], imap)
    assert ex.render(prog.objective) == "sesrate - sesrate*sum(seslnk: lbd)"
    assert prog.collect == (dc.CollectionRule("seslnk", 0),)
    assert prog.decision == "sesrate"


def test_lift_log_variant(jocp_inst):
    p = ab.parse_problem(JOCP_LOG)
    from netnum.reference import REFERENCE_SESSIONS_OF_LINK
    inst, imap = it.instantiate_problem(
        p, it.InstanceConfig(), preset={"lnkses": REFERENCE_SESSIONS_OF_LINK})
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, p.graph)
    s0 = dc.split_by_entity(layers["transport"], p.graph)[0]
    prog = dc.lift_to_abstract([s0], imap)
    assert ex.render(prog.objective) == "ln(sesrate) - sesrate*sum(seslnk: lbd)"


def test_lift_physical_self_rule(toy_inst):
    inst, imap = toy_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    links = dc.split_by_entity(layers["physical"], inst.problem.graph)
    prog = dc.lift_to_abstract([links[0]], imap)
    assert ex.render(prog.objective) == "lnkcap*lbd"
    assert prog.collect == (dc.CollectionRule("self", 0),)
    assert prog.decision == "lnkpwr"


def test_lift_groups_dual_terms_by_structure(toy_inst):
    # session 0 of the toy sits on links 0 and 1, so its seslnk instance
    # collects lbd_00 and lbd_01; the lift groups terms by the tree of
    # their shape, not by its rendered text
    inst, imap = toy_inst
    dp = dc.dualize(inst)
    rate, two = ex.var("sesrate", 0), ex.const(2.0)

    def flat(j):
        return ex.mul(rate, two, ex.var("lbd", j))

    def nested(j):
        return ex.Expr("mul", (rate, ex.Expr("mul", (two, ex.var("lbd", j)))))

    def lift(*terms):
        sub = dc.Subproblem("transport", ex.add(*terms), "session", 0, dp)
        return dc.lift_to_abstract([sub], imap)

    for make in (flat, nested):
        prog = lift(make(0), make(1))
        assert prog.collect == (dc.CollectionRule("seslnk", 0),)
        assert ex.render(prog.objective) == "sesrate*2*sum(seslnk: lbd)"
    # alike in text, unequal as trees: two groups of one dual each, and
    # neither index set is the instance of a local element
    assert ex.render(nested(0)) == "sesrate_00*2*lbd_00"
    assert ex.render(flat(1)) == "sesrate_00*2*lbd_01"
    with pytest.raises(dc.NoMatchingElement, match=r"index set \(0,\) matches no"):
        lift(nested(0), flat(1))


# The lift's inverse, kept here as the reference for the round trip: the
# run time needs no way back from a template to an entity's subproblem.
def distribute(e):
    """Distribute products and negations over embedded sums (the inverse of
    the lift's lambda factoring)."""
    if e.kind == "neg":
        inner = distribute(e.children[0])
        if inner.kind == "add":
            return ex.add(*(ex.neg(t) for t in inner.children))
        return ex.neg(inner)
    if e.kind == "add":
        return ex.add(*(distribute(c) for c in e.children))
    if e.kind == "mul":
        cs = [distribute(c) for c in e.children]
        for i, c in enumerate(cs):
            if c.kind == "add":
                return ex.add(*(distribute(ex.mul(*cs[:i], t, *cs[i + 1:]))
                                for t in c.children))
        return ex.mul(*cs)
    return e


def reinstantiate(prog, m, entity_index, dp):
    """Expand a lifted template back to the concrete entity subproblem;
    exact inverse of lift_to_abstract for every shipped family."""
    graph = dp.inst.problem.graph
    bindings = {}
    subs = {}
    for rule in prog.collect:
        lbd_of = {c.member: j for j, c in enumerate(dp.registry) if c.family == rule.family}
        if rule.symbol == "self":
            subs[(dc.LBD, "self")] = ex.var(dc.LBD, lbd_of[entity_index])
        else:
            fam = m.family(rule.symbol)
            bindings[rule.symbol] = [lbd_of[j] for j in fam.instances[entity_index]]
    e = distribute(ex.expand_sums(prog.objective, bindings))
    # restore the entity index on unindexed primal variables
    kinds = dc._entity_kinds(graph)
    subs.update(((b, None), ex.var(b, entity_index)) for b, i in e.var_pairs
                if b != dc.LBD and i is None and b in graph.elements
                and kinds[b] == prog.entity_kind)
    return dc._replace_vars(e, subs)


def test_lift_reinstantiate_round_trip(toy_inst, jocp_inst):
    for inst, imap in (toy_inst, jocp_inst):
        dp = dc.dualize(inst)
        layers, _ = dc.split_by_layer(dp, inst.problem.graph)
        for sub in layers.values():
            for entity in dc.split_by_entity(sub, inst.problem.graph):
                prog = dc.lift_to_abstract([entity], imap)
                back = reinstantiate(prog, imap, entity.entity_index, dp)
                assert back == entity.objective


def test_all_entities_lift_to_one_template(jocp_inst):
    inst, imap = jocp_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    for sub in layers.values():
        entities = dc.split_by_entity(sub, inst.problem.graph)
        lifted = [dc.lift_to_abstract([e], imap) for e in entities]
        assert len({(ex.render(p.objective), p.collect) for p in lifted}) == 1
        # the layer's one call lifts the same template
        assert dc.lift_to_abstract(entities, imap) == lifted[0]


def test_lift_no_matching_element(jocp_inst):
    inst, imap = jocp_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    s4 = next(s for s in dc.split_by_entity(layers["transport"], inst.problem.graph)
              if s.entity_index == 4)
    broken = copy.deepcopy(imap)
    fam = broken.lcl["seslnk"]
    fam.instances[4] = tuple(sorted(set(fam.instances[4]) ^ {0, 1}))
    with pytest.raises(dc.NoMatchingElement):
        dc.lift_to_abstract([s4], broken)


def test_penalize_best_response_unchanged(toy_inst):
    inst, imap = toy_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    prog = dc.lift_to_abstract(
        dc.split_by_entity(layers["physical"], inst.problem.graph)[:1], imap)
    pen = dc.penalize(prog, "best_response", inst.problem.graph)
    assert pen.objective == prog.objective and pen.penalty is None


def test_penalize_dpl_uses_symbolic_capacity_derivative(toy_inst):
    inst, imap = toy_inst
    graph = inst.problem.graph
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, graph)
    prog = dc.lift_to_abstract(
        dc.split_by_entity(layers["physical"], graph)[:1], imap)
    pen = dc.penalize(prog, "dpl", graph)
    assert pen.penalty is not None
    free = ex.free_vars(pen.penalty)
    assert "lbd_itf" in free and "lnkpwr" in free and "lnkpwr_anchor" in free
    # numerically equals lbd * d(capacity)/d(interferer power) * (p - p0)
    model = ab.resolve_model(graph, "lnkcap")
    deriv = ex.differentiate(model, "itfpwr")
    rng = random.Random(4)
    for _ in range(20):
        theirs = {"freq": 2e5, "lnkpwr": rng.uniform(1, 500),
                  "lnkgain": rng.uniform(1e-6, 1e-4),
                  "lnknoise": rng.uniform(1e-5, 1e-3),
                  "lnkgain_itf": rng.uniform(1e-7, 1e-5)}
        p0, p1, lam = rng.uniform(1, 500), rng.uniform(1, 500), rng.uniform(0, 2)
        env = {f"itf_{k}": v for k, v in theirs.items()}
        env.update({"lbd_itf": lam, "lnkpwr": p1, "lnkpwr_anchor": p0})
        want = lam * ex.eval_expr(deriv, {**theirs, "itfpwr": p0}) * (p1 - p0)
        assert abs(ex.eval_expr(pen.penalty, env) - want) < 1e-9 * max(1, abs(want))


def test_swapping_a_model_is_one_edit(toy_inst):
    # the high-SINR capacity surrogate replaces lnkcap's model by one edit
    # of one element, and every reader of the model follows it
    inst, imap = toy_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    prog = dc.lift_to_abstract(
        dc.split_by_entity(layers["physical"], inst.problem.graph)[:1], imap)
    graph = ab.builtin_graph()
    el = graph.elements["lnkcap"]
    graph.elements["lnkcap"] = el._replace(
        model=ex.mul(ex.var("freq"), ex.log2(ex.var("lnksinr"))))
    ab.validate_graph(graph)
    assert ex.render(ab.resolve_model(graph, "lnkcap")) == \
        "freq*log2(lnkpwr*lnkgain/(lnknoise + lnkgain_itf*itfpwr))"
    pen = dc.penalize(prog, "dpl", graph)
    # d/d(itfpwr) of freq*log2(p*g/(n + gi*itfpwr)) = -freq*gi/(ln 2 * (n + gi*itfpwr))
    rng = random.Random(5)
    for _ in range(20):
        theirs = {"freq": 2e5, "lnkpwr": rng.uniform(1, 500),
                  "lnkgain": rng.uniform(1e-6, 1e-4),
                  "lnknoise": rng.uniform(1e-5, 1e-3),
                  "lnkgain_itf": rng.uniform(1e-7, 1e-5)}
        p0, p1, lam = rng.uniform(1, 500), rng.uniform(1, 500), rng.uniform(0, 2)
        env = {f"itf_{k}": v for k, v in theirs.items()}
        env.update({"lbd_itf": lam, "lnkpwr": p1, "lnkpwr_anchor": p0})
        deriv = -theirs["freq"] * theirs["lnkgain_itf"] / (
            math.log(2) * (theirs["lnknoise"] + theirs["lnkgain_itf"] * p0))
        want = lam * deriv * (p1 - p0)
        assert abs(ex.eval_expr(pen.penalty, env) - want) < 1e-9 * max(1, abs(want))


def test_penalization_vanishes_at_anchor(toy_inst):
    inst, imap = toy_inst
    graph = inst.problem.graph
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, graph)
    prog = dc.lift_to_abstract(
        dc.split_by_entity(layers["physical"], graph)[:1], imap)
    for mode in ("gradient", "dpl"):
        pen = dc.penalize(prog, mode, graph)
        env = {v: 1.7 for v in ex.free_vars(pen.penalty)}
        env["lnkpwr"] = env["lnkpwr_anchor"] = 42.0
        assert ex.eval_expr(pen.penalty, env) == 0.0


def test_penalize_transport_has_no_coupling(jocp_inst):
    inst, imap = jocp_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    s0 = dc.split_by_entity(layers["transport"], inst.problem.graph)[0]
    prog = dc.lift_to_abstract([s0], imap)
    pen = dc.penalize(prog, "dpl", inst.problem.graph)
    assert pen.penalty is None and pen.mode == "dpl"


def test_penalize_not_differentiable(toy_inst):
    inst, imap = toy_inst
    dp = dc.dualize(inst)
    graph = ab.builtin_graph()
    layers, _ = dc.split_by_layer(dp, graph)
    prog = dc.lift_to_abstract(
        dc.split_by_entity(layers["physical"], graph)[:1], imap)
    # a coupling model the differentiator cannot handle
    weird = ab.builtin_graph()
    weird.elements["lnkcap"] = weird.elements["lnkcap"]._replace(
        model=ex.bigsum("netlnk", ex.var("itfpwr", "netlnk")))
    with pytest.raises(dc.NotDifferentiable):
        dc.penalize(prog, "dpl", weird)


def test_duals_never_owned(toy_inst, jocp_inst):
    for inst, _ in (toy_inst, jocp_inst):
        dp = dc.dualize(inst)
        layers, _ = dc.split_by_layer(dp, inst.problem.graph)
        for sub in layers.values():
            for e in dc.split_by_entity(sub, inst.problem.graph):
                owned, foreign = _owned_and_foreign([e.objective])
                assert not any(v.startswith("lbd") for v in owned)
                assert all(v.startswith("lbd") for v in foreign)


def _owned_and_foreign(terms):
    """Sorted names of the terms' primal variables, and of their duals."""
    owned = {ex.var_name(b, i) for t in terms for b, i in t.var_pairs if b != dc.LBD}
    foreign = {ex.var_name(b, i) for t in terms for b, i in t.var_pairs
               if b == dc.LBD and i is not None}
    return tuple(sorted(owned)), tuple(sorted(foreign))


SHIPPED = sorted((Path(ab.__file__).parent / "data" / "problems").glob("*.ncp"))


@pytest.mark.parametrize("path", SHIPPED, ids=[p.name for p in SHIPPED])
def test_owned_and_foreign_match_the_terms(toy_inst, path):
    # the variables read off a subproblem's objective's pairs must be the
    # ones of the terms the split put into it
    problem = ab.parse_problem(path.read_text())
    insts = [toy_inst] + [it.instantiate_problem(problem, it.InstanceConfig(seed=seed))
                          for seed in range(16)]
    for inst, _ in insts:
        layers, _ = dc.split_by_layer(dc.dualize(inst), inst.problem.graph)
        for sub in layers.values():
            subs = [sub] + dc.split_by_entity(sub, inst.problem.graph)
            for s in subs:
                terms = ex.level1_terms(s.objective)
                assert _owned_and_foreign([s.objective]) == _owned_and_foreign(terms)
            assert len(subs) > 1


def test_dump_dual_layout(toy_inst):
    inst, _ = toy_inst
    dp = dc.dualize(inst)
    lines = dc.dump_dual(dp).splitlines()
    assert lines[0] == "utility: sesrate_00 + sesrate_01 + sesrate_02"
    assert lines[1].startswith("lbd_00 [netlnk_00]:")
    assert len(lines) == 4

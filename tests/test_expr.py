import random
import re
from pathlib import Path

import pytest

import netnum
from netnum import expr as ex
from netnum.abstraction import builtin_graph, parse_problem, resolve_model


def capacity_model():
    return resolve_model(builtin_graph(), "lnkcap")


def capacity_env(**overrides):
    env = {"freq": 2e5, "lnkpwr": 1.0, "lnkgain": 1.0, "lnknoise": 1e-3,
           "lnkgain_itf": 0.0, "itfpwr": 0.0}
    env.update(overrides)
    return env


def test_eval_zero_power_capacity_is_zero():
    assert ex.eval_expr(capacity_model(), capacity_env(lnkpwr=0.0)) == 0.0


def test_eval_zero_duals_leave_raw_utility():
    e = ex.sub(ex.var("sesrate", 4),
               ex.mul(ex.var("sesrate", 4), ex.add(ex.var("lbd", 9), ex.var("lbd", 0))))
    assert ex.eval_expr(e, {"sesrate_04": 1.0, "lbd_09": 0.0, "lbd_00": 0.0}) == 1.0


def test_eval_capacity_against_high_precision_value():
    # 2e5 * log2(1001), fixed by an arbitrary-precision evaluation
    got = ex.eval_expr(capacity_model(), capacity_env())
    assert abs(got - 1993445.2517671987) / 1993445.2517671987 < 1e-12


def test_eval_unbound_variable():
    with pytest.raises(ex.UnboundVariable):
        ex.eval_expr(ex.var("sesrate", 4), {})


def test_eval_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.eval_expr(ex.ln(ex.var("x")), {"x": -1.0})
    with pytest.raises(ex.DomainError):
        ex.eval_expr(ex.div(ex.ONE, ex.var("x")), {"x": 0.0})


def test_differentiate_identity():
    d = ex.differentiate(ex.var("sesrate", 0), "sesrate_00")
    assert d == ex.ONE


def test_differentiate_product_with_constant_factor():
    d = ex.differentiate(ex.mul(ex.var("sesrate", 0), ex.var("lbd", 9)), "lbd_09")
    assert d == ex.var("sesrate", 0)


def test_differentiate_unsupported_node():
    with pytest.raises(ex.UnsupportedNode):
        ex.differentiate(ex.bigsum("S", ex.var("R", "S")), "R_01")


def _finite_diff(e, env, wrt):
    h = 1e-6 * max(1.0, abs(env[wrt]))
    hi = dict(env, **{wrt: env[wrt] + h})
    lo = dict(env, **{wrt: env[wrt] - h})
    return (ex.eval_expr(e, hi) - ex.eval_expr(e, lo)) / (2 * h)


def test_capacity_derivatives_match_finite_differences():
    model = capacity_model()
    rng = random.Random(1)
    for wrt in ("itfpwr", "lnkpwr"):
        deriv = ex.differentiate(model, wrt)
        for _ in range(50):
            env = {"freq": 2e5, "lnkpwr": rng.uniform(0.5, 900),
                   "lnkgain": rng.uniform(1e-6, 1e-4),
                   "lnknoise": rng.uniform(1e-5, 1e-3),
                   "lnkgain_itf": rng.uniform(1e-7, 1e-5),
                   "itfpwr": rng.uniform(0.5, 900)}
            sym = ex.eval_expr(deriv, env)
            num = _finite_diff(model, env, wrt)
            assert abs(sym - num) / max(1e-12, abs(num)) < 1e-5


def _random_expr(rng, names, depth=0):
    """Random tree over positive variables; func/div arguments are shifted
    positive so every point of the test box is in-domain."""
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return ex.const(rng.uniform(0.1, 3.0))
        return ex.var(rng.choice(names))
    kind = rng.choice(["add", "mul", "neg", "div", "log2", "ln", "sqrt"])
    a = _random_expr(rng, names, depth + 1)
    b = _random_expr(rng, names, depth + 1)
    if kind == "add":
        return ex.add(a, b)
    if kind == "mul":
        return ex.mul(a, b)
    if kind == "neg":
        return ex.neg(a)
    if kind == "div":
        return ex.div(a, ex.add(ex.const(1.0), ex.mul(b, b)))
    return ex.func(kind, ex.add(ex.const(1.0), ex.mul(a, a)))


def test_differentiation_soundness_random_exprs():
    rng = random.Random(7)
    names = ["x", "y", "z"]
    checked = 0
    for _ in range(40):
        e = _random_expr(rng, names)
        for wrt in sorted(ex.free_vars(e)):
            deriv = ex.differentiate(e, wrt)
            for _ in range(5):
                env = {n: rng.uniform(0.2, 2.0) for n in names}
                num = _finite_diff(e, env, wrt)
                sym = ex.eval_expr(deriv, env)
                assert abs(sym - num) / max(1.0, abs(num)) < 1e-5
                checked += 1
    assert checked >= 50


def test_expand_sums_matches_worked_objective():
    e = ex.bigsum("S", ex.var("R", "S"))
    out = ex.expand_sums(e, {"S": [1, 2, 3]})
    assert ex.render(out) == "R_01 + R_02 + R_03"


def test_expand_sums_empty_binding_is_zero():
    assert ex.expand_sums(ex.bigsum("S", ex.var("R", "S")), {"S": []}) == ex.ZERO


def test_expand_sums_subset_binding():
    e = ex.bigsum("S_1", ex.var("R", "S_1"))
    assert ex.render(ex.expand_sums(e, {"S_1": [1, 2]})) == "R_01 + R_02"


def test_expand_sums_unbound_symbol():
    with pytest.raises(ex.UnboundIndexSet):
        ex.expand_sums(ex.bigsum("S", ex.var("R", "S")), {})


def test_expansion_soundness_vs_explicit_loop():
    rng = random.Random(3)
    body = ex.mul(ex.var("a", "S"), ex.add(ex.var("b", "S"), ex.const(2.0)))
    e = ex.add(ex.bigsum("S", body), ex.var("c"))
    members = [0, 3, 5]
    expanded = ex.expand_sums(e, {"S": members})
    for _ in range(20):
        env = {"c": rng.uniform(-2, 2)}
        for i in members:
            env[f"a_{i:02d}"] = rng.uniform(-2, 2)
            env[f"b_{i:02d}"] = rng.uniform(-2, 2)
        explicit = env["c"] + sum(env[f"a_{i:02d}"] * (env[f"b_{i:02d}"] + 2.0)
                                  for i in members)
        assert abs(ex.eval_expr(expanded, env) - explicit) < 1e-12


def test_level1_terms_flat_sum():
    e = ex.add(ex.var("a"), ex.mul(ex.var("b"), ex.var("c")), ex.neg(ex.var("d")))
    terms = ex.level1_terms(e)
    assert [ex.render(t) for t in terms] == ["a", "b*c", "-d"]


def test_level1_terms_partition_property():
    rng = random.Random(11)
    names = ["x", "y", "z"]
    for _ in range(30):
        e = _random_expr(rng, names)
        terms = ex.level1_terms(e)
        for t in terms:
            assert t.kind != "add"
        for _ in range(100 // 10):
            env = {n: rng.uniform(0.2, 2.0) for n in names}
            total = sum(ex.eval_expr(t, env) for t in terms)
            assert abs(total - ex.eval_expr(e, env)) < 1e-9


def _level1_terms_reference(e):
    """level1_terms as the plain recursion it was first written as."""
    if e.kind == "add":
        return [t for c in e.children for t in _level1_terms_reference(c)]
    if e.kind == "neg" and e.children[0].kind == "add":
        return [ex.neg(t) for t in _level1_terms_reference(e.children[0])]
    return [e]


def _raw_sum_tree(rng, depth=0):
    """Random tree built from raw nodes, so that the factories' folding
    leaves in nested sums, negated sums and double negations."""
    if depth >= 4 or rng.random() < 0.25:
        leaf = ex.var(rng.choice("xyz"), rng.randrange(3))
        return leaf if rng.random() < 0.7 else ex.Expr("mul", (ex.const(2.0), leaf))
    kind = rng.choice(["add", "add", "neg", "mul"])
    if kind == "neg":
        return ex.Expr("neg", (_raw_sum_tree(rng, depth + 1),))
    children = tuple(_raw_sum_tree(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    return ex.Expr(kind, children)


def _nodes(e):
    yield e
    for c in e.children:
        yield from _nodes(c)


def test_level1_terms_matches_recursive_reference():
    rng = random.Random(5)
    shapes = {"add in add": 0, "neg of add": 0, "neg of neg": 0}
    for _ in range(300):
        e = _raw_sum_tree(rng)
        for root in (e, ex.Expr("neg", (e,)), ex.Expr("neg", (ex.Expr("neg", (e,)),))):
            assert ex.level1_terms(root) == _level1_terms_reference(root)
            for n in _nodes(root):
                inner = n.children[0].kind if n.children else None
                shapes["add in add"] += n.kind == "add" and any(
                    c.kind == "add" for c in n.children)
                shapes["neg of add"] += n.kind == "neg" and inner == "add"
                shapes["neg of neg"] += n.kind == "neg" and inner == "neg"
    assert min(shapes.values()) > 0, shapes


def test_free_vars():
    assert ex.free_vars(ex.const(5.0)) == set()
    assert ex.free_vars(ex.add(ex.var("x"), ex.var("x"))) == {"x"}


def test_var_pairs_render_like_var_name():
    # a symbolic index counts as unindexed, as var_name renders it
    e = ex.add(ex.var("x", 3), ex.mul(ex.var("lbd", "seslnk"), ex.var("lbd")),
               ex.log2(ex.var("lnkgain_itf", 12)))
    assert e.var_pairs == {("x", 3), ("lbd", None), ("lnkgain_itf", 12)}
    assert ex.free_vars(e) == {"x_03", "lbd", "lnkgain_itf_12"}
    assert ex.const(2.0).var_pairs == frozenset()


def _var_pairs_reference(e):
    """var_pairs as a plain recursion, with a new set at every node."""
    if e.kind == "var":
        return {(e.name, e.index if isinstance(e.index, int) else None)}
    return set().union(*map(_var_pairs_reference, e.children))


def test_var_pairs_matches_recursive_reference():
    # every node of every shipped problem's dual, entity subproblems and
    # templates; a node is read in preorder, so some are read before any
    # node below them and some after
    from netnum import cli, decompose, instantiate
    problems = sorted((Path(netnum.__file__).parent / "data" / "problems").glob("*.ncp"))
    assert len(problems) == 4
    read = 0
    for path in problems:
        problem = parse_problem(path.read_text())
        for seed in range(4):
            programs, dp, _ = cli.build_programs(problem, instantiate.InstanceConfig(seed=seed))
            layers, _ = decompose.split_by_layer(dp, problem.graph)
            roots = [dp.dual]
            for sub in layers.values():
                roots += [e.objective for e in decompose.split_by_entity(sub, problem.graph)]
            for prog in programs.values():
                roots += [prog.objective] + ([prog.penalty] if prog.penalty else [])
            for root in roots:
                for node in _nodes(root):
                    assert node.var_pairs == _var_pairs_reference(node)
                    read += 1
    assert read > 10000


def test_var_pairs_leave_equality_and_hash_alone():
    def build():
        return ex.mul(ex.const(2.0), ex.neg(ex.var("x", 1)))
    a, b = build(), build()
    assert a.var_pairs is a.var_pairs
    assert a.children[1].var_pairs is a.children[1].children[0].var_pairs
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_node_names():
    e = ex.add(ex.var("x", 3), ex.bigsum("seslnk", ex.mul(ex.var("lbd", "seslnk"),
                                                          ex.var("x"))))
    assert ex.node_names(e, "var") == {"x", "lbd"}
    assert ex.node_names(e, "bigsum") == {"seslnk"}
    assert ex.node_names(ex.const(1.0), "var") == set()


def test_free_vars_session4_subproblem(jocp_inst):
    from netnum import decompose as dc
    inst, imap = jocp_inst
    dp = dc.dualize(inst)
    layers, _ = dc.split_by_layer(dp, inst.problem.graph)
    s4 = next(s for s in dc.split_by_entity(layers["transport"], inst.problem.graph)
              if s.entity_index == 4)
    expected = {"sesrate_04"} | {f"lbd_{j:02d}"
                                 for j in (0, 3, 4, 7, 9, 10, 11, 12, 13, 14, 18, 19)}
    assert ex.free_vars(s4.objective) == expected


def _same_float(a, b):
    # repr tells -0.0 from 0.0 and prints every digit of a float
    return type(a) is type(b) and repr(a) == repr(b)


def test_compiled_matches_interpreted():
    rng = random.Random(23)
    names = ["x", "y"]
    for _ in range(20):
        e = _random_expr(rng, names)
        fn = ex.compile_expr(e)
        for _ in range(5):
            env = {n: rng.uniform(0.2, 2.0) for n in names}
            assert _same_float(fn(env), ex.eval_expr(e, env))


def _shipped_objectives():
    """The concrete link and session objectives the simulator solves, for
    every shipped problem, with their derivatives."""
    from netnum import cli, netsim
    out = []
    for path in sorted((Path(netnum.__file__).parent / "data" / "problems").glob("*.ncp")):
        problem = parse_problem(path.read_text())
        programs, _, _ = cli.build_programs(problem)
        net = cli.deploy(problem, programs, netsim.ScenarioConfig(scenario=5))
        netsim._apply_pending(net)
        for kind, idx in (("link", 0), ("link", 7), ("session", 1)):
            program = netsim._get_solver(net, kind, idx).program
            out.append(program.prog.objective)
            out.append(ex.differentiate(program.prog.objective, program.var))
    return out


def test_compiled_matches_interpreted_on_shipped_objectives():
    rng = random.Random(5)
    objectives = _shipped_objectives()
    assert len(objectives) == 4 * 3 * 2
    for e in objectives:
        fn = ex.compile_expr(e)
        names = sorted(ex.free_vars(e))
        for _ in range(10):
            env = {n: rng.uniform(0.0, 30.0) if n.startswith("pwrgain")
                   else rng.uniform(0.01, 3.0) for n in names}
            assert _same_float(fn(env), ex.eval_expr(e, env))


def test_compiled_sum_keeps_eval_expr_signed_zero():
    e = ex.add(ex.var("a"), ex.var("b"))
    env = {"a": -0.0, "b": -0.0}
    assert _same_float(ex.compile_expr(e)(env), ex.eval_expr(e, env))
    assert _same_float(ex.compile_expr(e)(env), 0.0)
    e = ex.mul(ex.var("a"), ex.var("b"), ex.neg(ex.var("a")))
    env = {"a": 0.0, "b": 2.0}
    assert _same_float(ex.compile_expr(e)(env), ex.eval_expr(e, env))


def test_sums_fold_left_from_zero():
    # 0.0 added left to right; 1.0 compensated, as sum() of floats is
    # from Python 3.12 on
    terms = [1e16, 1.0, -1e16]
    e = ex.add(ex.var("a"), ex.var("b"), ex.var("c"))
    env = dict(zip("abc", terms))
    assert _same_float(ex.left_sum(terms), 0.0)
    assert _same_float(ex.eval_expr(e, env), 0.0)
    assert _same_float(ex.compile_expr(e)(env), 0.0)


def test_compiled_merges_equal_subtrees_built_apart():
    def square():
        return ex.mul(ex.var("x"), ex.var("x"))
    # built with Expr(), as add() drops zeros
    e = ex.Expr("add", (square(), ex.neg(square()), ex.const(0.0), ex.const(-0.0)))
    gen = ex.SourceGen()
    gen.emit(e)
    assert len(gen.lines) == 3                  # x*x, its negation, the sum
    assert len(gen.consts) == 2                 # 0.0 and -0.0 stay apart
    env = {"x": 1.5}
    assert _same_float(ex.compile_expr(e)(env), ex.eval_expr(e, env))
    # one argument, four functions: four values
    e = ex.add(*(ex.func(f, ex.var("x")) for f in ("ln", "log2", "sqrt", "exp10")))
    assert _same_float(ex.compile_expr(e)(env), ex.eval_expr(e, env))


def test_source_gen_marks_what_varies_with_a_bound_name():
    # ln(x)*(a+b) + exp10(a) with x bound: a+b and exp10(a) are invariant
    a, b, x = ex.var("a"), ex.var("b"), ex.var("x")
    total, power = ex.add(a, b), ex.exp10(a)
    gen = ex.SourceGen()
    gen.bind("x", "p")
    gen.emit(ex.add(ex.mul(ex.ln(x), total), power))
    assert gen.emit(total) not in gen.varying and gen.emit(power) not in gen.varying
    assert len(gen.lines) == 5
    varying = [name for name, _ in gen.lines if name in gen.varying]
    assert len(varying) == 3                    # ln(x), the product, the sum
    for name, code in gen.lines:
        if name not in gen.varying:
            assert not set(re.findall(r"\w+", code)) & gen.varying


@pytest.mark.parametrize("e, env", [
    (ex.div(ex.var("x"), ex.var("y")), {"x": 1.0, "y": 0.0}),
    (ex.div(ex.var("x"), ex.var("y")), {"x": 1.0, "y": -0.0}),
    # the denominator is checked before the numerator is evaluated
    (ex.div(ex.ln(ex.var("x")), ex.var("y")), {"x": -1.0, "y": 0.0}),
    (ex.div(ex.var("z"), ex.var("y")), {"y": 0.0}),
    (ex.log2(ex.var("x")), {"x": 0.0}),
    (ex.log2(ex.var("x")), {"x": -2.5}),
    (ex.ln(ex.var("x")), {"x": -0.0}),
    (ex.ln(ex.sub(ex.var("x"), ex.ONE)), {"x": 0.5}),
    (ex.sqrt(ex.var("x")), {"x": -1e-300}),
    (ex.add(ex.var("x"), ex.mul(ex.const(2.0), ex.var("sesrate", 4))), {"x": 1.0}),
    (ex.exp10(ex.var("x")), {"x": 400.0}),
], ids=["div-zero", "div-negative-zero", "div-denominator-first", "div-unbound-numerator",
        "log2-zero", "log2-negative", "ln-negative-zero", "ln-negative", "sqrt-negative",
        "unbound", "exp10-overflow"])
def test_compiled_raises_as_interpreted(e, env):
    with pytest.raises(Exception) as interpreted:
        ex.eval_expr(e, env)
    # by name, and by position in the order of env, which names no
    # unbound variable
    for fn, args in ((ex.compile_expr(e), env),
                     (ex.compile_expr(e, tuple(env)), list(env.values()))):
        with pytest.raises(Exception) as compiled:
            fn(args)
        assert type(compiled.value) is type(interpreted.value)
        assert str(compiled.value) == str(interpreted.value)


def _slacks_member_by_member(pairs, env):
    """Each pair's rhs - lhs, rhs first, one pair after another: the
    reference for compile_slacks, by eval_expr and by compile_expr."""
    interpreted = [ex.eval_expr(rhs, env) - ex.eval_expr(lhs, env) for lhs, rhs in pairs]
    compiled = [ex.compile_expr(rhs)(env) - ex.compile_expr(lhs)(env) for lhs, rhs in pairs]
    assert [v.hex() for v in compiled] == [v.hex() for v in interpreted]
    return interpreted


def test_compiled_slacks_match_member_by_member():
    rng = random.Random(31)
    names = ["x", "y"]
    # the pairs share subtrees, and sums that fold to -0.0 or cancel
    shared = ex.mul(ex.var("x"), ex.var("y"))
    pairs = [(_random_expr(rng, names), _random_expr(rng, names)) for _ in range(6)]
    pairs += [(shared, ex.add(shared, ex.ONE)), (ex.var("x"), ex.var("x")),
              (ex.const(0.0), ex.neg(ex.var("x"))), (ex.add(ex.var("x"), ex.const(1e16)),
                                                    ex.const(1e16))]
    fn, by_position = ex.compile_slacks(pairs), ex.compile_slacks(pairs, names)
    for env in [{n: rng.uniform(0.2, 2.0) for n in names} for _ in range(5)] \
            + [{"x": 0.0, "y": -0.0}, {"x": 1.0, "y": 3.0}]:
        want = [v.hex() for v in _slacks_member_by_member(pairs, env)]
        assert [v.hex() for v in fn(env)] == want
        assert [v.hex() for v in by_position([env[n] for n in names])] == want
    assert ex.compile_slacks([])({}) == []
    assert ex.compile_slacks([], ())([]) == []


X, Y = ex.var("x"), ex.var("y")


@pytest.mark.parametrize("pairs", [
    # a later member's unbound variable; the generated function reads it
    # before it computes anything
    [(X, Y), (X, ex.add(Y, ex.var("z")))],
    # a later member's domain error, in its lhs and in its rhs
    [(X, Y), (ex.ln(ex.neg(X)), Y)],
    [(X, Y), (X, ex.div(Y, ex.sub(X, X)))],
    # a domain error in one member and an unbound variable in a later
    # one: the unbound read fails first in the generated function, but
    # the member-by-member loop meets the domain error first
    [(X, ex.sqrt(ex.neg(X))), (ex.var("z"), Y)],
    # an unbound variable in the lhs, a domain error in the rhs: rhs first
    [(ex.var("z"), ex.log2(ex.sub(Y, Y)))],
], ids=["later-unbound", "later-ln", "later-div-zero", "domain-before-unbound",
        "rhs-before-lhs"])
def test_compiled_slacks_raise_as_member_by_member(pairs):
    env = {"x": 2.0, "y": 3.0}
    with pytest.raises(Exception) as reference:
        _slacks_member_by_member(pairs, env)
    for fn, args in ((ex.compile_slacks(pairs), env),
                     (ex.compile_slacks(pairs, tuple(env)), list(env.values()))):
        with pytest.raises(Exception) as compiled:
            fn(args)
        assert type(compiled.value) is type(reference.value)
        assert str(compiled.value) == str(reference.value)


def test_compile_deep_tree():
    e = ex.var("x")
    for _ in range(300):
        e = ex.div(e, ex.var("y"))
    env = {"x": 3.0, "y": 1.01}
    assert _same_float(ex.compile_expr(e)(env), ex.eval_expr(e, env))


def test_render_parenthesization():
    e = ex.mul(ex.add(ex.var("a"), ex.var("b")), ex.var("c"))
    assert ex.render(e) == "(a + b)*c"
    e = ex.div(ex.var("a"), ex.mul(ex.var("b"), ex.var("c")))
    assert ex.render(e) == "a/(b*c)"
    assert ex.render(ex.bigsum("netses", ex.var("sesrate", "netses"))) \
        == "sum(netses: sesrate)"


def test_immutability():
    e = ex.add(ex.var("a"), ex.var("b"))
    with pytest.raises(Exception):
        e.kind = "mul"

import pytest

from netnum import abstraction as ab
from netnum import cli
from netnum import expr as ex
from netnum import netsim as ns

from conftest import JOCP_RATE, JOCP_LOG


@pytest.fixture(scope="module")
def graph():
    return ab.builtin_graph()


def test_builtin_graph_link_attributes(graph):
    assert {"lnkcap", "lnkpwr"} <= graph.out("Link", ab.HAS_ATTR)


def test_builtin_graph_membership_edges(graph):
    assert graph.out("lnkses", ab.MEMBER) == {"Session"}
    assert graph.out("netses", ab.MEMBER) == {"Session"}
    assert graph.out("lnkcap", ab.MEMBER) == set()


def test_builtin_graph_sinr_model_edge(graph):
    assert "lnkpwr" in graph.out("lnksinr", ab.FUNC_OF)


def test_resolved_capacity_model_is_the_sinr_formula(graph):
    m = resolve = ab.resolve_model(graph, "lnkcap")
    assert ex.render(m) == \
        "freq*log2(1 + lnkpwr*lnkgain/(lnknoise + lnkgain_itf*itfpwr))"


def test_read_unknown_element(graph):
    with pytest.raises(ab.UnknownElement):
        graph.out("nosuch", ab.HAS_ATTR)


def test_graph_well_formedness(graph):
    ab.validate_graph(graph)
    bad = ab.builtin_graph()
    bad.add_edge("netses", ab.HAS_ATTR, "Session")
    bad.add_edge("Session", ab.HAS_ATTR, "netses")
    with pytest.raises(ab.ValidationError):
        ab.validate_graph(bad)


def test_member_edge_must_land_on_primitive(graph):
    bad = ab.builtin_graph()
    bad.edges.add(("netses", ab.MEMBER, "netlnk"))
    with pytest.raises(ab.ValidationError):
        ab.validate_graph(bad)


def test_parse_problem_jocp():
    p = ab.parse_problem(JOCP_RATE)
    assert p.sense == "max"
    assert ex.render(p.utility) == "sum(netses: sesrate)"
    assert len(p.constraints) == 1
    assert p.constraints[0].holder == "netlnk"
    assert p.directive == ("dual", "dpl")


def test_parse_problem_missing_utility():
    with pytest.raises(ab.ValidationError):
        ab.parse_problem("var wos_x path=netses.sesrate quant=all,none\n")


def test_parse_problem_line_errors():
    with pytest.raises(ab.ParseError) as err:
        ab.parse_problem("var wos_x path=netses.sesrate quant=all,none\n"
                         "utility max sum(\n")
    assert err.value.line == 2


# (a line of JOCP_LOG, the line with tabs between its words, a bad edit
# with tabs, the error that edit gets with spaces or tabs)
STATEMENT_TABS = [
    ("network adhoc", "network\tadhoc", None, None),
    ("protocol physical cdma", "protocol\tphysical\tcdma", "protocol\tphysical",
     "line 3, col 0: protocol takes <layer> <name>"),
    ("var wos_z path=netlnk.lnkcap quant=every,none",
     "var\twos_z\tpath=netlnk.lnkcap \t quant=every,none",
     "var\twos_x path=netlnk.lnkcap quant=every,none",
     "line 7, col 4: duplicate variable 'wos_x'"),
    ("utility max sum(log(wos_x))", "utility\tmax\t sum(log(wos_x))",
     "utility\tmax\tsum(log(foo))", "line 8, col 20: undeclared variable 'foo'"),
    ("constraint sum(wos_y) <= wos_z", "constraint\tsum(wos_y)\t<=\twos_z",
     "constraint\tsum(wos_y) <= 2*foo", "line 9, col 27: undeclared variable 'foo'"),
    ("decompose cross=dual dist=dpl", "decompose\tcross=dual\tdist=dpl",
     "decompose\tcross=dual dist=foo",
     "line 10, col 0: unsupported distributed method 'foo'"),
]


@pytest.mark.parametrize("line, tabbed, bad, message", STATEMENT_TABS,
                         ids=[line.split()[0] for line, *_ in STATEMENT_TABS])
def test_statement_words_split_on_any_whitespace(line, tabbed, bad, message):
    assert line in JOCP_LOG

    def fields(p):
        return p.varspecs, p.utility, p.sense, p.constraints, p.box_rules, p.directive

    assert fields(ab.parse_problem(JOCP_LOG.replace(line, tabbed))) == \
        fields(ab.parse_problem(JOCP_LOG))
    if bad is None:
        return
    for edit in (bad, bad.replace("\t", " ")):
        with pytest.raises(ab.ParseError) as err:
            ab.parse_problem(JOCP_LOG.replace(line, edit))
        assert str(err.value) == message


def test_utility_swap_changes_only_the_utility():
    a = ab.parse_problem(JOCP_RATE)
    b = ab.parse_problem(JOCP_LOG)
    assert a.utility != b.utility
    assert ex.render(b.utility) == "sum(netses: ln(sesrate))"
    assert [c.lhs for c in a.constraints] == [c.lhs for c in b.constraints]
    assert a.varspecs == b.varspecs
    assert a.directive == b.directive


def test_quantified_paths_end_at_attributes():
    p = ab.parse_problem(JOCP_RATE)
    for spec in p.varspecs.values():
        assert p.graph.element(spec.terminal()).entity == "attribute"


SUM_RATE = "var wos_x path=netses.sesrate quant=all,none\nutility max sum(wos_x)\n"


def test_parse_problem_sum_rate():
    e = ab.parse_problem(SUM_RATE).utility
    assert e == ex.bigsum("netses", ex.var("sesrate", "netses"))


def test_parse_problem_proportional_fairness():
    e = ab.parse_problem(SUM_RATE.replace("sum(wos_x)", "sum(log(wos_x))")).utility
    assert e == ex.bigsum("netses", ex.ln(ex.var("sesrate", "netses")))


def test_parse_problem_malformed_input():
    with pytest.raises(ab.ParseError):
        ab.parse_problem(SUM_RATE.replace("sum(wos_x)", "sum("))


def test_parse_problem_undeclared_variable():
    with pytest.raises(ab.ParseError):
        ab.parse_problem(SUM_RATE.replace("sum(wos_x)", "sum(nope)"))


def test_parentheses_parse_like_the_shipped_utility():
    p = ab.parse_problem(JOCP_LOG.replace("sum(log(wos_x))", "sum(log((wos_x)))"))
    assert p.utility == ab.parse_problem(JOCP_LOG).utility


def test_compare_normalizes_ge_to_le():
    c = ab.compare(ex.var("x"), ">=", ex.const(0.0))
    assert c.lhs == ex.neg(ex.var("x"))
    assert c.rhs == ex.const(0.0)


def test_compare_stores_verbatim():
    lhs = ex.bigsum("lnkses", ex.var("sesrate", "lnkses"))
    rhs = ex.var("lnkcap", "netlnk")
    c = ab.compare(lhs, "<=", rhs, holder="netlnk")
    assert c.lhs == lhs and c.rhs == rhs


# 30 is the stock scenario's own power box; 12 narrows it
@pytest.mark.parametrize("bound", [30.0, 12.0])
def test_maxpwr_bound_lowers_to_a_box_on_every_link_power(bound):
    # BOUND_ALIASES: a bound on a node's maxpwr caps the power of its
    # links, and the bare `all` variable is allowed because it lowers
    src = JOCP_LOG.replace("decompose",
                           "var wos_m path=netnd.maxpwr quant=all,none\n"
                           f"constraint wos_m <= {bound:g}\ndecompose")
    p = ab.parse_problem(src)
    assert p.box_rules == (ab.BoxRule(base="lnkpwr", upper=bound, owner=None),)
    assert len(p.constraints) == 1
    programs, _, _ = cli.build_programs(p)
    net = cli.deploy(p, programs, ns.ScenarioConfig(scenario=2))
    assert [link.power_box for link in net.links] == [(0.0, bound)] * len(net.links)


def test_power_cap_constraint_lowers_to_owned_box_rule():
    src = JOCP_LOG.replace("decompose",
                           "var wos_c path=netses.seslnk.lnkpwr quant=0,all,none\n"
                           "constraint wos_c <= 5\ndecompose")
    p = ab.parse_problem(src)
    assert len(p.constraints) == 1  # the capacity family only
    rule = next(r for r in p.box_rules if r.base == "lnkpwr")
    assert rule.upper == 5.0
    assert rule.owner == ("netses", 0, "seslnk")


def test_rate_bounds_lower_to_box_rules():
    src = ("var wos_x path=netses.sesrate quant=all,none\n"
           "var wos_y path=netlnk.lnkses.sesrate quant=every,all,none\n"
           "utility max sum(wos_x)\n"
           "constraint sum(wos_y) <= 1\n"
           "constraint 0 <= wos_x\nconstraint wos_x <= 1\n"
           "decompose cross=dual dist=best_response\n")
    p = ab.parse_problem(src)
    rules = [r for r in p.box_rules if r.base == "sesrate"]
    assert {(r.lower, r.upper) for r in rules} == {(0.0, None), (None, 1.0)}


def test_all_quantified_variable_must_sit_under_sum():
    src = ("var wos_x path=netses.sesrate quant=all,none\n"
           "utility max wos_x\ndecompose cross=dual dist=dpl\n")
    with pytest.raises(ab.ParseError) as err:
        ab.parse_problem(src)
    assert str(err.value) == \
        "line 2, col 12: sesrate ranges over netses and must appear under sum()"


@pytest.mark.parametrize("old, new, where, message", [
    ("constraint sum(wos_y) <= wos_z", "constraint sum(wos_y) <= 2*foo",
     "line 9, col 27", "undeclared variable 'foo'"),
    ("constraint sum(wos_y) <= wos_z", "constraint sum(wos_y) <= 1e400*wos_z",
     "line 9, col 25", "literal 1e400 is not finite"),
    ("constraint sum(wos_y) <= wos_z", "  constraint  sum(foo) <= wos_z",
     "line 9, col 18", "undeclared variable 'foo'"),
    ("constraint sum(wos_y) <= wos_z", "constraint sum(wos_y) <= wos_z $",
     "line 9, col 31", "unexpected character '$'"),
    ("constraint sum(wos_y) <= wos_z", "constraint sum(wos_y) <= ",
     "line 9, col 24", "expected expression, got 'end of line'"),
    ("utility max sum(log(wos_x))", "utility max sum(log(foo))",
     "line 8, col 20", "undeclared variable 'foo'"),
], ids=["rhs-undeclared", "rhs-literal", "indented", "bad-character", "rhs-missing",
        "utility-undeclared"])
def test_parse_error_columns_count_from_the_line_start(old, new, where, message):
    assert old in JOCP_LOG
    with pytest.raises(ab.ParseError) as err:
        ab.parse_problem(JOCP_LOG.replace(old, new))
    assert str(err.value) == f"{where}: {message}"

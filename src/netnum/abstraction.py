"""Network abstraction: elements, the dependency multigraph, and the
problem DSL.

A network is described by primitive elements (one per physical entity
kind: Node, Link, Session, and their scalar attributes) and virtual
elements (run-time-varying sets of primitives, e.g. the sessions sharing
a link).  Three edge labels relate them:

    has-attribute   parent/child, e.g. Link -> lnkcap
    each-member-is  virtual set -> primitive member kind
    is-function-of  modeled element -> the variables of its model

Control problems are stated over quantified variable paths through this
graph and parsed from a line-oriented DSL (grammar in parse_problem).
"""

from __future__ import annotations

from typing import NamedTuple

from . import expr as ex
from .expr import Expr

LAYERS = ("application", "transport", "network", "datalink", "physical", "none")

HAS_ATTR = "has-attribute"
MEMBER = "each-member-is"
FUNC_OF = "is-function-of"

PENALIZATION_MODES = ("best_response", "gradient", "dpl")


class AbstractionError(Exception):
    pass


class UnknownElement(AbstractionError):
    def __init__(self, name: str):
        super().__init__(f"unknown element: {name}")
        self.name = name


class PathError(AbstractionError):
    pass


class ValidationError(AbstractionError):
    pass


class ParseError(AbstractionError):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Element(NamedTuple):
    """One element of the problem's graph: its kind, entity, layer and model."""
    name: str
    kind: str                  # "primitive" | "virtual"
    entity: str                # "node" | "link" | "session" | "attribute" | "set"
    layer: str = "none"
    scope: str | None = None   # virtual only: "global" | "local"
    mother: str | None = None  # local virtual only: its global mother element
    ctrl: bool = False         # attribute is a run-time decision variable
    model: Expr | None = None  # "is function of" elements


class ElementGraph:
    """The problem's elements by name, and the labelled edges between them."""
    __slots__ = ("elements", "edges")

    def __init__(self) -> None:
        self.elements: dict[str, Element] = {}
        self.edges: set[tuple[str, str, str]] = set()   # (src, label, dst)

    def element(self, name: str) -> Element:
        try:
            return self.elements[name]
        except KeyError:
            raise UnknownElement(name) from None

    def add_element(self, el: Element) -> None:
        if el.name in self.elements:
            raise ValidationError(f"duplicate element: {el.name}")
        self.elements[el.name] = el

    def add_edge(self, src: str, label: str, dst: str) -> None:
        self.element(src), self.element(dst)
        self.edges.add((src, label, dst))

    def out(self, name: str, label: str) -> set[str]:
        self.element(name)
        return {d for (s, lbl, d) in self.edges if s == name and lbl == label}

    def member_of(self, virtual: str) -> str:
        """The primitive element each member of a virtual element is."""
        members = self.out(virtual, MEMBER)
        if len(members) != 1:
            raise ValidationError(f"{virtual} has {len(members)} member edges")
        return next(iter(members))

    def attributes(self, name: str) -> set[str]:
        return self.out(name, HAS_ATTR)


def validate_graph(g: ElementGraph) -> None:
    """Check the three edge-label invariants."""
    for (s, lbl, d) in g.edges:
        if lbl == MEMBER:
            if g.element(s).kind != "virtual" or g.element(d).kind != "primitive":
                raise ValidationError(f"member edge {s}->{d} must be virtual->primitive")
    for el in g.elements.values():
        if el.model is not None:
            targets = g.out(el.name, FUNC_OF)
            if ex.free_vars(el.model) != targets:
                raise ValidationError(
                    f"{el.name}: is-function-of edges disagree with model variables")
    # has-attribute subgraph must be acyclic
    attr_edges: dict[str, set[str]] = {}
    for (s, lbl, d) in g.edges:
        if lbl == HAS_ATTR:
            attr_edges.setdefault(s, set()).add(d)
    state: dict[str, int] = {}

    def visit(n: str) -> None:
        state[n] = 1
        for m in attr_edges.get(n, ()):
            if state.get(m) == 1:
                raise ValidationError(f"has-attribute cycle through {m}")
            if m not in state:
                visit(m)
        state[n] = 2

    for n in g.elements:
        if n not in state:
            visit(n)


# Bounds set on these elements fall through to the variable they cap.
BOUND_ALIASES = {"maxpwr": "lnkpwr"}


def builtin_graph() -> ElementGraph:
    """The stock element graph: nodes, links, sessions, their radio and
    rate attributes, and the global/local set elements over them."""
    g = ElementGraph()
    prim = [
        Element("Node", "primitive", "node"),
        Element("Link", "primitive", "link"),
        Element("Session", "primitive", "session"),
        Element("sesrate", "primitive", "attribute", layer="transport", ctrl=True),
        Element("lnkpwr", "primitive", "attribute", layer="physical", ctrl=True),
        Element("freq", "primitive", "attribute", layer="physical"),
        Element("lnkgain", "primitive", "attribute", layer="physical"),
        Element("lnknoise", "primitive", "attribute", layer="physical"),
        Element("itfpwr", "primitive", "attribute", layer="physical"),
        Element("lnkgain_itf", "primitive", "attribute", layer="physical"),
        Element("maxpwr", "primitive", "attribute", layer="physical"),
    ]
    sinr_model = ex.div(
        ex.mul(ex.var("lnkpwr"), ex.var("lnkgain")),
        ex.add(ex.var("lnknoise"), ex.mul(ex.var("lnkgain_itf"), ex.var("itfpwr"))))
    cap_model = ex.mul(ex.var("freq"), ex.log2(ex.add(ex.ONE, ex.var("lnksinr"))))
    prim.append(Element("lnksinr", "primitive", "attribute", layer="physical",
                        model=sinr_model))
    prim.append(Element("lnkcap", "primitive", "attribute", layer="physical",
                        model=cap_model))
    for el in prim:
        g.add_element(el)

    virt = [
        Element("netnd", "virtual", "set", scope="global"),
        Element("netlnk", "virtual", "set", scope="global"),
        Element("netses", "virtual", "set", scope="global"),
        Element("nbrnd", "virtual", "set", scope="local", mother="netnd"),
        Element("lnkses", "virtual", "set", scope="local", mother="netses"),
        Element("seslnk", "virtual", "set", scope="local", mother="netlnk"),
        Element("lnknd", "virtual", "set", scope="local", mother="netlnk"),
    ]
    for el in virt:
        g.add_element(el)

    for v, m in [("netnd", "Node"), ("netlnk", "Link"), ("netses", "Session"),
                 ("nbrnd", "Node"), ("lnkses", "Session"), ("seslnk", "Link"),
                 ("lnknd", "Link")]:
        g.add_edge(v, MEMBER, m)

    for a in ["lnkcap", "lnkpwr", "lnksinr", "freq", "lnkgain", "lnknoise",
              "itfpwr", "lnkgain_itf", "lnkses"]:
        g.add_edge("Link", HAS_ATTR, a)
    g.add_edge("Session", HAS_ATTR, "sesrate")
    g.add_edge("Session", HAS_ATTR, "seslnk")
    for a in ["Link", "maxpwr", "nbrnd", "lnknd"]:
        g.add_edge("Node", HAS_ATTR, a)

    for t in ["lnkpwr", "lnkgain", "lnknoise", "lnkgain_itf", "itfpwr"]:
        g.add_edge("lnksinr", FUNC_OF, t)
    for t in ["freq", "lnksinr"]:
        g.add_edge("lnkcap", FUNC_OF, t)

    validate_graph(g)
    return g


def resolve_model(graph: ElementGraph, name: str) -> Expr:
    """Fully expanded model of an element: model variables that are
    themselves modeled elements are substituted recursively."""
    el = graph.element(name)
    if el.model is None:
        raise ValidationError(f"{name} has no model")
    m = el.model
    while True:
        sub = {v: graph.elements[v].model for v in ex.free_vars(m)
               if v in graph.elements and graph.elements[v].model is not None}
        if not sub:
            return m
        m = ex.substitute(m, sub)


# ---------------------------------------------------------------------------
# variables and problems

Quant = str  # "all" | "every" | "none" | decimal string of a member index


class VarSpec(NamedTuple):
    """A problem variable: the element path it reads and its quantifiers."""
    name: str
    path: tuple[str, ...]
    quant: tuple[Quant, ...]

    def terminal(self) -> str:
        return self.path[-1]

    def position(self, q: str) -> int | None:
        for i, tok in enumerate(self.quant):
            if tok == q:
                return i
        return None

    def member_select(self) -> tuple[int, int] | None:
        """(path position, member index) of an integer quantifier, if any."""
        for i, tok in enumerate(self.quant):
            if tok.isdigit():
                return i, int(tok)
        return None


def validate_path(graph: ElementGraph, path: tuple[str, ...]) -> None:
    if not path:
        raise PathError("empty path")
    for name in path:
        if name not in graph.elements:
            raise PathError(f"unknown element in path: {name}")
    for a, b in zip(path, path[1:]):
        ea = graph.element(a)
        holder = graph.member_of(a) if ea.kind == "virtual" else a
        if b not in graph.attributes(holder):
            raise PathError(f"{b} is not an attribute reachable from {a}")
    if graph.element(path[-1]).entity != "attribute":
        raise PathError(f"path must end at a scalar attribute, got {path[-1]}")


def validate_varspec(graph: ElementGraph, spec: VarSpec) -> None:
    validate_path(graph, spec.path)
    if len(spec.quant) != len(spec.path):
        raise ValidationError(f"{spec.name}: quantifiers do not align with path")
    if spec.quant[-1] != "none":
        raise ValidationError(f"{spec.name}: terminal quantifier must be none")
    for tok, elname in zip(spec.quant[:-1], spec.path[:-1]):
        if tok not in ("all", "every") and not tok.isdigit():
            raise ValidationError(f"{spec.name}: bad quantifier {tok!r}")
        if graph.element(elname).kind != "virtual":
            raise ValidationError(f"{spec.name}: quantifier on non-set element {elname}")


class Constraint(NamedTuple):
    """One parsed constraint lhs <= rhs, with the element it is held by."""
    lhs: Expr
    rhs: Expr
    holder: str | None  # global element enumerated by an `every` quantifier


class BoxRule(NamedTuple):
    """A bound on every matching instance of a terminal attribute.

    owner narrows the match: ("netses", 0, "seslnk") bounds the attribute
    on the links of session 0 only.
    """
    base: str
    lower: float | None = None
    upper: float | None = None
    owner: tuple[str, int, str] | None = None


class ControlProblem(NamedTuple):
    """A parsed problem file: graph, variables, utility, constraints and rules."""
    graph: ElementGraph
    varspecs: dict[str, VarSpec]
    utility: Expr
    sense: str                      # "max" | "min"
    constraints: tuple[Constraint, ...]
    box_rules: tuple[BoxRule, ...]
    directive: tuple[str, str]      # (cross-layer method, distributed method)

    def control_specs(self) -> list[VarSpec]:
        return [s for s in self.varspecs.values()
                if self.graph.element(s.terminal()).ctrl]


def compare(lhs: Expr, relation: str, rhs: Expr, holder: str | None = None) -> Constraint:
    """Store a constraint verbatim; >= is moved to <= by negating both sides."""
    if relation == ">=":
        lhs, rhs = ex.neg(lhs), ex.neg(rhs)
    elif relation != "<=":
        raise ValidationError(f"unsupported relation: {relation}")
    return Constraint(lhs, rhs, holder)


# ---------------------------------------------------------------------------
# expression templates

class _Tok(NamedTuple):
    kind: str
    text: str
    col: int


def _tokenize(text: str, line: int) -> list[_Tok]:
    """The tokens of one statement line, with their columns in it."""
    toks: list[_Tok] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
        elif c.isdigit() or (c == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
        elif text[i:i + 2] in ("<=", ">="):
            toks.append(_Tok("rel", text[i:i + 2], i))
            i += 2
        elif c in "+-*/(),":
            toks.append(_Tok(c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", line, i)
    toks.append(_Tok("end", "", len(text.rstrip())))
    return toks


_FUNC_NAMES = {"log": "ln", "log2": "log2", "sqrt": "sqrt"}


class _ExprParser:
    """Recursive descent over one statement line, from the token after its
    head word: expr := term (('+'|'-') term)*;
    term := unary (('*'|'/') unary)*; unary := '-' unary | atom;
    atom := NUM | VAR | fn '(' expr ')' | sum '(' expr ')' | '(' expr ')'."""

    def __init__(self, text: str, specs: dict[str, VarSpec],
                 graph: ElementGraph, line: int):
        self.toks = _tokenize(text, line)
        self.pos = 1
        self.specs = specs
        self.graph = graph
        self.line = line
        self.used: set[str] = set()
        # per open sum(, innermost last: the sets its all-quantified
        # references range over, nested sums' included
        self.sums: list[set[str]] = []
        # the first reference outside every sum that must sit under one
        self.bare: ParseError | None = None

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self, kind: str) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != kind:
            raise ParseError(f"expected {kind}, got {t.text or 'end of line'!r}",
                             self.line, t.col)
        self.pos += 1
        return t

    def end(self, e: Expr) -> Expr:
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", self.line, t.col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take(self.peek().kind)
            rhs = self.term()
            e = ex.add(e, rhs) if op.kind == "+" else ex.sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.take(self.peek().kind)
            rhs = self.unary()
            e = ex.mul(e, rhs) if op.kind == "*" else ex.div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.take("-")
            return ex.neg(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.take("num")
            try:
                return ex.const(float(t.text))
            except ValueError:
                raise ParseError(f"malformed number {t.text!r}", self.line, t.col) from None
            except ex.DomainError:
                raise ParseError(f"literal {t.text} is not finite", self.line, t.col) from None
        if t.kind == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        if t.kind == "ident":
            self.take("ident")
            if self.peek().kind == "(":
                if t.text in _FUNC_NAMES:
                    self.take("(")
                    arg = self.expr()
                    self.take(")")
                    return ex.func(_FUNC_NAMES[t.text], arg)
                if t.text == "sum":
                    self.take("(")
                    self.sums.append(set())
                    arg = self.expr()
                    self.take(")")
                    sets = self.sums.pop()
                    if len(sets) != 1:
                        raise ParseError("sum() needs exactly one all-quantified variable",
                                         self.line, t.col)
                    if self.sums:
                        self.sums[-1] |= sets
                    return ex.bigsum(next(iter(sets)), arg)
                raise ParseError(f"unknown function {t.text!r}", self.line, t.col)
            return self._var_ref(t)
        raise ParseError(f"expected expression, got {t.text or 'end of line'!r}",
                         self.line, t.col)

    def _spec(self, tok: _Tok) -> VarSpec:
        if tok.text not in self.specs:
            raise ParseError(f"undeclared variable {tok.text!r}", self.line, tok.col)
        self.used.add(tok.text)
        return self.specs[tok.text]

    def _var_ref(self, tok: _Tok) -> Expr:
        """A variable reference maps to its terminal attribute, symbolically
        indexed by the set its quantifiers walk.  A variable declared with
        an `all` quantifier, or indexed by a local set, ranges over a set
        and is noted in `bare` when no sum() is open around it; an `all`
        one names the set of the innermost sum() open around it."""
        spec = self._spec(tok)
        sym = self._index_symbol(spec)
        pos = spec.position("all")
        if self.sums:
            if pos is not None:
                self.sums[-1].add(spec.path[pos])
        elif self.bare is None and sym is not None and (
                pos is not None or self.graph.element(sym).scope == "local"):
            self.bare = ParseError(
                f"{spec.terminal()} ranges over {sym} and must appear under sum()",
                self.line, tok.col)
        return ex.var(spec.terminal(), sym)

    def _index_symbol(self, spec: VarSpec) -> str | None:
        for q in ("all", "every"):
            pos = spec.position(q)
            if pos is not None:
                return spec.path[pos]
        sel = spec.member_select()
        return None if sel is None else spec.path[sel[0]]


# ---------------------------------------------------------------------------
# problem DSL

def _holder_of(used: set[str], specs: dict[str, VarSpec]) -> str | None:
    holders = {specs[n].path[specs[n].position("every")]
               for n in used if specs[n].position("every") is not None}
    if len(holders) > 1:
        raise ValidationError(
            f"constraint mixes every-quantifiers: {', '.join(sorted(holders))}")
    return next(iter(holders)) if holders else None


def parse_problem(source: str, graph: ElementGraph | None = None) -> ControlProblem:
    """Parse the line-oriented problem DSL.

    Statements (one per line, `#` starts a comment):

        network adhoc
        protocol <layer> <name>
        var <name> path=<e1.e2...> quant=<q1,q2,...>
        utility max|min <expr>
        constraint <expr> <= <expr>       (also >=)
        decompose cross=dual dist=<best_response|gradient|dpl>

    Expressions use identifiers, reals, + - * /, log() log2() sqrt()
    sum() and parentheses.  A variable declared with an `all`
    quantifier, or indexed by a local set, must appear under sum(); this
    is checked per declared variable, so an `every` variable may stand
    alone even when an `all` variable reads the same attribute.  Each
    sum() ranges over the one set that the `all` variables inside it
    name.  A constraint whose one side is a bare variable and whose
    other side is a constant becomes a box bound on every matching
    variable instance rather than a dualized constraint, and is exempt
    from the sum() rule.  `decompose` keys are optional and each may
    appear once; an absent one keeps its default (`dual`, `dpl`).

    `network` and `protocol` lines are checked (a protocol names a layer
    in LAYERS and one protocol) but change nothing that is compiled.

    An error in a statement is a ParseError that names its line, and the
    column where a token is at hand.  Two errors concern the whole file
    and name no line: `missing utility` and `no control variable
    declared` (both ValidationError).
    """
    g = graph if graph is not None else builtin_graph()
    specs: dict[str, VarSpec] = {}
    utility: Expr | None = None
    sense = "max"
    constraints: list[Constraint] = []
    box_rules: list[BoxRule] = []
    directive = ("dual", "dpl")

    for lineno, raw in enumerate(source.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        line = body.strip()
        if not line:
            continue
        # the head word ends at the first run of whitespace, of any kind
        head, *rest = line.split(None, 1)
        rest = rest[0] if rest else ""
        try:
            if head == "network":
                pass    # any name: nothing compiled reads it
            elif head == "protocol":
                parts = rest.split()
                if len(parts) != 2:
                    raise ParseError("protocol takes <layer> <name>", lineno)
                if parts[0] not in LAYERS:
                    raise ParseError(f"unknown layer {parts[0]!r}", lineno)
            elif head == "var":
                parts = rest.split()
                if len(parts) != 3 or not parts[1].startswith("path=") \
                        or not parts[2].startswith("quant="):
                    raise ParseError("var takes <name> path=<...> quant=<...>", lineno)
                name = parts[0]
                if name in specs:
                    raise ParseError(f"duplicate variable {name!r}", lineno,
                                     body.index(name, body.index(head) + len(head)))
                spec = VarSpec(name, tuple(parts[1][5:].split(".")),
                               tuple(parts[2][6:].split(",")))
                validate_varspec(g, spec)
                specs[name] = spec
            elif head == "utility":
                words = rest.split(None, 1)
                if len(words) != 2 or words[0] not in ("max", "min"):
                    raise ParseError("utility takes max|min <expr>", lineno)
                parser = _ExprParser(body, specs, g, lineno)
                parser.take("ident")    # the sense
                utility = parser.end(parser.expr())
                if parser.bare is not None:
                    raise parser.bare
                sense = words[0]
            elif head == "constraint":
                parser = _ExprParser(body, specs, g, lineno)
                lhs = parser.expr()
                rel = parser.peek()
                if rel.kind != "rel":
                    raise ParseError("constraint needs <= or >=", lineno, rel.col)
                parser.take("rel")
                rhs = parser.end(parser.expr())
                lowered = _lower_box(lhs, rel.text, rhs, parser.used, specs)
                if lowered is not None:
                    box_rules.append(lowered)
                elif parser.bare is not None:
                    raise parser.bare
                else:
                    constraints.append(compare(lhs, rel.text, rhs,
                                               _holder_of(parser.used, specs)))
            elif head == "decompose":
                parts = {}
                for word in rest.split():
                    key, eq, value = word.partition("=")
                    if key not in ("cross", "dist") or not eq or key in parts:
                        raise ParseError("decompose takes cross=<method> dist=<method>, "
                                         f"each at most once, got {word!r}", lineno)
                    parts[key] = value
                cross = parts.get("cross", "dual")
                dist = parts.get("dist", "dpl")
                if cross != "dual":
                    raise ParseError(f"unsupported cross-layer method {cross!r}", lineno)
                if dist not in PENALIZATION_MODES:
                    raise ParseError(f"unsupported distributed method {dist!r}", lineno)
                directive = (cross, dist)
            else:
                raise ParseError(f"unknown statement {head!r}", lineno)
        except (PathError, ValidationError) as err:
            raise ParseError(str(err), lineno) from None

    if utility is None:
        raise ValidationError("missing utility")
    problem = ControlProblem(
        graph=g, varspecs=specs, utility=utility, sense=sense,
        constraints=tuple(constraints), box_rules=tuple(box_rules),
        directive=directive)
    if not problem.control_specs():
        raise ValidationError("no control variable declared")
    return problem


def _lower_box(lhs: Expr, rel: str, rhs: Expr, used: set[str],
               specs: dict[str, VarSpec]) -> BoxRule | None:
    """constraint <bare var> <= <const> (and mirrored/>= forms) becomes a
    hard per-instance bound instead of a dual-decomposed constraint."""
    if lhs.kind == "var" and rhs.kind == "const":
        v, c, kind = lhs, rhs.value, ("upper" if rel == "<=" else "lower")
    elif rhs.kind == "var" and lhs.kind == "const":
        v, c, kind = rhs, lhs.value, ("lower" if rel == "<=" else "upper")
    else:
        return None
    spec = next(s for s in (specs[n] for n in used) if s.terminal() == v.name)
    owner = None
    sel = spec.member_select()
    if sel is not None:
        pos, idx = sel
        if pos + 2 >= len(spec.path):
            raise ValidationError(f"{spec.name}: member selection needs a set below it")
        owner = (spec.path[pos], idx, spec.path[pos + 1])
    base = BOUND_ALIASES.get(v.name, v.name)
    return BoxRule(base=base,
                   lower=c if kind == "lower" else None,
                   upper=c if kind == "upper" else None,
                   owner=owner)

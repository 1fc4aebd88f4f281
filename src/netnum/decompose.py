"""Lagrangian dual construction and its split into per-layer, per-entity
control programs.

The dual of an instantiated problem absorbs each constraint j with a
multiplier lbd_NN, distributing it over the constraint's additive terms
so every level-1 term of the dual is either a utility term or a
(primal term x lambda) product.  Splitting walks those terms: first by
the protocol layer of the primal variable, then by its entity index; a
subproblem's owned and foreign variables are read off its objective.
Each per-entity subproblem is then lifted back to an abstract template
by erasing the entity index and recognizing its lambda index set as the
instance of one local set element -- the element the entity must collect
dual values from at run time.  The lift rewrites each term once, and
finds the decision by walking the graph's models, not by resolving them.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple

from . import expr as ex
from .abstraction import HAS_ATTR, ControlProblem, ElementGraph, resolve_model
from .expr import Expr
from .instantiate import InstanceMap, InstantiatedProblem

LBD = "lbd"

# foreign-agent alias -> the local decision variable it mirrors
FOREIGN_ALIASES = {"itfpwr": "lnkpwr"}

PENALIZATION_MODES = ("best_response", "gradient", "dpl")


class DecomposeError(Exception):
    pass


class AmbiguousLayer(DecomposeError):
    pass


class AmbiguousEntity(DecomposeError):
    pass


class NoMatchingElement(DecomposeError):
    pass


class NotDifferentiable(DecomposeError):
    pass


class DualVar(NamedTuple):
    """One dual variable: its name, family, holder member and constraint."""
    name: str          # lbd_NN
    index: int
    family: int        # ordinal of the originating abstract constraint
    label: str         # instantiated constraint label, e.g. netlnk_03
    holder: str | None
    member: int | None # holder member the constraint belongs to
    lhs: Expr
    rhs: Expr


class DualProblem(NamedTuple):
    """The dualized problem: its Lagrangian and the registry of its duals."""
    dual: Expr
    registry: list[DualVar]
    sense: str                      # sense of the original problem
    inst: InstantiatedProblem


def _family_of(label: str) -> tuple[str | None, int | None]:
    if label == "global":
        return None, None
    holder, _, member = label.rpartition("_")
    return holder, int(member)


def dualize(inst: InstantiatedProblem) -> DualProblem:
    """Absorb constraints into the utility: dual = utility + sum_j
    lbd_j*(rhs_j - lhs_j), with each product distributed over the
    constraint's additive terms.  Minimize-sense utilities are negated so
    the dual is always maximized."""
    utility = inst.utility if inst.sense == "max" else ex.neg(inst.utility)
    terms = list(ex.level1_terms(utility))
    registry: list[DualVar] = []

    for j, c in enumerate(inst.constraints):
        lam = ex.var(LBD, j)
        holder, member = _family_of(c.label)
        registry.append(DualVar(ex.var_name(LBD, j), j, _abstract_ordinal(inst, j),
                                c.label, holder, member, c.lhs, c.rhs))
        for t in ex.level1_terms(c.rhs):
            terms.append(_term_times(t, lam))
        for t in ex.level1_terms(c.lhs):
            terms.append(ex.neg(_term_times(t, lam)))
    return DualProblem(ex.add(*terms), registry, inst.sense, inst)


def _abstract_ordinal(inst: InstantiatedProblem, j: int) -> int:
    """Ordinal of the abstract constraint that expanded to instance j."""
    count = 0
    for ordinal, c in enumerate(inst.problem.constraints):
        n = len(inst.imap.glb[c.holder]) if c.holder is not None else 1
        if j < count + n:
            return ordinal
        count += n
    raise DecomposeError(f"constraint index {j} out of range")


def _term_times(t: Expr, lam: Expr) -> Expr:
    if t.kind == "neg":
        return ex.neg(ex.mul(t.children[0], lam))
    return ex.mul(t, lam)


class Subproblem(NamedTuple):
    """One layer's or entity's share of the dual, and the variables it owns."""
    layer: str
    objective: Expr
    sense: str
    entity_kind: str | None = None
    entity_index: int | None = None
    dual: DualProblem | None = None

    @property
    def owned(self) -> tuple[str, ...]:
        """Sorted names of the objective's primal variables."""
        return tuple(sorted({ex.var_name(*p) for p in _primal_bases(self.objective)}))

    @property
    def foreign(self) -> tuple[str, ...]:
        """Sorted names of the objective's duals."""
        return tuple(sorted(ex.var_name(LBD, j) for j in _lbd_indices(self.objective)))


def _primal_bases(term: Expr) -> list[tuple[str, int | None]]:
    return [pair for pair in term.var_pairs if pair[0] != LBD]


def _lbd_indices(term: Expr) -> list[int]:
    return sorted(i for base, i in term.var_pairs if base == LBD and i is not None)


def split_by_layer(dp: DualProblem, graph: ElementGraph,
                   ) -> tuple[dict[str, Subproblem], list[Expr]]:
    """Assign every level-1 term of the dual to the protocol layer of its
    primal variable.  Lambda-only terms take the layer of the constraint's
    rhs element; with a constant rhs they go to the residual bucket, which
    belongs to the dual-update step rather than any primal subproblem."""
    buckets: dict[str, list[Expr]] = {}
    residual: list[Expr] = []
    for term in ex.level1_terms(dp.dual):
        pairs = term.var_pairs
        layers = {graph.element(b).layer for b, _ in pairs if b != LBD}
        if len(layers) > 1:
            raise AmbiguousLayer(f"term {ex.render(term)} mixes layers {layers}")
        if layers:
            buckets.setdefault(next(iter(layers)), []).append(term)
            continue
        # every variable left is a dual
        rhs_layers = {graph.element(b).layer for _, j in pairs if j is not None
                      for b, _ in _primal_bases(dp.registry[j].rhs)}
        if len(rhs_layers) > 1:
            raise AmbiguousLayer(f"term {ex.render(term)}: rhs spans {rhs_layers}")
        if rhs_layers:
            buckets.setdefault(next(iter(rhs_layers)), []).append(term)
        else:
            residual.append(term)  # constant term, or constant-rhs lambda term
    subs = {}
    for layer, terms in buckets.items():
        subs[layer] = Subproblem(layer, ex.add(*terms), "max", dual=dp)
    return subs, residual


def _entity_kinds(graph: ElementGraph) -> Callable[[str], str]:
    """The entity kind of a base: the entity of its one has-attribute
    holder.  The holders are read from graph.edges as they stand now."""
    holders: dict[str, list[str]] = {}
    for s, lbl, d in graph.edges:
        if lbl == HAS_ATTR:
            holders.setdefault(d, []).append(s)

    def kind_of(base: str) -> str:
        found = holders.get(base, ())
        if len(found) == 1:
            return graph.element(found[0]).entity
        raise AmbiguousEntity(f"{base} has {len(found)} holders")

    return kind_of


def split_by_entity(sub: Subproblem, graph: ElementGraph) -> list[Subproblem]:
    """Group a layer subproblem's terms by the entity index of their primal
    variable."""
    kind_of = _entity_kinds(graph)
    groups: dict[tuple[str, int], list[Expr]] = {}
    for term in ex.level1_terms(sub.objective):
        keys = {(kind_of(b), i) for b, i in term.var_pairs
                if i is not None and b != LBD}
        if len(keys) != 1:
            raise AmbiguousEntity(
                f"term {ex.render(term)} references entities {sorted(keys)}")
        groups.setdefault(next(iter(keys)), []).append(term)
    out = []
    for (kind, idx), terms in groups.items():
        out.append(Subproblem(sub.layer, ex.add(*terms), sub.sense, kind, idx,
                              sub.dual))
    return out


class CollectionRule(NamedTuple):
    """Which constraint family's duals a program collects, and under what name."""
    symbol: str   # local element name, or "self" for the entity's own dual
    family: int   # ordinal of the abstract constraint supplying the values


class ControlProgram(NamedTuple):
    """A lifted per-entity subproblem template plus the identity of the
    dual coefficients it must collect at run time."""
    layer: str
    entity_kind: str
    objective: Expr            # over unindexed symbols and lambda sums
    sense: str
    decision: str              # decision variable base name
    collect: tuple[CollectionRule, ...]
    mode: str = "best_response"
    penalty: Expr | None = None  # per-foreign-entity template (gradient/dpl)


def _replace_vars(e: Expr, subs: dict[tuple[str, int | str | None], Expr]) -> Expr:
    """e with every variable whose (base, index) is in subs replaced, in
    one rewrite; unchanged subtrees come back as they are."""
    if e.kind == "var":
        return subs.get((e.name, e.index), e)
    if not e.children:
        return e
    children = [subs.get((c.name, c.index), c) if c.kind == "var"
                else _replace_vars(c, subs) for c in e.children]
    if all(map(operator.is_, children, e.children)):
        return e
    return Expr(e.kind, tuple(children), e.value, e.name, e.index)


_SIGMA = ex.var(LBD, "sigma")


def lift_to_abstract(sub: Subproblem, m: InstanceMap) -> ControlProgram:
    """Replace indexed variables by unindexed symbols and the lambda index
    set by a sum over the local element it instantiates.

    A term with one dual lifts to its shape: the term with the entity's
    own variables unindexed and the dual replaced by sigma.  Terms whose
    shapes are equal trees form one group, and each group collects one
    dual family.  Shapes are compared as trees, not as rendered text, so
    two that render alike but nest differently (x*(y*lbd_1) and
    x*y*lbd_2) are two groups."""
    if sub.entity_index is None or sub.dual is None:
        raise NoMatchingElement("only entity subproblems lift")
    graph = sub.dual.inst.problem.graph
    kind, idx = sub.entity_kind, sub.entity_index
    kind_of = _entity_kinds(graph)

    # the entity's own variables lose their index and each dual becomes
    # sigma, so a term with one dual lifts to its shape
    pairs = sub.objective.var_pairs
    own = sorted(b for b, i in pairs if i == idx and b != LBD)
    erase = {(b, idx): ex.var(b, None) for b in own if kind_of(b) == kind}
    erase.update(((b, j), _SIGMA) for b, j in pairs if b == LBD and j is not None)

    # group terms by shape, compared as trees; each shape becomes one
    # template term
    groups: dict[Expr, list[int]] = {}
    template_terms: list[Expr] = []
    for term in ex.level1_terms(sub.objective):
        lbds = [i for b, i in term.var_pairs if b == LBD and i is not None]
        if not lbds:
            template_terms.append(_replace_vars(term, erase))
            continue
        if len(lbds) != 1:
            raise NoMatchingElement(f"term {ex.render(term)} has {len(lbds)} duals")
        groups.setdefault(_replace_vars(term, erase), []).append(lbds[0])

    rules: list[CollectionRule] = []
    for shape, indices in groups.items():
        indices.sort()
        families = {sub.dual.registry[j].family for j in indices}
        if len(families) != 1:
            raise NoMatchingElement(
                f"dual group {indices} spans constraint families {families}")
        family = next(iter(families))
        members = sorted({sub.dual.registry[j].member for j in indices})
        rule, lam = _identify_collection(sub, m, graph, indices, members, family)
        template_terms.append(_replace_vars(shape, {(LBD, _SIGMA.index): lam}))
        rules.append(rule)

    objective = ex.add(*template_terms)
    decision = _decision_base(objective, graph)
    return ControlProgram(sub.layer, kind, objective, "max", decision,
                          tuple(rules))


def _identify_collection(sub: Subproblem, m: InstanceMap, graph: ElementGraph,
                         indices: list[int], members: list[int], family: int,
                         ) -> tuple[CollectionRule, Expr]:
    """The lambda index set must be the instance of one local element for
    this entity (bijectivity makes the match unique), or the entity's own
    dual."""
    reg = sub.dual.registry
    holder = reg[indices[0]].holder
    member_set = tuple(members)
    for fam in m.lcl.values():
        if fam.mother != holder:
            continue
        inst = fam.instances.get(sub.entity_index)
        if inst is not None and tuple(inst) == member_set \
                and graph.member_of(fam.holder) == _primitive_of(graph, sub.entity_kind):
            lam = ex.bigsum(fam.name, ex.var(LBD, fam.name))
            return CollectionRule(fam.name, family), lam
    if member_set == (sub.entity_index,) and holder is not None \
            and graph.element(graph.member_of(holder)).entity == sub.entity_kind:
        return CollectionRule("self", family), ex.var(LBD, "self")
    raise NoMatchingElement(
        f"dual index set {member_set} matches no local-element instance "
        f"for {sub.entity_kind} {sub.entity_index}")


def _primitive_of(graph: ElementGraph, entity_kind: str) -> str:
    for el in graph.elements.values():
        if el.kind == "primitive" and el.entity == entity_kind:
            return el.name
    raise NoMatchingElement(f"no primitive of kind {entity_kind}")


def _decision_base(objective: Expr, graph: ElementGraph) -> str:
    """The controllable variable of a template: a ctrl element appearing
    directly, else the ctrl variable inside a modeled element's model."""
    bases = ex.node_names(objective, "var") - {LBD}
    direct = sorted(b for b in bases
                    if b in graph.elements and graph.element(b).ctrl)
    if direct:
        return direct[0]
    for b in sorted(bases):
        if b in graph.elements and graph.element(b).model is not None:
            inner = {n for n in _model_leaves(graph, b)
                     if n in graph.elements and graph.element(n).ctrl}
            if inner:
                return sorted(inner)[0]
    raise NoMatchingElement(f"no decision variable in template over {sorted(bases)}")


def _model_leaves(graph: ElementGraph, name: str) -> set[str]:
    """The free variables of resolve_model(graph, name), found by walking
    the models down to their unmodelled variables."""
    leaves = set()
    for v in ex.free_vars(graph.element(name).model):
        modelled = v in graph.elements and graph.elements[v].model is not None
        leaves |= _model_leaves(graph, v) if modelled else {v}
    return leaves


def _distribute(e: Expr) -> Expr:
    """Distribute products and negations over embedded sums (the inverse of
    the lift's lambda factoring)."""
    if e.kind == "neg":
        inner = _distribute(e.children[0])
        if inner.kind == "add":
            return ex.add(*(ex.neg(t) for t in inner.children))
        return ex.neg(inner)
    if e.kind == "add":
        return ex.add(*(_distribute(c) for c in e.children))
    if e.kind == "mul":
        cs = [_distribute(c) for c in e.children]
        for i, c in enumerate(cs):
            if c.kind == "add":
                return ex.add(*(_distribute(ex.mul(*cs[:i], t, *cs[i + 1:]))
                                for t in c.children))
        return ex.mul(*cs)
    return e


def reinstantiate(prog: ControlProgram, m: InstanceMap, entity_index: int,
                  dp: DualProblem) -> Expr:
    """Expand a lifted template back to the concrete entity subproblem;
    exact inverse of lift_to_abstract for every shipped family."""
    graph = dp.inst.problem.graph
    bindings = {}
    subs: dict[tuple[str, int | str | None], Expr] = {}
    for rule in prog.collect:
        lbd_of = {dv.member: dv.index for dv in dp.registry if dv.family == rule.family}
        if rule.symbol == "self":
            subs[(LBD, "self")] = ex.var(LBD, lbd_of[entity_index])
        else:
            fam = m.family(rule.symbol)
            bindings[rule.symbol] = [lbd_of[j] for j in fam.instances[entity_index]]
    e = _distribute(ex.expand_sums(prog.objective, bindings))
    # restore the entity index on unindexed primal variables
    kind_of = _entity_kinds(graph)
    subs.update(((b, None), ex.var(b, entity_index)) for b, i in e.var_pairs
                if b != LBD and i is None and b in graph.elements
                and kind_of(b) == prog.entity_kind)
    return _replace_vars(e, subs)


def penalize(prog: ControlProgram, mode: str, graph: ElementGraph) -> ControlProgram:
    """Attach the distributed-decomposition mode.

    best_response leaves the objective untouched (zero signaling).  For
    gradient and dpl the per-foreign-entity penalty linearizes the
    foreign utilities around the current point: lbd_itf * d(model)/d(alias)
    * (own - own_anchor), with the derivative taken symbolically from the
    coupling model.  gradient additionally replaces the own term by its
    first-order model at solve time (dual update handled identically).
    """
    if mode not in PENALIZATION_MODES:
        raise DecomposeError(f"unknown penalization mode {mode!r}")
    if mode == "best_response":
        return prog._replace(mode=mode, penalty=None)
    alias = next((a for a, own in FOREIGN_ALIASES.items() if own == prog.decision),
                 None)
    if alias is None:
        return prog._replace(mode=mode, penalty=None)
    coupled = [el.name for el in graph.elements.values()
               if el.model is not None and alias in _model_leaves(graph, el.name)]
    if not coupled:
        return prog._replace(mode=mode, penalty=None)
    model = resolve_model(graph, sorted(coupled)[0])
    try:
        deriv = ex.differentiate(model, alias)
    except ex.UnsupportedNode as err:
        raise NotDifferentiable(str(err)) from None
    own = ex.var(prog.decision)
    anchor = ex.var(f"{prog.decision}_anchor")
    # the derivative is evaluated at the anchor: our decision enters the
    # foreign model as the alias variable, and the foreign model's own
    # parameters get an itf_ prefix so they cannot clash with ours
    deriv_at_anchor = ex.substitute(deriv, {alias: anchor})
    foreign = {v: ex.var(f"itf_{v}") for v in ex.free_vars(deriv_at_anchor)
               if v != f"{prog.decision}_anchor"}
    deriv_at_anchor = ex.substitute(deriv_at_anchor, foreign)
    penalty = ex.mul(ex.var("lbd_itf"), deriv_at_anchor, ex.sub(own, anchor))
    return prog._replace(mode=mode, penalty=penalty)


def dump_dual(dp: DualProblem) -> str:
    """Text layout of the dual: the utility terms, then one line per
    constraint with its absorbed terms."""
    utility_terms = []
    per_cstr: dict[int, list[Expr]] = {dv.index: [] for dv in dp.registry}
    for term in ex.level1_terms(dp.dual):
        lbds = _lbd_indices(term)
        if lbds:
            per_cstr[lbds[0]].append(term)
        else:
            utility_terms.append(term)
    lines = [f"utility: {ex.render(ex.add(*utility_terms))}"]
    for dv in dp.registry:
        lines.append(f"{dv.name} [{dv.label}]: "
                     f"{ex.render(ex.add(*per_cstr[dv.index]))}")
    return "\n".join(lines) + "\n"


def dump_program(prog: ControlProgram) -> str:
    lines = [
        f"layer: {prog.layer}",
        f"entity: {prog.entity_kind}",
        f"objective: {prog.sense} {ex.render(prog.objective)}",
        f"decision: {prog.decision}",
        f"collect: {', '.join(f'{r.symbol}#{r.family}' for r in prog.collect) or 'none'}",
        f"mode: {prog.mode}",
    ]
    if prog.penalty is not None:
        lines.append(f"penalty: {ex.render(prog.penalty)}")
    return "\n".join(lines) + "\n"

"""Lagrangian dual construction and its split into per-layer, per-entity
control programs.

The dual of an instantiated problem absorbs each constraint j with a
multiplier lbd_NN, distributing it over the constraint's additive terms
so every level-1 term of the dual is either a utility term or a
(primal term x lambda) product.  The instantiated constraints are the
registry of the duals: each names its abstract constraint (family),
holder and holder member.  Splitting walks those terms: first by
the protocol layer of the primal variable, then by its entity index.
A term with no indexed primal variable and one dual belongs to the
holder member of that dual's constraint.  A layer's entity subproblems
are then lifted, in one call, back to one abstract template: each
entity's index is erased and its lambda index set is recognized as the
instance of one local set element -- the element the entity must
collect dual values from at run time.  Facts about the layer (each
base's entity kind, read from its element's holder, the entity kind of
each global element's members, the decision) are found once per call;
every entity is still rewritten and compared with the first, which is
the check that the instantiation is a bijection.  The lift rewrites each term once, by a substitution built
from that term's own (base, index) pairs, into unindexed variables that
the whole layer shares; it finds the decision by walking the graph's
models, not by resolving them.  The splits read each term's pairs in a
plain loop and build a set only to word an error.
"""

from __future__ import annotations

from typing import NamedTuple

from . import expr as ex
from .abstraction import PENALIZATION_MODES, ElementGraph, resolve_model
from .expr import Expr
from .instantiate import InstanceMap, InstantiatedProblem, InstConstraint

LBD = "lbd"

# foreign-agent alias -> the local decision variable it mirrors
FOREIGN_ALIASES = {"itfpwr": "lnkpwr"}


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


class TemplatesDiffer(DecomposeError):
    """Two entities of one layer lift to different templates."""


class DualProblem(NamedTuple):
    """The dualized problem: its Lagrangian and the registry of its duals,
    the instantiated constraints: dual j (lbd_j) absorbs registry[j]."""
    dual: Expr
    registry: list[InstConstraint]
    inst: InstantiatedProblem


def dualize(inst: InstantiatedProblem) -> DualProblem:
    """Absorb constraints into the utility: dual = utility + sum_j
    lbd_j*(rhs_j - lhs_j), with each product distributed over the
    constraint's additive terms.  The utility is in maximize sense (the
    parser stores `min U` as -U), so the dual is maximized."""
    terms = list(ex.level1_terms(inst.utility))
    for j, c in enumerate(inst.constraints):
        lam = ex.var(LBD, j)
        for t in ex.level1_terms(c.rhs):
            terms.append(_term_times(t, lam))
        for t in ex.level1_terms(c.lhs):
            terms.append(ex.neg(_term_times(t, lam)))
    return DualProblem(ex.add(*terms), inst.constraints, inst)


def _term_times(t: Expr, lam: Expr) -> Expr:
    if t.kind == "neg":
        return ex.neg(ex.mul(t.children[0], lam))
    return ex.mul(t, lam)


class Subproblem(NamedTuple):
    """One layer's or entity's share of the dual."""
    layer: str
    objective: Expr
    entity_kind: str | None = None
    entity_index: int | None = None
    dual: DualProblem | None = None


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
    layer_of = {name: el.layer for name, el in graph.elements.items()}
    buckets: dict[str, list[Expr]] = {}
    residual: list[Expr] = []
    for term in ex.level1_terms(dp.dual):
        pairs = term.var_pairs
        layer = None
        for b, _ in pairs:
            if b != LBD:
                if layer is None:
                    layer = layer_of[b]
                elif layer_of[b] != layer:
                    layers = sorted({layer_of[b] for b, _ in pairs if b != LBD})
                    raise AmbiguousLayer(
                        f"term {ex.render(term)} mixes layers {', '.join(layers)}")
        if layer is not None:
            buckets.setdefault(layer, []).append(term)
            continue
        # every variable left is a dual
        rhs_layers = {layer_of[b] for _, j in pairs if j is not None
                      for b, _ in _primal_bases(dp.registry[j].rhs)}
        if len(rhs_layers) > 1:
            raise AmbiguousLayer(
                f"term {ex.render(term)}: rhs spans {', '.join(sorted(rhs_layers))}")
        if rhs_layers:
            buckets.setdefault(next(iter(rhs_layers)), []).append(term)
        else:
            residual.append(term)  # constant term, or constant-rhs lambda term
    subs = {}
    for layer, terms in buckets.items():
        subs[layer] = Subproblem(layer, ex.add(*terms), dual=dp)
    return subs, residual


class _EntityKinds(dict):
    """base -> entity kind; a base with no holder raises AmbiguousEntity
    when it is looked up."""
    __slots__ = ()

    def __missing__(self, base: str) -> str:
        raise AmbiguousEntity(f"{base} has no holder")


def _entity_kinds(graph: ElementGraph) -> _EntityKinds:
    """The entity kind of each base: the entity of its has-attribute
    holder, read from the graph's elements as they stand now."""
    return _EntityKinds((name, graph.element(el.holder).entity)
                        for name, el in graph.elements.items() if el.holder is not None)


def _member_kind(graph: ElementGraph, virtual: str) -> str:
    """The entity kind of a virtual element's members."""
    return graph.element(graph.member_of(virtual)).entity


def split_by_entity(sub: Subproblem, graph: ElementGraph) -> list[Subproblem]:
    """Group a layer subproblem's terms by the entity index of their primal
    variable.  A term with no indexed primal variable and one dual goes to
    the holder member of that dual's constraint."""
    kinds = _entity_kinds(graph)
    holder_kinds: dict[str, str] = {}
    groups: dict[tuple[str, int], list[Expr]] = {}
    for term in ex.level1_terms(sub.objective):
        pairs = term.var_pairs
        key = None      # () once a second entity shows up
        for b, i in pairs:
            if i is not None and b != LBD:
                if key is None:
                    key = (kinds[b], i)
                elif key != (kinds[b], i):
                    key = ()
        if key is None and sub.dual is not None:
            lbds = [j for b, j in pairs if b == LBD and j is not None]
            c = sub.dual.registry[lbds[0]] if len(lbds) == 1 else None
            if c is not None and c.holder is not None:
                if c.holder not in holder_kinds:
                    holder_kinds[c.holder] = _member_kind(graph, c.holder)
                key = (holder_kinds[c.holder], c.member)
        if not key:
            keys = {(kinds[b], i) for b, i in pairs if i is not None and b != LBD}
            raise AmbiguousEntity(
                f"term {ex.render(term)} references entities {sorted(keys)}")
        groups.setdefault(key, []).append(term)
    out = []
    for (kind, idx), terms in groups.items():
        out.append(Subproblem(sub.layer, ex.add(*terms), kind, idx, sub.dual))
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
    objective: Expr            # over unindexed symbols and lambda sums, maximized
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
    children = []
    changed = False
    for c in e.children:
        new = subs.get((c.name, c.index), c) if c.kind == "var" else _replace_vars(c, subs)
        if new is not c:
            changed = True
        children.append(new)
    return Expr(e.kind, tuple(children), e.value, e.name, e.index) if changed else e


_SIGMA = ex.var(LBD, "sigma")


def lift_to_abstract(entities: list[Subproblem], m: InstanceMap) -> ControlProgram:
    """Lift one layer's entity subproblems, as split_by_entity returns
    them, to the layer's one template: indexed variables become unindexed
    symbols, and each lambda index set a sum over the local element it
    instantiates.

    The entity kind of each base and of each global element's members,
    one unindexed variable per base and the template's decision belong
    to the layer and are found once.  Every entity is still rewritten and
    matched, and its template and collection rules must equal the first
    entity's; the instantiation is a bijection only if they do.

    A term with one dual lifts to its shape: the term with the entity's
    own variables unindexed and the dual replaced by sigma.  Terms whose
    shapes are equal trees form one group, and each group collects one
    dual family; a rule collected by two groups is kept once.  Shapes are
    compared as trees, not as rendered text, so two that render alike but
    nest differently (x*(y*lbd_1) and x*y*lbd_2) are two groups."""
    if not entities or any(s.entity_index is None or s.dual is None for s in entities):
        raise NoMatchingElement("only entity subproblems lift")
    first = entities[0]
    graph = first.dual.inst.problem.graph
    kinds = _entity_kinds(graph)
    member_kinds = {name: _member_kind(graph, name) for name in m.glb}
    # every entity's own variables lift to these nodes, so equal shapes
    # of two entities share their leaves and compare by identity there
    unindexed = {b: ex.var(b) for b in kinds}
    # each (shape, collected symbol) becomes a template term once per layer
    finished: dict[tuple[Expr, str], Expr] = {}
    template = _lift_entity(first, m, kinds, member_kinds, unindexed, finished)
    for sub in entities[1:]:
        if _lift_entity(sub, m, kinds, member_kinds, unindexed, finished) != template:
            raise TemplatesDiffer(f"{first.layer}: entity templates differ")
    objective, collect = template
    return ControlProgram(first.layer, first.entity_kind, objective,
                          _decision_base(objective, graph), collect)


def _lift_entity(sub: Subproblem, m: InstanceMap, kinds: dict[str, str],
                 member_kinds: dict[str, str], unindexed: dict[str, Expr],
                 finished: dict[tuple[Expr, str], Expr],
                 ) -> tuple[Expr, tuple[CollectionRule, ...]]:
    """One entity's template objective and collection rules."""
    kind, idx = sub.entity_kind, sub.entity_index
    registry = sub.dual.registry

    # each term's own variables lose their index and each dual becomes
    # sigma, so a term with one dual lifts to its shape; terms are
    # grouped by shape, compared as trees, and each shape becomes one
    # template term
    groups: dict[Expr, list[int]] = {}
    template_terms: list[Expr] = []
    for term in ex.level1_terms(sub.objective):
        erase: dict[tuple[str, int | str | None], Expr] = {}
        lbds = []
        for b, i in term.var_pairs:
            if b == LBD:
                if i is not None:
                    lbds.append(i)
                    erase[b, i] = _SIGMA
            elif i == idx and kinds[b] == kind:
                erase[b, i] = unindexed[b]
        shape = _replace_vars(term, erase)
        if not lbds:
            template_terms.append(shape)
            continue
        if len(lbds) != 1:
            raise NoMatchingElement(f"term {ex.render(term)} has {len(lbds)} duals")
        groups.setdefault(shape, []).append(lbds[0])

    rules: list[CollectionRule] = []
    for shape, indices in groups.items():
        indices.sort()
        families = {registry[j].family for j in indices}
        if len(families) != 1:
            raise NoMatchingElement(
                f"dual group {indices} spans constraint families {families}")
        members = tuple(sorted({registry[j].member for j in indices}))
        rule = _identify_collection(sub, m, member_kinds, registry[indices[0]].holder,
                                    members, next(iter(families)))
        key = (shape, rule.symbol)
        if key not in finished:
            finished[key] = _replace_vars(shape, {(LBD, _SIGMA.index): _collected(rule)})
        template_terms.append(finished[key])
        if rule not in rules:
            rules.append(rule)
    return ex.add(*template_terms), tuple(rules)


def _identify_collection(sub: Subproblem, m: InstanceMap, member_kinds: dict[str, str],
                         holder: str | None, members: tuple[int, ...], family: int,
                         ) -> CollectionRule:
    """The lambda index set must be the instance of one local element for
    this entity (bijectivity makes the match unique), or the entity's own
    dual.  member_kinds gives the entity kind of each global element's
    members."""
    kind, idx = sub.entity_kind, sub.entity_index
    for fam in m.lcl.values():
        if fam.mother == holder and member_kinds.get(fam.holder) == kind \
                and tuple(fam.instances.get(idx, ())) == members:
            return CollectionRule(fam.name, family)
    if members == (idx,) and holder is not None and member_kinds.get(holder) == kind:
        return CollectionRule("self", family)
    raise NoMatchingElement(
        f"dual index set {members} matches no local-element instance "
        f"for {kind} {idx}")


def _collected(rule: CollectionRule) -> Expr:
    """The duals a rule collects, as a template reads them: a sum over
    the local element, or the entity's own dual."""
    if rule.symbol == "self":
        return ex.var(LBD, "self")
    return ex.bigsum(rule.symbol, ex.var(LBD, rule.symbol))


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
    # parameters get an itf_ prefix so they cannot clash with ours; one
    # substitute pass does both
    at_anchor = {v: ex.var(f"itf_{v}") for v in ex.free_vars(deriv)
                 if v != f"{prog.decision}_anchor"}
    at_anchor[alias] = anchor
    deriv_at_anchor = ex.substitute(deriv, at_anchor)
    penalty = ex.mul(ex.var("lbd_itf"), deriv_at_anchor, ex.sub(own, anchor))
    return prog._replace(mode=mode, penalty=penalty)


def dump_dual(dp: DualProblem) -> str:
    """Text layout of the dual: the utility terms, then one line per
    constraint with its absorbed terms."""
    utility_terms = []
    per_cstr: list[list[Expr]] = [[] for _ in dp.registry]
    for term in ex.level1_terms(dp.dual):
        lbds = _lbd_indices(term)
        if lbds:
            per_cstr[lbds[0]].append(term)
        else:
            utility_terms.append(term)
    lines = [f"utility: {ex.render(ex.add(*utility_terms))}"]
    for j, c in enumerate(dp.registry):
        lines.append(f"{ex.var_name(LBD, j)} [{c.label}]: "
                     f"{ex.render(ex.add(*per_cstr[j]))}")
    return "\n".join(lines) + "\n"


def dump_program(prog: ControlProgram) -> str:
    lines = [
        f"layer: {prog.layer}",
        f"entity: {prog.entity_kind}",
        f"objective: max {ex.render(prog.objective)}",
        f"decision: {prog.decision}",
        f"collect: {', '.join(f'{r.symbol}#{r.family}' for r in prog.collect) or 'none'}",
        f"mode: {prog.mode}",
    ]
    if prog.penalty is not None:
        lines.append(f"penalty: {ex.render(prog.penalty)}")
    return "\n".join(lines) + "\n"

"""Disciplined instantiation: one unique, equal-cardinality, hash-checked
instance per local set element, produced at design time.

Global set elements instantiate to index sequences 0..N_glb-1.  Each local
family (e.g. sessions-of-link, one instance per link) is filled by peer
random sampling from its mother set under two rules:

    rule 1  every peer instance has exactly N_lcl members
    rule 2  sorted member sequences (and their hash ids) are pairwise
            distinct across peers

Together these make the element -> instance map a bijection, which is
what lets one design-time decomposition of the instantiated problem stand
in for every run-time instance of the abstract problem.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from . import expr as ex
from .abstraction import Constraint, ControlProblem
from .expr import Expr


class InstantiateError(Exception):
    pass


class NotGlobal(InstantiateError):
    pass


class CardinalityError(InstantiateError):
    pass


class CapacityExceeded(InstantiateError):
    pass


class RetryExhausted(InstantiateError):
    pass


class RuleViolation(InstantiateError):
    pass


class NotDual(InstantiateError):
    pass


class _InstanceFields(NamedTuple):
    n_glb: int = 20
    n_lcl: int = 10
    seed: int = 0
    max_retries: int = 1000


class InstanceConfig(_InstanceFields):
    """Cardinalities and the seed of one instantiation, checked when built
    and when replaced."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> InstanceConfig:
        return super().__new__(cls, *args, **kwargs)._checked()

    def _replace(self, **changes) -> InstanceConfig:
        # the tuple's own _replace builds through _make, which skips __new__
        return super()._replace(**changes)._checked()

    def _checked(self) -> InstanceConfig:
        if self.n_glb < 1 or self.n_lcl < 1:
            raise CardinalityError("cardinalities must be positive")
        if self.n_lcl > self.n_glb:
            raise CardinalityError(
                f"local cardinality {self.n_lcl} exceeds global {self.n_glb}")
        return self

    @property
    def capacity(self) -> int:
        """Number of distinct local instances the configuration admits."""
        return math.comb(self.n_glb, self.n_lcl)


# FNV-1a, 64-bit, over the 8-byte little-endian encoding of each member of
# the ascending-sorted instance.  Stable across runs and platforms.
# Test vectors: hash_id(()) == 0xcbf29ce484222325,
#               hash_id((3, 1, 2)) == hash_id((1, 2, 3)) == 0xda2bfb225e0d1f05.
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# a zero byte only multiplies by the prime, so a member below 256 is its
# one byte followed by one multiplication for the seven zero high bytes
_FNV_PRIME_8 = pow(_FNV_PRIME, 8, _MASK64 + 1)


def hash_id(instance) -> int:
    h = _FNV_BASIS
    for member in sorted(instance):
        member = int(member)
        if 0 <= member < 256:
            h = ((h ^ member) * _FNV_PRIME_8) & _MASK64
        else:
            for b in member.to_bytes(8, "little"):
                h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def instantiate_global(element_name: str, cfg: InstanceConfig,
                       problem: ControlProblem) -> tuple[int, ...]:
    el = problem.graph.element(element_name)
    if el.kind != "virtual" or el.scope != "global":
        raise NotGlobal(f"{element_name} is not a global virtual element")
    return tuple(range(cfg.n_glb))


def sample_local(mother: tuple[int, ...], cfg: InstanceConfig,
                 rng: random.Random) -> tuple[int, ...]:
    """One uniformly random N_lcl-subset of the mother set, sorted."""
    if len(mother) < cfg.n_lcl:
        raise CardinalityError(
            f"mother set of size {len(mother)} cannot yield {cfg.n_lcl}-subsets")
    return tuple(sorted(rng.sample(mother, cfg.n_lcl)))


class LocalFamily(NamedTuple):
    """The members of one local element by holder member."""
    name: str
    holder: str   # global element whose members key the instances
    mother: str   # global element the members are drawn from
    instances: dict[int, tuple[int, ...]]
    derived: bool = False


class InstanceMap:
    """The members of every global element and the local families."""
    __slots__ = ("glb", "lcl")

    def __init__(self) -> None:
        self.glb: dict[str, tuple[int, ...]] = {}
        self.lcl: dict[str, LocalFamily] = {}

    def family(self, name: str) -> LocalFamily:
        try:
            return self.lcl[name]
        except KeyError:
            raise InstantiateError(f"no instance for local element {name}") from None


def check_rules(instances: dict[int, tuple[int, ...]], n_lcl: int | None = None,
                hashes: list[int] | None = None) -> None:
    """Check rules 1-2 and injectivity.  `hashes`, when given, are the
    hash ids of the instances in their order, as the sampler computed
    them; otherwise they are computed here.

    No instance is a proper subset of another: a proper subset has fewer
    members, and an instance that passes the cardinality and duplicate
    checks has exactly `card` distinct members, so a proper subset fails
    the cardinality check first."""
    vals = list(instances.values())
    if not vals:
        return
    card = n_lcl if n_lcl is not None else len(vals[0])
    for v in vals:
        if len(v) != card:
            raise RuleViolation(f"instance {v} violates equal cardinality {card}")
        if list(v) != sorted(v):
            raise RuleViolation(f"instance {v} is not sorted")
        if len(set(v)) != card:
            raise RuleViolation(f"instance {v} has duplicate members")
    seen: dict[tuple[int, ...], int] = {}
    for k, v in instances.items():
        if v in seen:
            raise RuleViolation(f"instances {seen[v]} and {k} are identical: {v}")
        seen[v] = k
    if hashes is None:
        hashes = [hash_id(v) for v in vals]
    if len(set(hashes)) != len(vals):
        raise RuleViolation("hash ids of peer instances are not pairwise distinct")


def _sample_family(name: str, holder_members: tuple[int, ...],
                   mother: tuple[int, ...], cfg: InstanceConfig,
                   rng: random.Random) -> tuple[dict[int, tuple[int, ...]], list[int]]:
    """The sampled instance of every holder member, and the hash ids of
    those instances in the same order."""
    if len(holder_members) > math.comb(len(mother), cfg.n_lcl):
        raise CapacityExceeded(
            f"{name}: {len(holder_members)} instances requested, only "
            f"{math.comb(len(mother), cfg.n_lcl)} distinct {cfg.n_lcl}-subsets exist")
    taken_hashes: set[int] = set()
    out: dict[int, tuple[int, ...]] = {}
    hashes: list[int] = []
    for m in holder_members:
        for _ in range(cfg.max_retries):
            cand = sample_local(mother, cfg, rng)
            h = hash_id(cand)
            # the rule is distinct hash ids: a subset whose id collides
            # with a taken one is redrawn, even if the subsets differ
            if h not in taken_hashes:
                break
        else:
            raise RetryExhausted(f"{name}: duplicate collisions exceeded "
                                 f"{cfg.max_retries} retries for holder {m}")
        taken_hashes.add(h)
        out[m] = cand
        hashes.append(h)
    return out, hashes


def invert_map(imap: InstanceMap, from_element: str, to_element: str) -> LocalFamily:
    """Derive the instances of one local family from its dual: member k of
    the transposed family collects every holder whose instance contains k."""
    src = imap.family(from_element)
    holders = imap.glb.get(src.mother)
    if holders is None:
        raise NotDual(f"mother {src.mother} of {from_element} is not instantiated")
    instances = {k: tuple(sorted(j for j, inst in src.instances.items() if k in inst))
                 for k in holders}
    return LocalFamily(to_element, src.mother, src.holder, instances, derived=True)


def _holder_global(problem: ControlProblem, local_name: str) -> str:
    """The global family enumerating the holders of a local element: the
    local element is an attribute of some primitive; the global set over
    that primitive keys its instances."""
    g = problem.graph
    prim = g.element(local_name).holder
    for el in g.elements.values():
        if el.kind == "virtual" and el.scope == "global" and g.member_of(el.name) == prim:
            return el.name
    raise InstantiateError(f"no global family over {prim}")


class InstConstraint(NamedTuple):
    """One constraint expanded for a holder member: the one record of a
    constraint instance and of the dual that absorbs it."""
    lhs: Expr
    rhs: Expr
    family: int          # ordinal of the abstract constraint
    holder: str | None   # global element the constraint is over; None if none
    member: int | None   # holder member the instance belongs to

    @property
    def label(self) -> str:
        """e.g. "netlnk_03" for the per-member expansion, else "global"."""
        return "global" if self.holder is None else ex.var_name(self.holder, self.member)


class InstantiatedProblem(NamedTuple):
    """A problem over concrete members: utility, constraints, decisions, boxes."""
    problem: ControlProblem
    utility: Expr
    constraints: list[InstConstraint]
    decision_vars: list[str]
    boxes: dict[str, tuple[float | None, float | None]]


def _referenced_elements(problem: ControlProblem) -> tuple[set[str], set[str]]:
    """Globals to enumerate plus the local families to sample.  Of a dual
    pair (e.g. sessions-of-link / links-of-session) only one family is
    sampled -- the one the dualized constraints sum over -- and the other
    is derived by inversion, keeping the pair consistent."""
    g = problem.graph
    glbs: set[str] = set()
    lcls: set[str] = set()
    for spec in problem.varspecs.values():
        for name in spec.path:
            el = g.element(name)
            if el.kind == "virtual":
                (glbs if el.scope == "global" else lcls).add(name)
    summed = set()
    for c in problem.constraints:
        summed |= ex.node_names(c.lhs, "bigsum") | ex.node_names(c.rhs, "bigsum")
    summed |= ex.node_names(problem.utility, "bigsum")
    # a family is sampled unless its dual partner already is; families the
    # constraints actually sum over take priority
    primary: set[str] = set()
    for lc in sorted(lcls, key=lambda n: (n not in summed, n)):
        if _dual_partner(problem, lc) not in primary:
            primary.add(lc)
    for lc in primary:
        glbs.add(g.element(lc).mother)
        glbs.add(_holder_global(problem, lc))
    return glbs, primary


def _dual_partner(problem: ControlProblem, local_name: str) -> str | None:
    """The local element whose holder/mother transpose this one's, if the
    graph names one."""
    g = problem.graph
    mother = g.element(local_name).mother
    holder = _holder_global(problem, local_name)
    for el in g.elements.values():
        if el.kind == "virtual" and el.scope == "local" and el.name != local_name \
                and el.mother == holder \
                and _holder_global(problem, el.name) == mother:
            return el.name
    return None


def instantiate_problem(problem: ControlProblem, cfg: InstanceConfig,
                        preset: dict[str, dict[int, tuple[int, ...]]] | None = None,
                        ) -> tuple[InstantiatedProblem, InstanceMap]:
    """Expand every big-sum and `every` quantifier against a disciplined
    instance map; rejected duplicate samples are re-drawn up to
    cfg.max_retries.  A preset pins specific local instances (validated
    against the rules) instead of sampling them."""
    g = problem.graph
    rng = random.Random(cfg.seed)
    glbs, lcls = _referenced_elements(problem)

    imap = InstanceMap()
    for name in sorted(glbs):
        imap.glb[name] = instantiate_global(name, cfg, problem)

    for name in sorted(lcls):
        holder = _holder_global(problem, name)
        mother = g.element(name).mother
        if preset and name in preset:
            instances = {k: tuple(sorted(v)) for k, v in preset[name].items()}
            check_rules(instances)
        else:
            instances, hashes = _sample_family(name, imap.glb[holder],
                                               imap.glb[mother], cfg, rng)
            check_rules(instances, cfg.n_lcl, hashes)
        imap.lcl[name] = LocalFamily(name, holder, mother, instances)

    # derive duals of sampled families wherever the graph names them
    for name in list(imap.lcl):
        partner = _dual_partner(problem, name)
        if partner is not None and partner not in imap.lcl:
            imap.lcl[partner] = invert_map(imap, name, partner)

    glb_bindings = {name: list(seq) for name, seq in imap.glb.items()}
    constraints: list[InstConstraint] = []
    try:
        utility = ex.expand_sums(problem.utility, glb_bindings)
        for family, c in enumerate(problem.constraints):
            constraints.extend(_expand_constraint(c, family, imap, glb_bindings))
    except ex.UnboundIndexSet as err:
        raise NotGlobal(f"sum over local set {err.symbol} outside a constraint "
                        f"over its holder") from None

    decision_vars, boxes = _decision_registry(problem, imap)
    inst = InstantiatedProblem(problem, utility, constraints, decision_vars, boxes)
    return inst, imap


def _expand_constraint(c: Constraint, family: int, imap: InstanceMap,
                       glb_bindings: dict[str, list[int]]) -> list[InstConstraint]:
    if c.holder is None:
        lhs = ex.expand_sums(c.lhs, glb_bindings)
        rhs = ex.expand_sums(c.rhs, glb_bindings)
        return [InstConstraint(lhs, rhs, family, None, None)]
    out = []
    local_here = [f for f in imap.lcl.values() if f.holder == c.holder]
    for m in imap.glb[c.holder]:
        bindings = dict(glb_bindings)
        for fam in local_here:
            bindings[fam.name] = list(fam.instances[m])
        lhs = ex.expand_sums(ex.bind_index(c.lhs, c.holder, m), bindings)
        rhs = ex.expand_sums(ex.bind_index(c.rhs, c.holder, m), bindings)
        out.append(InstConstraint(lhs, rhs, family, c.holder, m))
    return out


def _decision_registry(problem: ControlProblem, imap: InstanceMap,
                       ) -> tuple[list[str], dict[str, tuple[float | None, float | None]]]:
    g = problem.graph
    base_of: dict[str, str] = {}   # decision name -> the base it is built from
    for spec in problem.control_specs():
        sym = None
        for tok, el in zip(spec.quant, spec.path):
            if tok in ("all", "every") and g.element(el).scope == "global":
                sym = el
                break
        if sym is None:
            continue
        base = spec.terminal()
        for i in imap.glb[sym]:
            base_of.setdefault(ex.var_name(base, i), base)
    boxes: dict[str, tuple[float | None, float | None]] = {}
    for rule in problem.box_rules:
        if rule.owner is not None:
            continue  # runtime-scoped rules are applied by the simulator
        for vn, base in base_of.items():
            if base == rule.base:
                lo, hi = boxes.get(vn, (None, None))
                lo = rule.lower if rule.lower is not None else lo
                hi = rule.upper if rule.upper is not None else hi
                boxes[vn] = (lo, hi)
    return list(base_of), boxes


def dump_table(imap: InstanceMap, family: str) -> str:
    """Tabular text form of one local family: holder index -> sorted members."""
    fam = imap.family(family)
    lines = [f"{family} (holder {fam.holder}, members from {fam.mother})"]
    for k in sorted(fam.instances):
        lines.append(f"{k}\t{', '.join(str(m) for m in fam.instances[k])}")
    return "\n".join(lines) + "\n"

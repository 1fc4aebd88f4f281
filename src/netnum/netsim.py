"""Deterministic simulation of a multi-hop wireless network with
SINR-coupled links, dual-coefficient message passing along session
paths, and multi-timescale execution of generated control programs.

Model notes:
  - Fluid flow: sessions are rate processes in packets/s; no per-packet
    queues.  A session's achieved throughput is its rate scaled by the
    worst proportional capacity share along its path.
  - The control plane works in packets/s; the capacity model produces
    bits/s and is divided by the packet size.
  - Power decisions are transmit gain in dB on [0, max]; the capacity
    model consumes linear power through lnkpwr = 10^(gain/10).
  - Channel gains follow log-distance path loss from node positions; two
    links interfere iff they share a frequency band.  A transmission
    whose source is the interfered link's receiver is excluded
    (half-duplex conflict the fluid model abstracts away).
  - Dual values travel as zero-loss messages with one epoch of delay.
  - Constraint slacks and the utility are compiled once per topology:
    the compiled functions are kept with the session done flags (and, for
    the utility, the active links) they were expanded for, and rebuilt
    when those differ from the live state.
  - Solvers are compiled once per (installed program, shape), on the
    first step: a link program names each interfered neighbour's
    parameters by slot (sorted-neighbour order) and a session program
    names its path's duals by hop, so every link with the same neighbour
    count, and every session with the same path length, runs one compiled
    program (solve.compile_program: the ascent loop fused into one
    generated function that computes each decision-invariant value once
    per solve).  Boxes and the slot/hop-to-index maps stay with each
    entity's solver.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, get_args, get_origin, get_type_hints

from . import expr as ex
from .abstraction import BoxRule, ControlProblem, ElementGraph, resolve_model
from .decompose import ControlProgram
from .expr import Env, Expr
from .solve import (CompiledProgram, DualState, SolverConfig, clip, compile_program,
                    dual_update, solve_program)

SCHEMES = ("joint", "rate-only", "power-only", "no-control", "best-response")

Compiled = Callable[[Env], float]   # an Expr compiled by expr.compile_expr

# Not built from db_to_linear: 0.1 * x and x / 10.0 round differently.
DB_TO_LINEAR = ex.exp10(ex.mul(ex.const(0.1), ex.var("pwrgain")))


class NetsimError(Exception):
    pass


class ConfigError(NetsimError):
    pass


class UnknownEntity(NetsimError):
    pass


class UnresolvableCollectionRule(NetsimError):
    pass


class DomainError(NetsimError):
    pass


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: int = 1               # 1..5
    seed: int = 0
    bandwidth: float = 200e3        # Hz per band
    packet_bits: int = 2048
    noise: float = 1e-4
    pathloss_exp: float = 3.0
    max_gain_db: float = 30.0
    phys_epoch: float = 1.0         # seconds per physical control epoch
    timescale: int = 30             # transport epoch = timescale * physical
    rate_min: float = 0.05          # packets/s
    rate_max: float = 100.0
    rate_step: float = 25.0
    rate_iters: int = 10
    rate_move_max: float = 3.0      # pps per solver iteration (tracking mode)
    power_step: float = 60.0        # dB per unit gradient; backtracking damps
    power_iters: int = 4
    power_move_max: float = 0.5     # per-iteration trust cap in dB
    dual_step: float = 2e-3
    congestion_exp: float = 2.0     # goodput collapse under overload (>= 1)
    slack_clip: float = 25.0        # bounded dual subgradients (pps)
    chain_spacing: float = 55.0     # meters between session chains
    hop_short: float = 40.0         # first chain's hop length (meters)
    hop_long: float = 60.0          # second chain's hop length
    band_pattern: tuple[int, ...] = ()
    budgets: tuple[float, ...] = () # packets per session; 0 = unlimited

    def __post_init__(self):
        if self.timescale < 1:
            raise ConfigError(f"timescale must be at least 1, got {self.timescale}")
        if not self.phys_epoch > 0:
            raise ConfigError(f"phys_epoch must be positive, got {self.phys_epoch}")
        if self.packet_bits < 1:
            raise ConfigError(f"packet_bits must be at least 1, got {self.packet_bits}")
        if not self.rate_min <= self.rate_max:
            raise ConfigError(f"rate_min {self.rate_min} exceeds rate_max {self.rate_max}")
        # 0 turns slack_clip and the move caps off
        for key in ("max_gain_db", "rate_min", "slack_clip", "power_move_max",
                    "rate_move_max"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"{key} must not be negative, got {getattr(self, key)}")
        for key in ("rate_step", "power_step", "dual_step"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("hop_short", "hop_long", "chain_spacing", "bandwidth", "noise",
                    "pathloss_exp"):
            value = getattr(self, key)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        for budget in self.budgets:
            if not (budget >= 0 and math.isfinite(budget)):
                raise ConfigError(f"budgets must be finite and not negative, got {budget}")
        chains, hops, _, _ = _scenario_shape(self)
        if self.band_pattern and len(self.band_pattern) != chains * hops:
            raise ConfigError(f"band_pattern has {len(self.band_pattern)} entries; "
                              f"scenario {self.scenario} has {chains * hops} links")

    @property
    def transport_epoch(self) -> float:
        return self.timescale * self.phys_epoch


@dataclass
class Node:
    index: int
    pos: tuple[float, float]


@dataclass
class Link:
    index: int
    tx: int
    rx: int
    band: int
    bandwidth: float
    gain: float
    noise: float
    cross_gain: dict[int, float] = field(default_factory=dict)
    pwr_gain_db: float = 0.0
    power_box: tuple[float, float] = (0.0, 30.0)
    sessions: tuple[int, ...] = ()    # sessions whose path uses this link
    capacity_pps: float = 0.0
    active: bool = True

    @property
    def power_linear(self) -> float:
        return db_to_linear(self.pwr_gain_db) if self.active else 0.0


@dataclass
class Session:
    index: int
    src: int
    dst: int
    path: tuple[int, ...]
    rate: float = 1.0
    rate_box: tuple[float, float] = (0.05, 400.0)
    budget: float = 0.0   # packets; 0 = unlimited
    sent: float = 0.0
    done: bool = False
    throughput: float = 0.0


@dataclass
class ConstraintFamily:
    """Runtime face of one abstract constraint: per-member dual variables
    plus the slack expression evaluated against live network state."""
    ordinal: int
    holder: str            # netlnk | netses
    entity: str            # link | session
    lhs: Expr
    rhs: Expr
    duals: DualState = field(default_factory=DualState)   # keyed by member index
    prev: DualState = field(default_factory=DualState)    # last epoch's duals
    # compiled (member, rhs, lhs) per member, and the session done flags
    # they were expanded for
    slack_fns: list[tuple[int, Compiled, Compiled]] = field(default_factory=list)
    slack_key: tuple[bool, ...] | None = None


@dataclass
class NetState:
    cfg: ScenarioConfig
    nodes: list[Node]
    links: list[Link]
    sessions: list[Session]
    epoch: int = 0
    families: list[ConstraintFamily] = field(default_factory=list)
    utility_expr: Expr | None = None
    utility_sense: str = "max"
    # utility_expr expanded and compiled for (live sessions, active links)
    utility_fn: Compiled | None = None
    utility_key: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    # env names of each session's rate and each link's capacity and power
    rate_names: tuple[str, ...] = ()
    cap_names: tuple[str, ...] = ()
    pwr_names: tuple[str, ...] = ()
    dual_cfg: SolverConfig | None = None
    pending: list[tuple[tuple[str, int], ControlProgram]] = field(default_factory=list)
    programs: dict[tuple[str, int], ControlProgram] = field(default_factory=dict)
    graph: ElementGraph | None = None
    capacity: Compiled | None = None   # lnkcap model, bits/s
    # (kind, index) -> solver built from the installed program on first use
    _solvers: dict[tuple[str, int], _EntitySolver | None] = field(default_factory=dict)
    # (kind, id(program), shape) -> (program, its compiled solver program),
    # shared by every entity of that kind running that program with that
    # shape; the entry holds the program, so no other program has its id
    _shared: dict[tuple[str, int, int], tuple[ControlProgram, CompiledProgram]] = \
        field(default_factory=dict)

    @property
    def clock(self) -> float:
        """Seconds simulated: the end of the last epoch stepped."""
        return self.epoch * self.cfg.phys_epoch


# ---------------------------------------------------------------------------
# topology construction

def _chain_positions(chains: int, hops: int, hop_len: list[float],
                     spacing: float = 55.0) -> list[tuple[float, float]]:
    # chains run close enough that cross gains rival own-link gains; the
    # power/rate trade between sessions is then a real one
    pos = []
    for c in range(chains):
        x = 0.0
        for h in range(hops + 1):
            pos.append((x, c * spacing))
            x += hop_len[c % len(hop_len)]
    return pos


def _scenario_shape(cfg: ScenarioConfig) -> tuple[int, int, int, tuple[int, ...]]:
    """(chains, hops, bands, band pattern per link in chain-major order)."""
    s = cfg.scenario
    if s in (1, 2, 3):
        # same two-chain topology; only the band-sharing pattern differs:
        # no sharing, then parallel-paired hops, then diagonally paired
        # hops whose short cross distances give the strongest coupling
        pattern = {1: (0, 1, 2, 3), 2: (0, 1, 0, 1), 3: (0, 1, 1, 0)}[s]
        return 2, 2, max(pattern) + 1, pattern
    if s == 4:
        return 3, 2, 2, (0, 1, 1, 0, 0, 1)
    if s == 5:
        per_chain = tuple(range(6))
        return 3, 6, 6, per_chain * 3
    raise ConfigError(f"unknown scenario {s}; pick one of 1..5")


def build_scenario(cfg: ScenarioConfig) -> NetState:
    """Deterministic topology for scenarios 1-5: parallel session chains
    with per-link band assignments controlling the interference level."""
    chains, hops, _, pattern = _scenario_shape(cfg)
    if cfg.band_pattern:
        pattern = cfg.band_pattern
    # first chain has shorter hops, so its session finds capacity cheaper
    hop_len = [cfg.hop_short, cfg.hop_long,
               (cfg.hop_short + cfg.hop_long) / 2.0]
    positions = _chain_positions(chains, hops, hop_len, cfg.chain_spacing)
    nodes = [Node(i, p) for i, p in enumerate(positions)]

    links: list[Link] = []
    sessions: list[Session] = []
    per_chain = hops + 1
    for c in range(chains):
        base = c * per_chain
        path = []
        for h in range(hops):
            li = len(links)
            tx, rx = base + h, base + h + 1
            d = _dist(positions[tx], positions[rx])
            links.append(Link(
                index=li, tx=tx, rx=rx, band=pattern[li],
                bandwidth=cfg.bandwidth, gain=d ** -cfg.pathloss_exp,
                noise=cfg.noise, power_box=(0.0, cfg.max_gain_db), sessions=(c,)))
            path.append(li)
        budget = cfg.budgets[c] if c < len(cfg.budgets) else 0.0
        sessions.append(Session(
            index=c, src=base, dst=base + hops, path=tuple(path),
            rate_box=(cfg.rate_min, cfg.rate_max), budget=budget))

    for li in links:
        for lj in links:
            if lj.index == li.index or lj.band != li.band:
                continue
            if lj.tx == li.rx:
                continue  # half-duplex: a node cannot jam its own reception
            d = _dist(positions[lj.tx], positions[li.rx])
            li.cross_gain[lj.index] = d ** -cfg.pathloss_exp
    return NetState(cfg, nodes, links, sessions)


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# capacity through the shared symbolic model

def link_capacity(link: Link, net: NetState, powers: list[float]) -> float:
    """Capacity in bits/s from the symbolic SINR model; the aggregate
    interference binds through (lnkgain_itf=1, itfpwr=sum of weighted
    interferer powers).  `powers` holds every link's power_linear by
    index (see _linear_powers)."""
    if not link.active:
        return 0.0
    itf = _aggregate_interference(link, net, powers)
    env = {"freq": link.bandwidth, "lnkpwr": powers[link.index],
           "lnkgain": link.gain, "lnknoise": link.noise,
           "lnkgain_itf": 1.0, "itfpwr": itf}
    if link.noise + itf <= 0.0:
        raise DomainError(f"link {link.index}: non-positive noise+interference")
    return net.capacity(env)


def _linear_powers(net: NetState) -> list[float]:
    return [l.power_linear for l in net.links]


def _aggregate_interference(link: Link, net: NetState, powers: list[float]) -> float:
    # folded left from 0, as ex.left_sum, without a generator per call
    total = 0
    for j, g in link.cross_gain.items():
        if net.links[j].active:
            total = total + g * powers[j]
    return total


# ---------------------------------------------------------------------------
# program installation

def install_problem(net: NetState, problem: ControlProblem) -> NetState:
    """Wire the problem's constraint families, utility, and box rules into
    the runtime."""
    net.families = []
    for i, c in enumerate(problem.constraints):
        if c.holder not in ("netlnk", "netses"):
            raise UnresolvableCollectionRule(
                f"constraint family over {c.holder} has no runtime entities")
        entity = {"netlnk": "link", "netses": "session"}[c.holder]
        net.families.append(ConstraintFamily(i, c.holder, entity, c.lhs, c.rhs))
    net.utility_expr = problem.utility
    net.utility_sense = problem.sense
    net.utility_fn = net.utility_key = None
    net.rate_names = tuple(ex.var_name("sesrate", s.index) for s in net.sessions)
    net.cap_names = tuple(ex.var_name("lnkcap", l.index) for l in net.links)
    net.pwr_names = tuple(ex.var_name("lnkpwr", l.index) for l in net.links)
    net.dual_cfg = SolverConfig(dual_step=net.cfg.dual_step)
    for rule in problem.box_rules:
        _apply_box_rule(net, rule)
    net.graph = problem.graph
    net.capacity = ex.compile_expr(resolve_model(problem.graph, "lnkcap"))
    return net


def _apply_box_rule(net: NetState, rule: BoxRule) -> None:
    if rule.base == "lnkpwr":
        targets = list(range(len(net.links)))
        if rule.owner is not None:
            holder, idx, via = rule.owner
            if holder != "netses" or via != "seslnk":
                raise UnresolvableCollectionRule(f"box rule owner {rule.owner}")
            if idx >= len(net.sessions):
                raise UnknownEntity(f"session {idx}")
            targets = list(net.sessions[idx].path)
        for li in targets:
            lo, hi = net.links[li].power_box
            lo = rule.lower if rule.lower is not None else lo
            hi = rule.upper if rule.upper is not None else hi
            net.links[li].power_box = (lo, hi)
    elif rule.base == "sesrate":
        targets = list(range(len(net.sessions)))
        if rule.owner is not None:
            raise UnresolvableCollectionRule(f"box rule owner {rule.owner}")
        for si in targets:
            lo, hi = net.sessions[si].rate_box
            lo = rule.lower if rule.lower is not None else lo
            hi = rule.upper if rule.upper is not None else hi
            net.sessions[si].rate_box = (lo, hi)
    else:
        raise UnresolvableCollectionRule(f"box rule on {rule.base}")


def install_program(net: NetState, owner: tuple[str, int],
                    prog: ControlProgram) -> NetState:
    """Queue a program for an entity; it replaces the entity's installed
    program atomically at the next epoch boundary."""
    kind, idx = owner
    if kind == "session":
        if idx >= len(net.sessions):
            raise UnknownEntity(f"session {idx}")
        for rule in prog.collect:
            if rule.symbol == "self":
                continue
            if rule.symbol != "seslnk":
                raise UnresolvableCollectionRule(
                    f"{rule.symbol} cannot be collected by a session")
    elif kind == "link":
        if idx >= len(net.links):
            raise UnknownEntity(f"link {idx}")
        for rule in prog.collect:
            if rule.symbol != "self":
                raise UnresolvableCollectionRule(
                    f"{rule.symbol} cannot be collected by a link")
    else:
        raise UnknownEntity(f"unknown entity kind {kind}")
    net.pending.append((owner, prog))
    return net


def _apply_pending(net: NetState) -> None:
    if not net.pending:
        return
    for owner, prog in net.pending:
        net.programs[owner] = prog
        net._solvers.pop(owner, None)
    net.pending.clear()
    installed = {id(prog) for prog in net.programs.values()}
    for key in [key for key in net._shared if key[1] not in installed]:
        del net._shared[key]


# ---------------------------------------------------------------------------
# per-entity solvers over compiled programs shared per shape

@dataclass
class _EntitySolver:
    program: CompiledProgram   # shared by the entities of the same shape
    cfg: SolverConfig          # the entity's own box
    # sessions: (family ordinal, env name, link) per collected dual, the
    # names by hop position
    lam_sources: list[tuple[int, str, int]]
    self_family: int | None = None
    # links: each interfered neighbour j with its slot's _NEIGHBOUR_PARAMS
    # env names, slots in sorted-neighbour order
    neighbours: tuple[tuple[int, tuple[str, ...]], ...] = ()


def _shared_program(net: NetState, kind: str, prog: ControlProgram,
                    shape: int) -> CompiledProgram:
    """The compiled program of every `kind` entity that runs prog and has
    this shape (a link's neighbour count, a session's path length),
    compiled on first use."""
    key = (kind, id(prog), shape)
    entry = net._shared.get(key)
    if entry is None:
        build = _session_program if kind == "session" else _link_program
        entry = net._shared[key] = (prog, build(net, prog, shape))
    return entry[1]


def _session_program(net: NetState, prog: ControlProgram, hops: int) -> CompiledProgram:
    # collected sums run over hop positions, so the dual of a path's
    # h-th link is lbd_h for every session
    objective = prog.objective
    for rule in prog.collect:
        if rule.symbol != "self":
            objective = ex.expand_sums(objective, {rule.symbol: range(hops)})
    return compile_program(replace(prog, objective=objective))


def _session_solver(net: NetState, s: Session, prog: ControlProgram) -> _EntitySolver:
    lam_sources: list[tuple[int, str, int]] = []
    self_family = None
    for rule in prog.collect:
        if rule.symbol == "self":
            self_family = rule.family
        else:
            lam_sources.extend((rule.family, ex.var_name("lbd", hop), li)
                               for hop, li in enumerate(s.path))
    cfg = SolverConfig(step=net.cfg.rate_step, dual_step=net.cfg.dual_step,
                       max_iters=net.cfg.rate_iters, tol=1e-9,
                       boxes={"sesrate": s.rate_box},
                       max_move=net.cfg.rate_move_max)
    program = _shared_program(net, "session", prog, len(s.path))
    return _EntitySolver(program, cfg, lam_sources, self_family)


# what _solve_power binds for each interfered neighbour, in this order
_NEIGHBOUR_PARAMS = ("lbd_itf", "itf_freq", "itf_lnkpwr", "itf_lnkgain",
                     "itf_lnkgain_itf", "itf_lnknoise")


def _link_program(net: NetState, prog: ControlProgram, slots: int) -> CompiledProgram:
    # capacity in packets/s so the objective shares the dual's units
    model = ex.div(resolve_model(net.graph, "lnkcap"), ex.const(net.cfg.packet_bits))
    objective = ex.substitute(prog.objective, {"lnkcap": model})
    objective = ex.substitute(objective, {"lnkpwr": DB_TO_LINEAR})
    if prog.penalty is not None:
        terms = [objective]
        for slot in range(slots):
            # links we interfere with collect our linearized damage,
            # normalized to packets/s like the own term
            pj = ex.div(prog.penalty, ex.const(net.cfg.packet_bits))
            pj = ex.substitute(pj, {
                v: ex.var(f"{v}@{slot}") for v in ex.free_vars(prog.penalty)
                if v.startswith("itf_") or v == "lbd_itf"})
            pj = ex.substitute(pj, {"lnkpwr": DB_TO_LINEAR})
            terms.append(pj)
        objective = ex.add(*terms)
    return compile_program(replace(prog, objective=objective, decision="pwrgain"))


def _link_solver(net: NetState, link: Link, prog: ControlProgram) -> _EntitySolver:
    interfered = sorted(link.cross_gain) if prog.penalty is not None else []
    neighbours = tuple((j, tuple(f"{v}@{slot}" for v in _NEIGHBOUR_PARAMS))
                       for slot, j in enumerate(interfered))
    cfg = SolverConfig(step=net.cfg.power_step, dual_step=net.cfg.dual_step,
                       max_iters=net.cfg.power_iters, tol=1e-9,
                       boxes={"pwrgain": link.power_box},
                       max_move=net.cfg.power_move_max)
    self_family = next((r.family for r in prog.collect if r.symbol == "self"), None)
    program = _shared_program(net, "link", prog, len(neighbours))
    return _EntitySolver(program, cfg, [], self_family, neighbours)


def _get_solver(net: NetState, kind: str, idx: int) -> _EntitySolver | None:
    key = (kind, idx)
    if key in net._solvers:
        return net._solvers[key]
    prog = net.programs.get(key)
    if prog is None:
        solver = None
    elif kind == "session":
        solver = _session_solver(net, net.sessions[idx], prog)
    else:
        solver = _link_solver(net, net.links[idx], prog)
    net._solvers[key] = solver
    return solver


# ---------------------------------------------------------------------------
# the event loop

@dataclass
class Trace:
    rows: list[tuple[float, str, int, str, float]] = field(default_factory=list)

    def record(self, t: float, kind: str, eid: int, metric: str, value: float):
        self.rows.append((t, kind, eid, metric, value))

    def series(self, kind: str, eid: int, metric: str) -> list[tuple[float, float]]:
        return [(t, v) for (t, k, e, m, v) in self.rows
                if k == kind and e == eid and m == metric]

    def mean(self, kind: str, metric: str, eid: int | None = None,
             tail: float = 1.0) -> float:
        vals = [v for (t, k, e, m, v) in self.rows
                if k == kind and m == metric and (eid is None or e == eid)]
        if not vals:
            raise NetsimError(f"no {kind}/{metric} records")
        n = max(1, int(len(vals) * tail))
        vals = vals[-n:]
        return ex.left_sum(vals) / len(vals)

    def to_csv(self) -> str:
        lines = ["time,entity_kind,entity_id,metric,value"]
        for (t, k, e, m, v) in self.rows:
            lines.append(f"{t!r},{k},{e},{m},{v!r}")
        return "\n".join(lines) + "\n"


def _measure(net: NetState, powers: list[float]) -> None:
    for link in net.links:
        link.capacity_pps = link_capacity(link, net, powers) / net.cfg.packet_bits


def _runtime_bindings(net: NetState) -> Env:
    env: Env = {}
    for name, s in zip(net.rate_names, net.sessions):
        env[name] = 0.0 if s.done else s.rate
    for cap, pwr, l in zip(net.cap_names, net.pwr_names, net.links):
        env[cap] = l.capacity_pps
        env[pwr] = l.power_linear
    return env


def _family_slacks(net: NetState, fam: ConstraintFamily, env: Env) -> dict[int, float]:
    key = tuple(s.done for s in net.sessions)
    if fam.slack_key != key:
        fam.slack_fns = _compile_slacks(net, fam)
        fam.slack_key = key
    slacks: dict[int, float] = {}
    limit = net.cfg.slack_clip
    for m, rhs, lhs in fam.slack_fns:
        slack = rhs(env) - lhs(env)
        slacks[m] = clip(slack, -limit, limit) if limit > 0 else slack
    return slacks


def _compile_slacks(net: NetState, fam: ConstraintFamily,
                    ) -> list[tuple[int, Compiled, Compiled]]:
    """Each member's rhs and lhs, its sums expanded over the sessions that
    have not finished, compiled."""
    fns = []
    members = (range(len(net.links)) if fam.entity == "link"
               else range(len(net.sessions)))
    for m in members:
        if fam.entity == "link":
            sharing = [si for si in net.links[m].sessions if not net.sessions[si].done]
            bindings = {"lnkses": sharing}
        else:
            bindings = {"seslnk": list(net.sessions[m].path)}
        lhs = ex.expand_sums(ex.bind_index(fam.lhs, fam.holder, m), bindings)
        rhs = ex.expand_sums(ex.bind_index(fam.rhs, fam.holder, m), bindings)
        fns.append((m, ex.compile_expr(rhs), ex.compile_expr(lhs)))
    return fns


def _update_duals(net: NetState) -> None:
    env = _runtime_bindings(net)
    for fam in net.families:
        fam.prev = fam.duals
        fam.duals = dual_update(fam.duals, _family_slacks(net, fam, env), net.dual_cfg)


def _link_family(net: NetState) -> ConstraintFamily | None:
    """The first family over links: its duals price link capacity."""
    return next((f for f in net.families if f.entity == "link"), None)


def _solve_power(net: NetState, link: Link, powers: list[float]) -> None:
    """Solve one link's power program; `powers` holds every link's
    power_linear as the epoch's earlier solves left it."""
    solver = _get_solver(net, "link", link.index)
    if solver is None or not link.active:
        return
    own = powers[link.index]
    env: Env = {
        "freq": link.bandwidth, "lnkgain": link.gain, "lnknoise": link.noise,
        "lnkgain_itf": 1.0, "itfpwr": _aggregate_interference(link, net, powers),
        "pwrgain_anchor": link.pwr_gain_db,
        "lnkpwr_anchor": own,
        "lbd": _self_lambda(net, solver, link.index),
    }
    if solver.neighbours:
        cap = _link_family(net)
        prices = {} if cap is None else cap.prev.values
        for j, (lbd, freq, pwr, gain, gain_itf, noise) in solver.neighbours:
            lj = net.links[j]
            back = lj.cross_gain.get(link.index, 0.0)
            env[lbd] = prices.get(j, 0.0) if lj.active else 0.0
            env[freq] = lj.bandwidth
            env[pwr] = powers[j]
            env[gain] = lj.gain
            env[gain_itf] = back
            other = _aggregate_interference(lj, net, powers) - back * own
            env[noise] = lj.noise + max(0.0, other)
    decision = solve_program(solver.program, env, solver.cfg)
    link.pwr_gain_db = decision["pwrgain"]


def _self_lambda(net: NetState, solver: _EntitySolver, member: int) -> float:
    if solver.self_family is None:
        return 0.0
    return net.families[solver.self_family].prev.values.get(member, 0.0)


def _solve_rate(net: NetState, s: Session) -> None:
    solver = _get_solver(net, "session", s.index)
    if solver is None or s.done:
        return
    env: Env = {"sesrate_anchor": s.rate,
                "lbd": _self_lambda(net, solver, s.index)}
    for fam_ord, name, li in solver.lam_sources:
        env[name] = net.families[fam_ord].prev.values.get(li, 0.0)
    decision = solve_program(solver.program, env, solver.cfg)
    s.rate = decision["sesrate"]


def _deliver(net: NetState) -> None:
    demand: dict[int, float] = {}
    for s in net.sessions:
        if s.done:
            s.throughput = 0.0
            continue
        for li in s.path:
            demand[li] = demand.get(li, 0.0) + s.rate
    for s in net.sessions:
        if s.done:
            continue
        share = 1.0
        for li in s.path:
            cap = net.links[li].capacity_pps
            if demand[li] > 0:
                share = min(share, cap / demand[li])
        # overloading a link wastes goodput on retransmissions: the share
        # factor collapses with the overload ratio (reliable transport)
        s.throughput = s.rate * min(1.0, share) ** net.cfg.congestion_exp
        # conservation: never beyond the bottleneck's proportional share
        for li in s.path:
            cap = net.links[li].capacity_pps
            if demand[li] > 0 and not s.throughput <= cap * s.rate / demand[li] + 1e-9:
                raise NetsimError(f"session {s.index}: throughput {s.throughput!r} "
                                  f"breaks conservation on link {li}")
        if s.budget > 0:
            s.sent += s.throughput * net.cfg.phys_epoch
            if s.sent >= s.budget:
                s.done = True
                for li in s.path:
                    link = net.links[li]
                    if all(net.sessions[u].done for u in link.sessions):
                        link.active = False


def sum_utility(net: NetState) -> float:
    """The problem utility evaluated on achieved throughput (packets/s)
    and live powers, in maximize sense."""
    if net.utility_expr is None:
        return 0.0
    key = (tuple(s.index for s in net.sessions if not s.done),
           tuple(l.index for l in net.links if l.active))
    if net.utility_key != key:
        live_s, live_l = key
        e = ex.expand_sums(net.utility_expr, {"netses": live_s, "netlnk": live_l})
        net.utility_fn = ex.compile_expr(e)
        net.utility_key = key
    env: Env = {}
    for name, s in zip(net.rate_names, net.sessions):
        env[name] = max(s.throughput, 1e-6)
    for name, l in zip(net.pwr_names, net.links):
        env[name] = l.power_linear
    val = net.utility_fn(env)
    return val if net.utility_sense == "max" else -val


def _record(net: NetState, trace: Trace) -> None:
    t = net.clock
    cap = _link_family(net)
    for s in net.sessions:
        trace.record(t, "session", s.index, "throughput_pps", s.throughput)
    for link in net.links:
        if link.active:
            trace.record(t, "node", link.tx, "power_gain_db", link.pwr_gain_db)
        lam = 0.0 if cap is None else cap.duals.values.get(link.index, 0.0)
        trace.record(t, "link", link.index, "lambda", lam)
    trace.record(t, "net", 0, "sum_utility", sum_utility(net))


def step(net: NetState, scheme: str = "joint") -> NetState:
    """Advance one physical epoch: measure capacities, update duals, run
    the physical-layer programs, run the transport programs every
    timescale-th epoch, then account delivered traffic."""
    if net.capacity is None:
        raise NetsimError("install_problem must run before step")
    _apply_pending(net)
    powers = _linear_powers(net)
    _measure(net, powers)
    _update_duals(net)
    if scheme in ("joint", "power-only"):
        for link in net.links:
            _solve_power(net, link, powers)
            powers[link.index] = link.power_linear
    if scheme in ("joint", "rate-only") and net.epoch % net.cfg.timescale == 0:
        for s in net.sessions:
            _solve_rate(net, s)
    _deliver(net)
    net.epoch += 1
    # feasibility invariants hold at every epoch
    for fam in net.families:
        for v in fam.duals.values.values():
            if v < 0:
                raise NetsimError("negative dual")
    for link in net.links:
        lo, hi = link.power_box
        if link.active and not (lo - 1e-9 <= link.pwr_gain_db <= hi + 1e-9):
            raise NetsimError(f"power outside box on link {link.index}")
    return net


def run(net: NetState, duration: float, scheme: str = "joint") -> Trace:
    """Run for `duration` seconds; the scheme gates which layers' programs
    execute.  Initial operating points are drawn from the scenario seed."""
    if duration <= 0:
        raise ConfigError("duration must be positive")
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    ratio = duration / net.cfg.phys_epoch
    if not math.isfinite(ratio) or round(ratio) < 1:
        raise ConfigError(f"duration must be finite and last at least one "
                          f"{net.cfg.phys_epoch!r} s epoch, got {duration!r}")
    rng = random.Random(net.cfg.seed)
    for s in net.sessions:
        lo, hi = s.rate_box
        s.rate = hi if scheme == "best-response" else rng.uniform(lo, hi)
    for link in net.links:
        lo, hi = link.power_box
        link.pwr_gain_db = hi if scheme == "best-response" else rng.uniform(lo, hi)
    trace = Trace()
    for _ in range(round(ratio)):
        step(net, scheme)
        _record(net, trace)
    return trace


# ---------------------------------------------------------------------------
# scenario files

_CFG_TYPES = get_type_hints(ScenarioConfig)


def load_scenario(text: str) -> ScenarioConfig:
    """Parse a plain key=value scenario file (# comments allowed).
    Tuple-valued keys take comma-separated lists."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CFG_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        tp = _CFG_TYPES[key]
        try:
            if get_origin(tp) is tuple:
                values[key] = tuple(get_args(tp)[0](x) for x in val.split(",") if x != "")
            else:
                values[key] = tp(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    return ScenarioConfig(**values)

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
    Each constraint family holds its duals as a list by member index
    (link or session j at duals[j]), and the last epoch's list as prev;
    solves read prev.  The dual step reads net.cfg.dual_step each epoch.
  - Each run-time unit is one generated function.  A constraint
    family's slacks (every member's rhs - lhs) and the utility are
    compiled once per topology: each function is kept with the session
    done flags (and, for the utility, the active links) it was expanded
    for, and rebuilt when those differ from the live state.
  - Solvers are compiled on first use, once per (installed program,
    shape): a link program names the parameters of each victim (a link
    whose capacity its power lowers) by slot, in index order, and a
    session program its path's duals by hop, so every link with the same
    victim count, and every session with the same path length, runs one
    compiled program (the ascent loop fused into one generated function,
    see solve.compile_program).  Each entity's solver keeps its box, under
    the program's decision variable, its anchor's name and its
    slot/hop-to-index maps; a link solve reads the capacity prices from
    net.link_family, found once at install.
  - One key per phase: a phase that reuses work packs what it reads as
    doubles into one key, and keeps its last value in a Kept while the
    key repeats bit for bit (the interference with every capacity, a
    link solve that left its power at the anchor, the whole power pass
    when no solve in it moved a power, the slacks, the throughputs, the
    traced utility).  The exception is _measure: most joint epochs move
    a power, so it compares the powers with its last call's first, and
    builds the rest of its key only where they repeat (and on its first
    call); the power pass, which reads that key, is keyed only then.  A
    moved power refolds only the interference sums that read it.  The
    dual step, the packets sent and the drain run every epoch.
  - The trace is kept by epoch: a flat list of values, and a Layout of
    their rows shared by every epoch with the same active links.  Its CSV
    reuses a series' last line only for the same value object, or an
    equal non-zero one of the same type, so the bytes match a writer
    that formats every row.
  - _derive builds all a step derives from net.cfg, net.capacity and the
    installed problem (every Kept, the solvers): in install_problem, and
    at the first step after either is replaced.  build_scenario and run
    read their keys once, each step the rest.
  - install_problem restores the scenario's power and rate boxes
    (_scenario_boxes) before the problem's box rules narrow them, so
    the rules of a problem installed before do not carry over.
  - Values are NamedTuples (ScenarioConfig, Node); what a step reads or
    rewrites is a plain class (Link, Session, NetState, the solvers),
    for cheaper attribute reads, and equals only itself.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from typing import Callable, NamedTuple, TextIO, get_args, get_origin, get_type_hints

from . import expr as ex
from .abstraction import BoxRule, ControlProblem, resolve_model
from .decompose import ControlProgram
from .expr import Env, Expr
from .solve import (CompiledProgram, SolverConfig, clip, compile_program, dual_update,
                    solve_program)

SCHEMES = ("joint", "rate-only", "power-only", "no-control")
MAX_EPOCHS = 10**6   # a run's trace keeps every epoch in memory; to_csv streams it

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


class Kept:
    """The last value computed at one site, and its key: the `count`
    inputs it read, packed as doubles by `packer`, beside any that are
    not numbers (compared with ==).  A site reuses `value` while the key
    it builds equals the kept one; a None key matches nothing."""
    __slots__ = ("packer", "key", "value")

    def __init__(self, count: int):
        self.packer = struct.Struct(f"{count}d")
        self.key = None
        self.value = None

    def keep(self, key, value):
        self.key, self.value = key, value
        return value


class _ScenarioFields(NamedTuple):
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


class ScenarioConfig(_ScenarioFields):
    """The keys of a scenario file (see the module notes for when each is
    read), checked when built and when replaced."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ScenarioConfig:
        return super().__new__(cls, *args, **kwargs)._checked()

    def _replace(self, **changes) -> ScenarioConfig:
        # the tuple's own _replace builds through _make, which skips __new__
        return super()._replace(**changes)._checked()

    def _checked(self) -> ScenarioConfig:
        # congestion_exp below 1 would lift goodput above the bottleneck share
        for key in ("timescale", "packet_bits", "congestion_exp"):
            if not getattr(self, key) >= 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not self.rate_min <= self.rate_max:
            raise ConfigError(f"rate_min {self.rate_min} exceeds rate_max {self.rate_max}")
        # 0 turns slack_clip and the move caps off
        for key in ("max_gain_db", "rate_min", "slack_clip", "power_move_max",
                    "rate_move_max", "rate_iters", "power_iters"):
            if not getattr(self, key) >= 0:
                raise ConfigError(f"{key} must not be negative, got {getattr(self, key)}")
        for key in ("phys_epoch", "rate_step", "power_step", "dual_step"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        # rate_step, power_step, slack_clip and the move caps run at inf
        for key in ("phys_epoch", "max_gain_db", "rate_max", "dual_step"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        for key in ("hop_short", "hop_long", "chain_spacing", "bandwidth", "noise",
                    "pathloss_exp"):
            value = getattr(self, key)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        try:
            power = db_to_linear(self.max_gain_db)
        except OverflowError:
            raise ConfigError(f"max_gain_db {self.max_gain_db} overflows a float") from None
        # no two nodes are closer than the shortest hop or the chain spacing
        shortest = min(self.hop_short, self.hop_long, self.chain_spacing)
        try:
            gain = shortest ** -self.pathloss_exp
        except OverflowError:
            raise ConfigError(f"channel gain over {shortest} m overflows a float") from None
        if not math.isfinite(power * gain / self.noise):
            raise ConfigError(f"SNR at max_gain_db over {shortest} m overflows a float")
        for budget in self.budgets:
            if not (budget >= 0 and math.isfinite(budget)):
                raise ConfigError(f"budgets must be finite and not negative, got {budget}")
        chains, hops, _ = _scenario_shape(self)
        if self.band_pattern and len(self.band_pattern) != chains * hops:
            raise ConfigError(f"band_pattern has {len(self.band_pattern)} entries; "
                              f"scenario {self.scenario} has {chains * hops} links")
        return self


class Node(NamedTuple):
    """A node and its position in metres."""
    index: int
    pos: tuple[float, float]


class Link:
    """A directed link: its channel and its power decision."""
    __slots__ = ("index", "tx", "rx", "band", "bandwidth", "gain", "noise", "cross_gain",
                 "pwr_gain_db", "power_box", "sessions", "capacity_pps", "active")

    def __init__(self, index: int, tx: int, rx: int, band: int, bandwidth: float,
                 gain: float, noise: float, power_box: tuple[float, float],
                 sessions: tuple[int, ...]) -> None:
        self.index, self.tx, self.rx, self.band = index, tx, rx, band
        self.bandwidth, self.gain, self.noise = bandwidth, gain, noise
        self.cross_gain: dict[int, float] = {}   # interferer -> its gain at our receiver
        self.pwr_gain_db, self.power_box = 0.0, power_box
        self.sessions = sessions   # sessions whose path uses this link
        self.capacity_pps = 0.0
        self.active = True


class Session:
    """A session: its path, rate decision, budget and delivered traffic."""
    __slots__ = ("index", "path", "rate", "rate_box", "budget", "sent", "done",
                 "throughput")

    def __init__(self, index: int, path: tuple[int, ...], rate_box: tuple[float, float],
                 budget: float) -> None:
        self.index, self.path = index, path
        self.rate = 1.0
        self.rate_box = rate_box
        self.budget = budget   # packets; 0 = unlimited
        self.sent, self.done, self.throughput = 0.0, False, 0.0


class ConstraintFamily:
    """Runtime face of one abstract constraint: the dual of member j (link
    or session j) at duals[j], and the slack expression evaluated against
    live network state."""
    __slots__ = ("holder", "entity", "lhs", "rhs", "duals", "prev", "slack_fn",
                 "slack_key")

    def __init__(self, holder: str, entity: str, lhs: Expr, rhs: Expr, members: int) -> None:
        self.lhs, self.rhs = lhs, rhs
        self.holder = holder   # netlnk | netses
        self.entity = entity   # link | session
        self.duals = [0.0] * members   # by member index
        self.prev = [0.0] * members    # last epoch's duals
        # every member's rhs - lhs as one compiled function (see
        # _compile_slacks), and the session done flags it was expanded for
        self.slack_fn: Callable[[Env], list[float]] | None = None
        self.slack_key: tuple[bool, ...] | None = None


class NetState:
    """The whole simulated network, its installed problem and its kept values."""
    __slots__ = ("cfg", "nodes", "links", "sessions", "epoch", "families", "link_family",
                 "utility_expr", "utility_fn", "utility_key", "rate_names",
                 "cap_names", "pwr_names", "pending", "programs", "capacity_model", "capacity",
                 "derived_for", "kept_itfs", "kept_slacks", "kept_shares", "kept_utility",
                 "kept_power", "_solvers", "_shared")

    def __init__(self, cfg: ScenarioConfig, nodes: list[Node], links: list[Link],
                 sessions: list[Session]) -> None:
        self.cfg, self.nodes, self.links, self.sessions = cfg, nodes, links, sessions
        self.epoch = 0
        self.families: list[ConstraintFamily] = []
        # the first family over links: its duals price link capacity
        self.link_family: ConstraintFamily | None = None
        self.utility_expr: Expr | None = None
        # utility_expr compiled for (utility_expr, live sessions, active links)
        self.utility_fn: Compiled | None = None
        self.utility_key: tuple[Expr, tuple[int, ...], tuple[int, ...]] | None = None
        # env names of each session's rate and each link's capacity and power
        self.rate_names = self.cap_names = self.pwr_names = ()
        self.pending: list[tuple[tuple[str, int], ControlProgram]] = []
        self.programs: dict[tuple[str, int], ControlProgram] = {}
        self.capacity_model: Expr | None = None   # the problem's lnkcap model, bits/s
        self.capacity: Compiled | None = None     # capacity_model compiled
        self.derived_for: tuple[ScenarioConfig, Compiled] | None = None   # see _derive
        # what _measure, _update_duals, _deliver and sum_utility last
        # computed, and the key of the last power pass that moved no
        # power; all five are built by _derive
        self.kept_itfs = self.kept_slacks = self.kept_shares = None
        self.kept_utility = self.kept_power = None
        # (kind, index) -> solver built from the installed program on first use
        self._solvers: dict[tuple[str, int], _EntitySolver | None] = {}
        # (kind, id(program), shape) -> (program, its compiled solver
        # program), shared by the entities running it with that shape;
        # holding the program keeps its id from being reused
        self._shared: dict[tuple[str, int, int], tuple[ControlProgram, CompiledProgram]] = {}

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


def _scenario_shape(cfg: ScenarioConfig) -> tuple[int, int, tuple[int, ...]]:
    """(chains, hops, band per link in chain-major order)."""
    s = cfg.scenario
    if s in (1, 2, 3):
        # same two-chain topology; only the band-sharing pattern differs:
        # no sharing, then parallel-paired hops, then diagonally paired
        # hops whose short cross distances give the strongest coupling
        return 2, 2, {1: (0, 1, 2, 3), 2: (0, 1, 0, 1), 3: (0, 1, 1, 0)}[s]
    if s == 4:
        return 3, 2, (0, 1, 1, 0, 0, 1)
    if s == 5:
        return 3, 6, tuple(range(6)) * 3
    raise ConfigError(f"unknown scenario {s}; pick one of 1..5")


def build_scenario(cfg: ScenarioConfig) -> NetState:
    """Deterministic topology for scenarios 1-5: parallel session chains
    with per-link band assignments controlling the interference level."""
    chains, hops, pattern = _scenario_shape(cfg)
    if cfg.band_pattern:
        pattern = cfg.band_pattern
    # first chain has shorter hops, so its session finds capacity cheaper
    hop_len = [cfg.hop_short, cfg.hop_long,
               (cfg.hop_short + cfg.hop_long) / 2.0]
    positions = _chain_positions(chains, hops, hop_len, cfg.chain_spacing)
    nodes = [Node(i, p) for i, p in enumerate(positions)]

    power_box, rate_box = _scenario_boxes(cfg)
    links: list[Link] = []
    sessions: list[Session] = []
    for c in range(chains):
        base = c * (hops + 1)
        path = []
        for h in range(hops):
            li = len(links)
            tx, rx = base + h, base + h + 1
            d = math.dist(positions[tx], positions[rx])
            links.append(Link(
                index=li, tx=tx, rx=rx, band=pattern[li],
                bandwidth=cfg.bandwidth, gain=d ** -cfg.pathloss_exp,
                noise=cfg.noise, power_box=power_box, sessions=(c,)))
            path.append(li)
        budget = cfg.budgets[c] if c < len(cfg.budgets) else 0.0
        sessions.append(Session(index=c, path=tuple(path), rate_box=rate_box,
                                budget=budget))

    for li in links:
        for lj in links:
            # half-duplex: a node cannot jam its own reception
            if lj.index == li.index or lj.band != li.band or lj.tx == li.rx:
                continue
            d = math.dist(positions[lj.tx], positions[li.rx])
            li.cross_gain[lj.index] = d ** -cfg.pathloss_exp
    return NetState(cfg, nodes, links, sessions)


def _scenario_boxes(cfg: ScenarioConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """A link's power box and a session's rate box as the scenario sets
    them, before any problem's box rules."""
    return (0.0, cfg.max_gain_db), (cfg.rate_min, cfg.rate_max)


# ---------------------------------------------------------------------------
# capacity through the shared symbolic model

def link_capacity(link: Link, net: NetState, power: float, itf: float) -> float:
    """Capacity in bits/s from the symbolic SINR model, at the link's
    linear power and its aggregate interference `itf` (the sum of
    weighted interferer powers, see _aggregate_interference), which binds
    through (lnkgain_itf=1, itfpwr=itf)."""
    if not link.active:
        return 0.0
    env = {"freq": link.bandwidth, "lnkpwr": power,
           "lnkgain": link.gain, "lnknoise": link.noise,
           "lnkgain_itf": 1.0, "itfpwr": itf}
    if link.noise + itf <= 0.0:
        raise DomainError(f"link {link.index}: non-positive noise+interference")
    return net.capacity(env)


def _linear_powers(net: NetState) -> list[float]:
    """Every link's linear power, by index: 0.0 while inactive."""
    return [db_to_linear(l.pwr_gain_db) if l.active else 0.0 for l in net.links]


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
    the runtime.  The box rules narrow the scenario's boxes, not the boxes
    a problem installed before left."""
    net.families = []
    for c in problem.constraints:
        if c.holder not in ("netlnk", "netses"):
            raise UnresolvableCollectionRule(
                f"constraint family over {c.holder} has no runtime entities")
        entity, members = (("link", net.links) if c.holder == "netlnk"
                           else ("session", net.sessions))
        net.families.append(ConstraintFamily(c.holder, entity, c.lhs, c.rhs, len(members)))
    net.link_family = next((f for f in net.families if f.entity == "link"), None)
    net.utility_expr = problem.utility
    net.rate_names = tuple(ex.var_name("sesrate", s.index) for s in net.sessions)
    net.cap_names = tuple(ex.var_name("lnkcap", l.index) for l in net.links)
    net.pwr_names = tuple(ex.var_name("lnkpwr", l.index) for l in net.links)
    power_box, rate_box = _scenario_boxes(net.cfg)
    for link in net.links:
        link.power_box = power_box
    for s in net.sessions:
        s.rate_box = rate_box
    for rule in problem.box_rules:
        _apply_box_rule(net, rule)
    net.capacity_model = resolve_model(problem.graph, "lnkcap")
    net.capacity = ex.compile_expr(net.capacity_model)
    _derive(net)
    return net


def _derive(net: NetState) -> None:
    """Rebuild every Kept and the solvers (see step)."""
    ns, nl = len(net.sessions), len(net.links)
    net.kept_itfs = Kept(5 * nl)
    net.kept_slacks = Kept(2 * ns + 2 * nl)
    net.kept_shares = Kept(2 * ns + nl)
    net.kept_utility = Kept(2 * ns + 2 * nl)
    net.kept_power = Kept(nl)   # pwr_gain_db, then each link family's prev duals
    net._solvers.clear()
    net._shared.clear()
    net.derived_for = (net.cfg, net.capacity)


def _apply_box_rule(net: NetState, rule: BoxRule) -> None:
    if rule.base == "lnkpwr":
        attr, entity, targets = "power_box", "link", net.links
        top = max(b for b in (rule.lower, rule.upper, 0.0) if b is not None)
        try:
            db_to_linear(top)
        except OverflowError:
            raise DomainError(f"power bound {top!r} dB overflows a float") from None
        if rule.owner is not None:
            holder, idx, via = rule.owner
            if holder != "netses" or via != "seslnk":
                raise UnresolvableCollectionRule(f"box rule owner {rule.owner}")
            if idx >= len(net.sessions):
                raise UnknownEntity(f"session {idx}")
            targets = [net.links[li] for li in net.sessions[idx].path]
    elif rule.base == "sesrate":
        attr, entity, targets = "rate_box", "session", net.sessions
        if rule.owner is not None:
            raise UnresolvableCollectionRule(f"box rule owner {rule.owner}")
    else:
        raise UnresolvableCollectionRule(f"box rule on {rule.base}")
    for target in targets:
        lo, hi = getattr(target, attr)
        lo = lo if rule.lower is None else rule.lower
        hi = hi if rule.upper is None else rule.upper
        if lo > hi:   # refused here, the same way under every scheme
            raise ConfigError(f"{rule.base} on {entity} {target.index}: "
                              f"box lower {lo} exceeds upper {hi}")
        setattr(target, attr, (lo, hi))


def install_program(net: NetState, owner: tuple[str, int],
                    prog: ControlProgram) -> NetState:
    """Queue a program for an entity; it replaces the entity's installed
    program atomically at the next epoch boundary."""
    kind, idx = owner
    if kind not in ("session", "link"):
        raise UnknownEntity(f"unknown entity kind {kind}")
    if idx >= len(net.sessions if kind == "session" else net.links):
        raise UnknownEntity(f"{kind} {idx}")
    collectable = ("self", "seslnk") if kind == "session" else ("self",)
    for rule in prog.collect:
        if rule.symbol not in collectable:
            raise UnresolvableCollectionRule(
                f"{rule.symbol} cannot be collected by a {kind}")
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

class _EntitySolver:
    """One entity's solver: the shared compiled program and the entity's
    wiring.  A solver is equal only to itself (see _power_key)."""

    def __init__(self, program: CompiledProgram, cfg: SolverConfig,
                 lam_sources: list[tuple[int, str, int]], self_family: int | None,
                 neighbours: tuple[tuple[int, tuple[str, ...]], ...] = (),
                 kept: Kept | None = None) -> None:
        self.program = program   # shared by the entities of the same shape
        # the entity's own box, keyed by the program's decision variable
        # so that cfg.box finds it at once
        self.cfg = cfg
        self.var, self.anchor = program.var, f"{program.var}_anchor"
        # sessions: (family index, env name by hop, link) per collected dual
        self.lam_sources, self.self_family = lam_sources, self_family
        # links: each victim j (a link whose capacity this link's power
        # lowers) with its slot's _NEIGHBOUR_PARAMS env names, by index
        self.neighbours = neighbours
        self.kept = kept   # links: see solve

    def solve(self, params: Env) -> float:
        """The decision for params.  Only a solve that leaves the decision
        at its anchor is kept: after a move the next solve starts from the
        moved anchor, so its parameters differ."""
        kept, key = self.kept, None
        if kept.key is not None:
            key = kept.packer.pack(*params.values())
            if key == kept.key:
                return kept.value
        decision = solve_program(self.program, params, self.cfg)[self.var]
        if decision == params[self.anchor]:
            kept.keep(key or kept.packer.pack(*params.values()), decision)
        else:
            kept.key = None
        return decision


def _shared_program(net: NetState, kind: str, prog: ControlProgram,
                    shape: int) -> CompiledProgram:
    """The compiled program of every `kind` entity that runs prog and has
    this shape (a link's victim count, a session's path length),
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
    return compile_program(prog._replace(objective=objective))


def _session_solver(net: NetState, s: Session, prog: ControlProgram) -> _EntitySolver:
    lam_sources: list[tuple[int, str, int]] = []
    self_family = None
    for rule in prog.collect:
        if rule.symbol == "self":
            self_family = rule.family
        else:
            lam_sources.extend((rule.family, ex.var_name("lbd", hop), li)
                               for hop, li in enumerate(s.path))
    program = _shared_program(net, "session", prog, len(s.path))
    cfg = SolverConfig(step=net.cfg.rate_step, max_iters=net.cfg.rate_iters, tol=1e-9,
                       boxes={program.var: s.rate_box}, max_move=net.cfg.rate_move_max)
    return _EntitySolver(program, cfg, lam_sources, self_family)


# what _solve_power binds for each victim, in this order
_NEIGHBOUR_PARAMS = ("lbd_itf", "itf_freq", "itf_lnkpwr", "itf_lnkgain",
                     "itf_lnkgain_itf", "itf_lnknoise")


def _link_program(net: NetState, prog: ControlProgram, slots: int) -> CompiledProgram:
    # capacity in packets/s so the objective shares the dual's units
    model = ex.div(net.capacity_model, ex.const(net.cfg.packet_bits))
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
    return compile_program(prog._replace(objective=objective, decision="pwrgain"))


def _link_solver(net: NetState, link: Link, prog: ControlProgram) -> _EntitySolver:
    victims = _victims(net)[link.index] if prog.penalty is not None else []
    neighbours = tuple((v.index, tuple(f"{p}@{slot}" for p in _NEIGHBOUR_PARAMS))
                       for slot, v in enumerate(victims))
    self_family = next((r.family for r in prog.collect if r.symbol == "self"), None)
    program = _shared_program(net, "link", prog, len(neighbours))
    # _solve_power binds 8 parameters of the link's own, then its victims'
    kept = Kept(8 + len(_NEIGHBOUR_PARAMS) * len(neighbours))
    cfg = SolverConfig(step=net.cfg.power_step, max_iters=net.cfg.power_iters, tol=1e-9,
                       boxes={program.var: link.power_box}, max_move=net.cfg.power_move_max)
    return _EntitySolver(program, cfg, [], self_family, neighbours, kept)


def _get_solver(net: NetState, kind: str, idx: int) -> _EntitySolver | None:
    key = (kind, idx)
    try:
        return net._solvers[key]
    except KeyError:
        pass
    prog = net.programs.get(key)
    build, entities = ((_session_solver, net.sessions) if kind == "session"
                       else (_link_solver, net.links))
    solver = net._solvers[key] = None if prog is None else build(net, entities[idx], prog)
    return solver


# ---------------------------------------------------------------------------
# the event loop

class Layout:
    """The rows of one recorded epoch: each value's (kind, eid, metric)
    key, and its CSV head "kind,eid,metric,", formatted once."""
    __slots__ = ("keys", "heads")

    def __init__(self, keys):
        self.keys = tuple(keys)
        self.heads = tuple(f"{k},{e},{m}," for k, e, m in self.keys)


class Trace:
    """A run's records, stored by epoch as (t, layout, values): `values`
    is that epoch's flat list, in the order of `layout.keys`.  Epochs
    whose layout inputs repeat share one Layout; `layouts` keeps them,
    keyed by those inputs (see _record).  `rows` is the derived view of
    (t, kind, eid, metric, value) records, in recording order; `series`,
    `values` and `mean` read one series through the layouts instead.
    The trace is held in memory; `to_csv` streams it epoch by epoch, so
    its CSV text never is."""
    __slots__ = ("epochs", "layouts")

    def __init__(self):
        self.epochs: list[tuple[float, Layout, list[float]]] = []
        self.layouts: dict = {}

    @classmethod
    def from_rows(cls, rows) -> Trace:
        """A trace of the given records; consecutive rows whose times
        print alike form one epoch."""
        trace = cls()
        for _, group in itertools.groupby(rows, key=lambda row: repr(row[0])):
            group = list(group)
            keys = tuple((k, e, m) for (_, k, e, m, _) in group)
            layout = trace.layouts.get(keys)
            if layout is None:
                layout = trace.layouts[keys] = Layout(keys)
            trace.epochs.append((group[0][0], layout, [row[4] for row in group]))
        return trace

    @property
    def rows(self) -> list[tuple[float, str, int, str, float]]:
        return [(t, k, e, m, v) for t, layout, values in self.epochs
                for (k, e, m), v in zip(layout.keys, values)]

    def _select(self, kind: str, metric: str, eid: int | None):
        """(t, value) of each matching row, in row order; an eid of None
        matches every entity.  Each layout is searched once."""
        picks: dict[Layout, list[int]] = {}
        for t, layout, values in self.epochs:
            idx = picks.get(layout)
            if idx is None:
                idx = picks[layout] = [
                    i for i, (k, e, m) in enumerate(layout.keys)
                    if k == kind and m == metric and (eid is None or e == eid)]
            for i in idx:
                yield t, values[i]

    def series(self, kind: str, eid: int, metric: str) -> list[tuple[float, float]]:
        return list(self._select(kind, metric, eid))

    def values(self, kind: str, metric: str, eid: int | None = None) -> list[float]:
        return [v for _, v in self._select(kind, metric, eid)]

    def mean(self, kind: str, metric: str, eid: int | None = None,
             tail: float = 1.0) -> float:
        return tail_mean(self.values(kind, metric, eid), f"{kind}/{metric}", tail)

    def to_csv(self, out: TextIO) -> None:
        """Write the trace to `out` as CSV, one line per row: the header,
        then each epoch's block in one write, then the final newline, so
        the whole CSV is never built in memory.  Where an epoch has the
        layout of the one before, a series keeps its last line while its
        value is the same object, or an equal non-zero one of the same
        type: those print alike, where == alone would not (0.0 == -0.0,
        1 == 1.0)."""
        out.write("time,entity_kind,entity_id,metric,value")
        last_layout, last_values, lines = None, (), ()
        for t, layout, values in self.epochs:
            if layout is last_layout:
                lines = [line if v is u or (v == u and v and type(v) is type(u))
                         else head + repr(v)
                         for head, v, u, line in zip(layout.heads, values,
                                                     last_values, lines)]
            else:
                lines = [head + repr(v) for head, v in zip(layout.heads, values)]
            stamp = f"\n{t!r},"
            out.write(stamp + stamp.join(lines))
            last_layout, last_values = layout, values
        out.write("\n")


def tail_mean(vals: list[float], what: str, tail: float = 1.0) -> float:
    """The mean of the last `tail` share of vals (at least one value),
    folded left from 0; `what` names the records in the error for none."""
    if not vals:
        raise NetsimError(f"no {what} records")
    n = max(1, int(len(vals) * tail))
    vals = vals[-n:]
    return ex.left_sum(vals) / len(vals)


def _measure(net: NetState, powers: list[float]) -> list[float]:
    """Every link's interference under `powers`, by index, with its
    capacity_pps set.  A repeat of the powers, and of each link's active
    flag, channel values and cross gains, returns a copy of the kept
    list; otherwise every capacity is recomputed.  The rest of the key
    is built only where the powers repeat the last call's, or on the
    first call."""
    kept, links, bits = net.kept_itfs, net.links, net.cfg.packet_bits
    last = kept.value   # (powers, itfs) of the last call
    key = None
    if last is None or powers == last[0]:
        values = powers[:]
        for l in links:
            values += (l.active, l.bandwidth, l.gain, l.noise)
        # == on gains is exact: a zero's sign never reaches a sum folded from 0
        key = (kept.packer.pack(*values), [l.cross_gain for l in links])
        if key == kept.key:
            return last[1][:]
        key = (key[0], [dict(gains) for gains in key[1]])   # for in-place edits
    itfs = [_aggregate_interference(l, net, powers) for l in links]
    for link, power, itf in zip(links, powers, itfs):
        link.capacity_pps = link_capacity(link, net, power, itf) / bits
    kept.keep(key, (powers[:], itfs[:]))
    return itfs


def _victims(net: NetState) -> list[list[Link]]:
    """Each link's victims, by index: the links whose sums read its power."""
    victims: list[list[Link]] = [[] for _ in net.links]
    for link in net.links:
        for j in link.cross_gain:
            victims[j].append(link)
    return victims


def _runtime_bindings(net: NetState, powers: list[float]) -> Env:
    env: Env = {}
    for name, s in zip(net.rate_names, net.sessions):
        env[name] = 0.0 if s.done else s.rate
    for cap, pwr, l, p in zip(net.cap_names, net.pwr_names, net.links, powers):
        env[cap] = l.capacity_pps
        env[pwr] = p
    return env


def _family_slacks(net: NetState, fam: ConstraintFamily, env: Env) -> list[float]:
    """Each member's slack, by member index, clipped to net.cfg.slack_clip."""
    key = tuple(s.done for s in net.sessions)
    if fam.slack_key != key:
        fam.slack_fn = _compile_slacks(net, fam)
        fam.slack_key = key
    slacks = fam.slack_fn(env)
    limit = net.cfg.slack_clip
    if limit > 0:
        slacks = [clip(x, -limit, limit) for x in slacks]
    return slacks


def _compile_slacks(net: NetState, fam: ConstraintFamily) -> Callable[[Env], list[float]]:
    """Every member's rhs - lhs, its sums expanded over the sessions that
    have not finished, as one compiled function (expr.compile_slacks)."""
    pairs = []
    for m in range(len(net.links if fam.entity == "link" else net.sessions)):
        if fam.entity == "link":
            bindings = {"lnkses": [si for si in net.links[m].sessions
                                   if not net.sessions[si].done]}
        else:
            bindings = {"seslnk": list(net.sessions[m].path)}
        lhs = ex.expand_sums(ex.bind_index(fam.lhs, fam.holder, m), bindings)
        rhs = ex.expand_sums(ex.bind_index(fam.rhs, fam.holder, m), bindings)
        pairs.append((lhs, rhs))
    return ex.compile_slacks(pairs)


def _update_duals(net: NetState, powers: list[float]) -> None:
    """One dual step for every family, of net.cfg.dual_step, on slacks
    reused while the masked rates, capacities, `powers` and done flags
    repeat."""
    sessions, kept = net.sessions, net.kept_slacks
    values = [0.0 if s.done else s.rate for s in sessions]
    values += [l.capacity_pps for l in net.links]
    values += powers
    values += [s.done for s in sessions]
    key = kept.packer.pack(*values)
    if key != kept.key:
        env = _runtime_bindings(net, powers)
        kept.keep(key, [_family_slacks(net, fam, env) for fam in net.families])
    step = net.cfg.dual_step
    for fam, slacks in zip(net.families, kept.value):
        fam.prev = fam.duals
        fam.duals = dual_update(fam.duals, slacks, step)


def _solve_power(net: NetState, link: Link, powers: list[float],
                 itfs: list[float]) -> None:
    """Solve one link's power program; `powers` and `itfs` hold every
    link's linear power (see _linear_powers) and interference as the
    epoch's earlier solves left them."""
    i = link.index
    solver = _get_solver(net, "link", i)
    if solver is None or not link.active:
        return
    own = powers[i]
    env: Env = {
        "freq": link.bandwidth, "lnkgain": link.gain, "lnknoise": link.noise,
        "lnkgain_itf": 1.0, "itfpwr": itfs[i],
        "pwrgain_anchor": link.pwr_gain_db, "lnkpwr_anchor": own,
        "lbd": _self_lambda(net, solver, i),
    }
    if solver.neighbours:
        cap, links = net.link_family, net.links
        prices = [0.0] * len(links) if cap is None else cap.prev
        for j, (lbd, freq, pwr, gain, gain_itf, noise) in solver.neighbours:
            lj = links[j]
            back = lj.cross_gain.get(i, 0.0)
            env[lbd] = prices[j] if lj.active else 0.0
            env[freq] = lj.bandwidth
            env[pwr] = powers[j]
            env[gain] = lj.gain
            env[gain_itf] = back
            other = itfs[j] - back * own
            # max(0.0, other), without the call: 0.0 for -0.0 and nan too
            env[noise] = lj.noise + (other if other > 0.0 else 0.0)
    link.pwr_gain_db = solver.solve(env)


def _power_key(net: NetState) -> list:
    """What a power pass reads beyond the kept key of this epoch's
    _measure (the powers, active flags, channel values and cross gains):
    every link's pwr_gain_db and every link family's prev dual by link,
    packed (so -0.0 and 0.0 differ), and the solvers."""
    pack, links = net.kept_power.packer.pack, net.links
    key = [net.kept_itfs.key, pack(*[l.pwr_gain_db for l in links])]
    for fam in net.families:
        if fam.entity == "link":
            key.append(pack(*fam.prev))
    key.append(list(net._solvers.values()))
    return key


def _power_pass(net: NetState, powers: list[float], itfs: list[float]) -> None:
    """Solve every link's power program in index order; each solve sees
    the powers and interference the earlier ones left.  A pass in which
    no solve moved its link's pwr_gain_db keeps its key (built only when
    _measure built one); a pass whose key equals it would only reuse
    those decisions, and is skipped."""
    kept, key = net.kept_power, None
    if net.kept_itfs.key is not None:
        key = _power_key(net)
        if key == kept.key:
            return
    victims = None   # built when a power first moves
    for link in net.links:
        anchor = link.pwr_gain_db
        _solve_power(net, link, powers, itfs)
        if link.pwr_gain_db != anchor:
            key = None   # this solve moved its decision
        power = db_to_linear(link.pwr_gain_db) if link.active else 0.0
        if power != powers[link.index]:
            powers[link.index] = power
            # refold only the sums that read this power
            if victims is None:
                victims = _victims(net)
            for victim in victims[link.index]:
                itfs[victim.index] = _aggregate_interference(victim, net, powers)
    kept.key = key


def _self_lambda(net: NetState, solver: _EntitySolver, member: int) -> float:
    if solver.self_family is None:
        return 0.0
    return net.families[solver.self_family].prev[member]


def _solve_rate(net: NetState, s: Session) -> None:
    solver = _get_solver(net, "session", s.index)
    if solver is None or s.done:
        return
    env: Env = {"sesrate_anchor": s.rate,
                "lbd": _self_lambda(net, solver, s.index)}
    for fam_ord, name, li in solver.lam_sources:
        env[name] = net.families[fam_ord].prev[li]
    decision = solve_program(solver.program, env, solver.cfg)
    s.rate = decision["sesrate"]


def _shares(net: NetState) -> list[float]:
    """Each session's throughput, by index: its rate scaled by the worst
    proportional capacity share along its path (0.0 once done)."""
    demand: dict[int, float] = {}
    for s in net.sessions:
        if not s.done:
            for li in s.path:
                demand[li] = demand.get(li, 0.0) + s.rate
    throughputs = [0.0] * len(net.sessions)
    for i, s in enumerate(net.sessions):
        if s.done:
            continue
        share = 1.0
        for li in s.path:
            cap = net.links[li].capacity_pps
            if demand[li] > 0:
                share = min(share, cap / demand[li])
        # overloading a link wastes goodput on retransmissions: the share
        # factor collapses with the overload ratio (reliable transport)
        throughput = s.rate * min(1.0, share) ** net.cfg.congestion_exp
        # conservation: never beyond the bottleneck's proportional share
        for li in s.path:
            cap = net.links[li].capacity_pps
            if demand[li] > 0 and not throughput <= cap * s.rate / demand[li] + 1e-9:
                raise NetsimError(f"session {s.index}: throughput {throughput!r} "
                                  f"breaks conservation on link {li}")
        throughputs[i] = throughput
    return throughputs


def _deliver(net: NetState) -> None:
    """Set every session's throughput, reused while the capacities, rates
    and done flags repeat, and account what it sent against its budget."""
    sessions, kept = net.sessions, net.kept_shares
    values = [l.capacity_pps for l in net.links]
    values += [s.rate for s in sessions]
    values += [s.done for s in sessions]
    key = kept.packer.pack(*values)
    if key != kept.key:
        kept.keep(key, _shares(net))
    for s, throughput in zip(sessions, kept.value):
        s.throughput = throughput
        if s.budget > 0 and not s.done:
            s.sent += throughput * net.cfg.phys_epoch
            if s.sent >= s.budget:
                s.done = True
                for link in (net.links[li] for li in s.path):
                    if all(net.sessions[u].done for u in link.sessions):
                        link.active = False


def sum_utility(net: NetState) -> float:
    """The problem utility evaluated on achieved throughput (packets/s)
    and live powers, in maximize sense (a `min U` problem reads -U).  The
    value is kept, and returned again while every session's (done,
    throughput) and every link's (active, pwr_gain_db) are what it was
    computed for, bit for bit."""
    if net.utility_expr is None:
        return 0.0
    sessions, links, kept = net.sessions, net.links, net.kept_utility
    values = [s.throughput for s in sessions]
    values += [l.pwr_gain_db for l in links]
    values += [s.done for s in sessions]
    values += [l.active for l in links]
    key = kept.packer.pack(*values)
    if key == kept.key:
        return kept.value
    topology = (net.utility_expr, tuple(s.index for s in sessions if not s.done),
                tuple(l.index for l in links if l.active))
    if net.utility_key != topology:
        _, live_s, live_l = topology
        e = ex.expand_sums(net.utility_expr, {"netses": live_s, "netlnk": live_l})
        net.utility_fn = ex.compile_expr(e)
        net.utility_key = topology
    env: Env = {}
    for name, s in zip(net.rate_names, sessions):
        env[name] = max(s.throughput, 1e-6)
    for name, power in zip(net.pwr_names, _linear_powers(net)):
        env[name] = power
    return kept.keep(key, net.utility_fn(env))


def _layout(net: NetState) -> Layout:
    """The rows _record writes for net's live active flags."""
    keys = [("session", s.index, "throughput_pps") for s in net.sessions]
    for link in net.links:
        if link.active:
            keys.append(("node", link.tx, "power_gain_db"))
        keys.append(("link", link.index, "lambda"))
    keys.append(("net", 0, "sum_utility"))
    return Layout(keys)


def _record(net: NetState, trace: Trace) -> None:
    """Append this epoch's values to trace: each session's throughput,
    then for each link its node's power (while active) and its lambda,
    then the utility.  A trace records one network, so its layout follows
    from the links' active flags alone."""
    t = net.clock
    cap = net.link_family
    lams = [0.0] * len(net.links) if cap is None else cap.duals
    values = [s.throughput for s in net.sessions]
    for link, lam in zip(net.links, lams):
        if link.active:
            values.append(link.pwr_gain_db)
        values.append(lam)
    values.append(sum_utility(net))
    active = tuple([link.active for link in net.links])
    layout = trace.layouts.get(active)
    if layout is None:
        layout = trace.layouts[active] = _layout(net)
    trace.epochs.append((t, layout, values))


def step(net: NetState, scheme: str = "joint") -> NetState:
    """Advance one physical epoch: measure capacities, update duals, run
    the physical-layer programs, run the transport programs every
    timescale-th epoch, then account delivered traffic.  The physical
    pass is skipped when it would only reuse the decisions of the last
    one (see _power_pass).  A replaced net.cfg or net.capacity takes
    effect in full at the next step (see _derive)."""
    if net.derived_for is None:
        raise NetsimError("install_problem must run before step")
    if net.derived_for[0] is not net.cfg or net.derived_for[1] is not net.capacity:
        _derive(net)
    _apply_pending(net)
    powers = _linear_powers(net)
    itfs = _measure(net, powers)
    _update_duals(net, powers)
    if scheme in ("joint", "power-only"):
        _power_pass(net, powers, itfs)
    if scheme in ("joint", "rate-only") and net.epoch % net.cfg.timescale == 0:
        for s in net.sessions:
            _solve_rate(net, s)
    _deliver(net)
    net.epoch += 1
    # feasibility invariants hold at every epoch
    for fam in net.families:
        for v in fam.duals:
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
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    ratio = duration / net.cfg.phys_epoch
    if not math.isfinite(ratio) or round(ratio) < 1:
        raise ConfigError(f"duration must be finite and last at least one "
                          f"{net.cfg.phys_epoch!r} s epoch, got {duration!r}")
    if round(ratio) > MAX_EPOCHS:
        raise ConfigError(f"duration {duration!r} s is {ratio:.3g} epochs of "
                          f"{net.cfg.phys_epoch!r} s; a run takes at most {MAX_EPOCHS}")
    rng = random.Random(net.cfg.seed)
    for s in net.sessions:
        s.rate = rng.uniform(*s.rate_box)
    for link in net.links:
        link.pwr_gain_db = rng.uniform(*link.power_box)
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
    Tuple-valued keys take comma-separated lists; a key may appear once."""
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
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        tp = _CFG_TYPES[key]
        try:
            if get_origin(tp) is tuple:
                values[key] = tuple(get_args(tp)[0](x) for x in val.split(",") if x != "")
            else:
                values[key] = tp(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    return ScenarioConfig(**values)

"""Numerical engine: projected gradient ascent over a box for control
programs, projected subgradient updates for the duals, and a brute-force
grid oracle used as independent ground truth in tests.

Every control program owns one decision variable: dual decomposition
leaves each entity a subproblem in its own rate or power.  Gradients
always come from symbolic differentiation of the objective, so solver
behavior is deterministic and reproducible.  A program is compiled once
(compile_program) into the one generated function its mode runs: a
program solved by ascent into its fused loop, which holds the whole
ascent loop, computes each value that does not depend on the decision
once per call, and returns the generic loop's floats.  The generic
loop's objective and gradient are compiled at their first call: in
gradient mode, or where the fused loop gives up.  dual_loop computes
every dual's slack with one generated function (expr.compile_slacks).
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from . import expr as ex
from .decompose import LBD, ControlProgram, DualProblem, split_by_layer, split_by_entity
from .expr import Env, Expr
from .instantiate import InstantiatedProblem


class SolveError(Exception):
    pass


class NumericalError(SolveError):
    pass


class InfeasibleEverywhere(SolveError):
    pass


class SolverConfig:
    """Steps, iteration limits, tolerance and boxes of a solve, checked when
    built and by _replace, the only way to change one; equal field by field.
    Only dual_loop reads dual_step and diminishing."""
    __slots__ = ("step", "dual_step", "max_iters", "tol", "boxes", "diminishing",
                 "max_move")

    def __init__(self, step: float = 0.05, dual_step: float = 0.05, max_iters: int = 500,
                 tol: float = 1e-6, boxes: dict[str, tuple[float, float]] | None = None,
                 diminishing: bool = False, max_move: float = 0.0) -> None:
        self.step, self.dual_step, self.max_iters, self.tol = step, dual_step, max_iters, tol
        self.boxes = {} if boxes is None else boxes
        self.diminishing = diminishing   # dual_loop's step decays as dual_step/sqrt(t)
        self.max_move = max_move         # per-iteration trust cap on |step*grad|; 0 = off
        if step <= 0 or dual_step <= 0 or tol <= 0:
            raise SolveError("steps and tolerance must be positive")
        for name, (lo, hi) in self.boxes.items():
            if lo > hi:
                raise SolveError(f"{name}: box lower {lo} exceeds upper {hi}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def _replace(self, **changes) -> SolverConfig:
        return SolverConfig(**{**{k: getattr(self, k) for k in self.__slots__}, **changes})

    def box(self, name: str) -> tuple[float, float]:
        """The bounds of name, else of its base (name without _NN)."""
        box = self.boxes.get(name)
        if box is None:
            box = self.boxes.get(name.rsplit("_", 1)[0])
            if box is None:
                raise SolveError(f"no box bounds for {name}")
        return box


def clip(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


# fused(params, lo, hi, cfg) -> (decision, objective evals, gradient
# evals), or None where the generic loop must run instead
Fused = Callable[[Env, float, float, SolverConfig], "tuple[float, int, int] | None"]


class CompiledProgram(NamedTuple):
    """A control program ready to run: the objective and its derivative
    in the program's one decision variable `var`, each compiled at its
    first call (see _OnFirstCall), and for a program solved by ascent
    `fused`, the whole ascent loop as one function, compiled with the
    program.  So a program defines generated functions only for what
    runs: an ascent program its fused loop, and the generic loop its
    objective and gradient once it calls them (gradient mode calls only
    the gradient)."""
    prog: ControlProgram
    var: str
    objective: Callable[[Env], float]
    grad: Callable[[Env], float]
    fused: Fused | None = None


class _OnFirstCall:
    """ex.compile_expr(tree), compiled when first called: it raises what
    the compiled function raises, from the first call on."""
    __slots__ = ("tree", "fn")

    def __init__(self, tree: Expr) -> None:
        self.tree, self.fn = tree, None

    def __call__(self, env: Env) -> float:
        if self.fn is None:
            self.fn = ex.compile_expr(self.tree)
        return self.fn(env)


def compile_program(prog: ControlProgram) -> CompiledProgram:
    """Differentiate a program's (concrete) objective once, so that
    solve_program can run it any number of times.  The objective must
    hold exactly one variable named by prog.decision (the base name or
    one indexed instance of it): the program's own decision.  A program
    solved by ascent is compiled into `fused` (see _fuse), which computes
    each value that does not depend on the decision once per call; the
    objective and gradient functions are compiled only if called."""
    if ex.contains_bigsum(prog.objective):
        raise SolveError("objective still contains unexpanded collection sums")
    owned = sorted(ex.var_name(b, i) for b, i in prog.objective.var_pairs
                   if b == prog.decision)
    if not owned:
        raise SolveError(f"objective has no {prog.decision} variable")
    if len(owned) > 1:
        raise SolveError(f"objective has {len(owned)} {prog.decision} variables "
                         f"({', '.join(owned)}); a program owns one")
    var, = owned
    trees = [prog.objective, ex.differentiate(prog.objective, var)]
    fused = _fuse(var, trees) if prog.mode != "gradient" else None
    return CompiledProgram(prog, var, *map(_OnFirstCall, trees), fused)


_FUSED = """\
def fused(params, lo, hi, cfg):
    step, max_move, tol = cfg.step, cfg.max_move, cfg.tol
    try:
{reads}\
        x = params.get({anchor!r}, (lo + hi) / 2.0)
        x = lo if x < lo else hi if x > hi else x
{invariant}\
        p = x
{objective_start}\
        current = {objective}
        n_obj, n_grad = 1, 0
        if not _isfinite(current):
            return None
        for _ in range(cfg.max_iters):
{gradient}\
            g = {grad}
            n_grad += 1
            if not _isfinite(g):
                return None
            scale = 1.0
            for _ in range(30):
                delta = scale * step * g
                if max_move > 0:
                    delta = (-max_move if delta < -max_move
                             else max_move if delta > max_move else delta)
                c = x + delta
                c = lo if c < lo else hi if c > hi else c
                moved = (c - x) ** 2
                if moved == 0.0:
                    break
                p = c
{objective_trial}\
                trial = {objective}
                n_obj += 1
                if trial >= current:
                    break
                scale *= 0.5
            else:
                break
            if moved == 0.0:
                break
            x = c
            current = trial
            if _sqrt(moved) < tol:
                break
        if not _isfinite(current):
            return None
        return x, n_obj, n_grad
    except Exception:
        return None
"""


def _fuse(v: str, trees: list[Expr]) -> Fused:
    """solve_program's ascent loop for the decision variable v, over the
    objective and gradient trees, as one generated function with the
    same operations in the same order, so it returns the same decision
    as the generic loop.  Each parameter is read from params once, and
    the decision is the local p.  Equal subtrees are computed once
    (SourceGen), every line that does not vary with p runs once before
    the loop, and the gradient reuses the values the objective computed
    at p: the gradient is only ever evaluated at the point of the last
    objective evaluation (the start, or the trial just accepted).  Where
    anything raises or a value is not finite, the function returns None
    instead, and solve_program runs the generic loop from the start:
    that loop, not the merged and reordered work here, decides which
    error a call raises (an unbound parameter, a domain error, a
    non-finite value, a parameter that is not a number)."""
    gen = ex.SourceGen(env="params")
    gen.bind(v, "p")
    objective = gen.emit(trees[0])
    grad_from = len(gen.lines)
    grad = gen.emit(trees[1])
    invariant = [line for line in gen.lines if line[0] not in gen.varying]
    obj_lines, grad_lines = ([line for line in lines if line[0] in gen.varying]
                             for lines in (gen.lines[:grad_from], gen.lines[grad_from:]))
    source = _FUSED.format(
        reads=gen.source(gen.reads, 8), anchor=f"{v}_anchor",
        invariant=gen.source(invariant, 8),
        objective_start=gen.source(obj_lines, 8),
        objective_trial=gen.source(obj_lines, 16), objective=objective,
        gradient=gen.source(grad_lines, 12), grad=grad)
    return gen.define(source, "fused", _isfinite=math.isfinite, _sqrt=math.sqrt)


def solve_program(prog: CompiledProgram | ControlProgram, params: Env,
                  cfg: SolverConfig) -> dict[str, float]:
    """Projected gradient ascent on the program's objective over its one
    decision variable.  A plain ControlProgram is compiled first; callers
    that solve one program repeatedly pass its CompiledProgram.  All
    foreign variables and dual values must be bound in params; the anchor
    defaults to the `<var>_anchor` entry, else the box midpoint.  A
    program with a fused function runs that; the generic loop below runs
    only where it returns None, and then raises what it always raised.
    Returns {var: converged decision}."""
    if isinstance(prog, ControlProgram):
        prog = compile_program(prog)
    v, fused = prog.var, prog.fused
    lo, hi = cfg.box(v)
    if fused is not None:
        done = fused(params, lo, hi, cfg)
        if done is not None:
            return {v: done[0]}

    obj, grad = prog.objective, prog.grad
    env = dict(params)
    x = env[v] = clip(params.get(f"{v}_anchor", (lo + hi) / 2.0), lo, hi)

    # Case-2 gradient mode is a single raw projected first-order step
    if prog.prog.mode == "gradient":
        return {v: clip(x + cfg.step * grad(env), lo, hi)}

    current = obj(env)
    if not math.isfinite(current):
        raise NumericalError("non-finite objective at start")
    for _ in range(cfg.max_iters):
        g = grad(env)
        if not math.isfinite(g):
            raise NumericalError(f"non-finite gradient for {v}")
        # projected step, halved until the objective does not decrease
        scale = 1.0
        for _ in range(30):
            delta = scale * cfg.step * g
            if cfg.max_move > 0:
                delta = clip(delta, -cfg.max_move, cfg.max_move)
            cand = clip(x + delta, lo, hi)
            try:
                moved = (cand - x) ** 2
            except OverflowError:
                raise NumericalError(f"non-finite move for {v}") from None
            if moved == 0.0:
                break
            trial = obj({**env, v: cand})
            if trial >= current:
                break
            scale *= 0.5
        else:
            break
        if moved == 0.0:
            break
        x = env[v] = cand
        current = trial
        if math.sqrt(moved) < cfg.tol:
            break
    if not math.isfinite(current):
        raise NumericalError("non-finite objective at solution")
    return {v: x}


def dual_update(duals: list[float], slacks: list[float], step: float) -> list[float]:
    """Projected subgradient step on the duals, by position: lbd_j <-
    max(0, lbd_j - step * slack_j), slack_j = rhs_j - lhs_j at the current
    decisions.  Slacks of another length than the duals are refused."""
    if len(slacks) != len(duals):
        raise SolveError(f"{len(slacks)} slacks for {len(duals)} duals")
    # max(0.0, x), without the call: 0.0 for -0.0 and nan too
    return [x if (x := lam - step * slack) > 0.0 else 0.0
            for lam, slack in zip(duals, slacks)]


def centralized_oracle(inst: InstantiatedProblem, resolution: float,
                       params: Env | None = None,
                       boxes: dict[str, tuple[float, float]] | None = None,
                       ) -> tuple[dict[str, float], float]:
    """Exhaustive grid search over the feasible box: the independent ground
    truth the distributed pipeline is checked against.  Limited to small
    decision counts by design.  Returns the best point and its utility,
    which is maximized (a `min U` problem reports -U)."""
    sub = {k: ex.const(v) for k, v in (params or {}).items()}
    utility = ex.substitute(inst.utility, sub)
    cstrs = [(ex.substitute(c.lhs, sub), ex.substitute(c.rhs, sub))
             for c in inst.constraints]
    names = list(inst.decision_vars)
    if len(names) > 6:
        raise SolveError(f"oracle limited to 6 decision variables, got {len(names)}")
    all_boxes = dict(inst.boxes)
    all_boxes.update(boxes or {})
    grids: dict[str, list[float]] = {}
    for v in names:
        lo, hi = all_boxes.get(v, (None, None))
        if lo is None or hi is None:
            raise SolveError(f"{v}: oracle needs finite box bounds")
        n = int(round((hi - lo) / resolution))
        grids[v] = [lo + k * resolution for k in range(n + 1)]

    free = set(ex.free_vars(utility))
    for lhs, rhs in cstrs:
        free |= ex.free_vars(lhs) | ex.free_vars(rhs)
    unknown = free - set(names)
    if unknown:
        raise SolveError(f"oracle: unbound parameters {sorted(unknown)}")

    # constraints become checkable once all their variables are assigned
    depth_of = {v: i for i, v in enumerate(names)}
    checks: list[list] = [[] for _ in names]
    for lhs, rhs in cstrs:
        vs = ex.free_vars(lhs) | ex.free_vars(rhs)
        d = max((depth_of[v] for v in vs), default=0)
        checks[d].append((ex.compile_expr(lhs), ex.compile_expr(rhs)))
    util_fn = ex.compile_expr(utility)

    best: dict[str, float] | None = None
    best_val = -math.inf
    env: Env = {}

    def descend(depth: int) -> None:
        nonlocal best, best_val
        if depth == len(names):
            val = util_fn(env)
            if val > best_val:
                best_val = val
                best = dict(env)
            return
        v = names[depth]
        for g in grids[v]:
            env[v] = g
            if all(l(env) <= r(env) + 1e-12 for l, r in checks[depth]):
                descend(depth + 1)
        del env[v]

    descend(0)
    if best is None:
        raise InfeasibleEverywhere("no feasible grid point")
    return best, best_val


class LoopResult(NamedTuple):
    """The outcome of dual_loop: averaged decisions, the duals by position
    (duals[j] absorbs dp.registry[j]) and the utility, in maximize sense."""
    decisions: dict[str, float]       # running-average (ergodic) decision
    duals: list[float]
    utility: float                    # problem utility at the averaged decision


def dual_loop(dp: DualProblem, cfg: SolverConfig, epochs: int,
              seed: int = 0, params: Env | None = None) -> LoopResult:
    """The full distributed loop at design scale: solve every entity
    subproblem against the current duals, update the duals from the
    constraint slacks, repeat.  The dual step is cfg.dual_step, divided by
    sqrt(t) at epoch t when cfg.diminishing is set.  The reported decision
    is the running average of iterates (standard primal recovery for
    constant-step dual subgradient)."""
    inst = dp.inst
    graph = inst.problem.graph
    layers, _ = split_by_layer(dp, graph)
    subs = [s for layer in layers.values() for s in split_by_entity(layer, graph)]
    programs = []
    for s in subs:
        ctrl = min((b for b, _ in s.objective.var_pairs
                    if b in graph.elements and graph.element(b).ctrl), default=None)
        if ctrl is not None:
            programs.append(compile_program(ControlProgram(
                s.layer, s.entity_kind or "", s.objective, ctrl, ())))

    fixed: Env = dict(params or {})
    rng = random.Random(seed)
    x: dict[str, float] = {}
    for v in inst.decision_vars:
        lo, hi = cfg.box(v)
        x[v] = rng.uniform(lo, hi)
    dual_names = [ex.var_name(LBD, j) for j in range(len(dp.registry))]
    duals = [0.0] * len(dp.registry)
    avg = dict(x)
    slack_fn = ex.compile_slacks([(c.lhs, c.rhs) for c in dp.registry])

    for t in range(1, epochs + 1):
        shared: Env = dict(fixed)
        shared.update(zip(dual_names, duals))
        shared.update(x)  # foreign decisions seen at their current values
        for prog in programs:
            x.update(solve_program(prog, {**shared, f"{prog.var}_anchor": x[prog.var]}, cfg))
        env = dict(fixed)
        env.update(x)
        step = cfg.dual_step / math.sqrt(t) if cfg.diminishing else cfg.dual_step
        duals = dual_update(duals, slack_fn(env), step)
        for v in avg:
            avg[v] += (x[v] - avg[v]) / t

    return LoopResult(avg, duals, ex.compile_expr(inst.utility)({**fixed, **avg}))

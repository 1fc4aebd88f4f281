"""Per-layer tracing of netnum from outside the package.

`Tracer.install()` rebinds netnum's module-level functions to wrappers, in
every netnum module that holds them (netsim imports `solve_program`,
`dual_update` and `resolve_model` by name, so patching the defining module
alone would miss those calls).  Nothing under src/ is edited.

Spans (name, start, end, parent) are kept in memory.  The recursive `expr`
functions call themselves through their module globals, so one wrapper
sees every node they visit: every call is counted, but only the outermost
call into `expr` gets a span, which keeps the overhead bounded.
"""

from __future__ import annotations

import statistics
import sys
import time

_now = time.perf_counter_ns

EXPR_FUNCS = ("compile_expr", "differentiate", "contains_bigsum", "free_vars",
              "expand_sums", "bind_index", "eval_expr", "substitute")
PHASES = ("apply_pending", "measure", "update_duals", "solve_power",
          "solve_rate", "deliver", "record")
STAGES = (("instantiate", "instantiate_problem"), ("decompose", "dualize"),
          ("decompose", "split_by_layer"), ("decompose", "split_by_entity"),
          ("decompose", "lift_to_abstract"), ("decompose", "penalize"))

# Metric name -> unit; the traced run reports exactly these.
UNITS: dict[str, str] = {}
for _f in ("compile_expr", "differentiate"):
    UNITS[f"expr.{_f}.calls_per_epoch"] = "count/epoch"
    UNITS[f"expr.{_f}.nodes_per_epoch"] = "count/epoch"
    UNITS[f"expr.{_f}.self_ms_per_epoch"] = "ms/epoch"
UNITS.update({
    "expr.contains_bigsum.nodes_per_epoch": "count/epoch",
    "expr.free_vars.nodes_per_epoch": "count/epoch",
    "expr.expand_sums.calls_per_epoch": "count/epoch",
    "expr.expand_sums.self_ms_per_epoch": "ms/epoch",
    "expr.bind_index.calls_per_epoch": "count/epoch",
    "expr.eval_expr.nodes_per_epoch": "count/epoch",
    "expr.eval_expr.self_ms_per_epoch": "ms/epoch",
    "expr.compiled.evals_per_epoch": "count/epoch",
    "expr.substitute.calls_per_epoch": "count/epoch",
    "solve.solve_program.calls_per_epoch": "count/epoch",
    "solve.solve_program.self_ms_per_epoch": "ms/epoch",
    "solve.solve_program.ms_per_call": "ms/call",
    "solve.solve_program.evals_per_call": "count/call",
    "solve.solve_program.moved_share": "ratio",
    "solve.dual_update.calls_per_epoch": "count/epoch",
    "solve.dual_update.ms_per_epoch": "ms/epoch",
})
for _p in PHASES:
    UNITS[f"netsim.{_p}.ms_per_epoch"] = "ms/epoch"
    UNITS[f"netsim.{_p}.self_ms_per_epoch"] = "ms/epoch"
UNITS.update({
    "netsim.step.transport_ms_p50": "ms",
    "netsim.step.physical_ms_p50": "ms",
    "netsim.link_capacity.calls_per_epoch": "count/epoch",
    "netsim.sum_utility.ms_per_epoch": "ms/epoch",
    "netsim.drain_epoch": "count",
    "netsim.Trace.to_csv.ms": "ms",
    "cli.build_programs.ms": "ms",
    "cli.deploy.ms": "ms",
    "abstraction.parse_problem.ms": "ms",
    "abstraction.resolve_model.calls": "count",
})
for _m, _f in STAGES:
    UNITS[f"{_m}.{_f}.ms"] = "ms"
UNITS["trace.focus_share"] = "ratio"
UNITS["trace.overhead_share"] = "ratio"

# Metrics that count work; they must repeat exactly between two traced
# runs of the same seed.
EXACT = {name for name, unit in UNITS.items() if unit.startswith("count")}
EXACT.add("solve.solve_program.moved_share")

# The layers each workload was chosen to stress, as a share of epoch time
# (runtime workloads; run() calls record after each step) or of
# build_programs (compile-sweep).
EPOCH = ("netsim.step", "netsim.record")
FOCUS = {
    "s5-joint-log": (EPOCH, ("netsim.solve_power",)),
    "s5-joint-powermin": (EPOCH, ("netsim.solve_power",)),
    "s5-rateonly-drain": (EPOCH, ("netsim.update_duals", "netsim.measure",
                                  "netsim.record")),
    "compile-sweep": (("cli.build_programs",), tuple(f"{m}.{f}" for m, f in STAGES)),
}


def _rebind(original, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "netnum" or name.startswith("netnum."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self._in_expr = False
        self.expr_stats = {f: [0, 0] for f in EXPR_FUNCS}   # nodes, calls
        self.evals = 0                   # calls into compiled closures
        self.solve_calls = 0
        self.solve_evals = 0
        self.solve_moved = 0
        self.counts = {"link_capacity": 0, "resolve_model": 0}
        self.step_kinds: list[str] = []
        self.drain_epoch = 0
        self.run_window: tuple[int, int] | None = None
        self._at_run: dict = {}
        self._at_end: dict = {}

    # -- wrappers ---------------------------------------------------------

    def timed(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()

        return traced

    def _expr(self, name: str, fn):
        stats = self.expr_stats[name]
        timed = self.timed(f"expr.{name}", fn)
        tracer = self
        depth = 0

        def counted_closure(f):
            def evaluate(env):
                tracer.evals += 1
                return f(env)
            return evaluate

        def traced(*args, **kwargs):
            nonlocal depth
            stats[0] += 1
            if depth:
                depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth -= 1
            stats[1] += 1
            depth = 1
            try:
                if tracer._in_expr:
                    result = fn(*args, **kwargs)
                else:
                    tracer._in_expr = True
                    try:
                        result = timed(*args, **kwargs)
                    finally:
                        tracer._in_expr = False
            finally:
                depth = 0
            if name == "compile_expr":
                result = counted_closure(result)
            return result

        return traced

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        from netnum import abstraction, cli, decompose, expr, instantiate
        from netnum import netsim, solve

        def patch(mod, attr, make):
            original = getattr(mod, attr)
            _rebind(original, make(original))

        for f in EXPR_FUNCS:
            patch(expr, f, lambda fn, f=f: self._expr(f, fn))

        def solve_wrapper(fn):
            timed = self.timed("solve.solve_program", fn)

            def traced(prog, params, cfg):
                before = self.evals
                x = timed(prog, params, cfg)
                self.solve_calls += 1
                self.solve_evals += self.evals - before
                if any(v != params.get(f"{k}_anchor") for k, v in x.items()):
                    self.solve_moved += 1
                return x

            return traced

        patch(solve, "solve_program", solve_wrapper)
        patch(solve, "dual_update", lambda fn: self.timed("solve.dual_update", fn))

        for p in PHASES:
            patch(netsim, f"_{p}", lambda fn, p=p: self.timed(f"netsim.{p}", fn))

        def deliver_wrapper(fn):
            def traced(net):
                live = sum(not s.done for s in net.sessions)
                fn(net)
                if not self.drain_epoch and sum(not s.done for s in net.sessions) < live:
                    self.drain_epoch = net.epoch + 1
            return traced

        patch(netsim, "_deliver", deliver_wrapper)

        def step_wrapper(fn):
            timed = self.timed("netsim.step", fn)

            def traced(net, scheme="joint"):
                transport = net.epoch % net.cfg.timescale == 0
                self.step_kinds.append("transport" if transport else "physical")
                return timed(net, scheme)

            return traced

        patch(netsim, "step", step_wrapper)

        def run_wrapper(fn):
            timed = self.timed("netsim.run", fn)

            def traced(*args, **kwargs):
                self._at_run = self._snapshot()
                start = _now()
                try:
                    return timed(*args, **kwargs)
                finally:
                    self.run_window = (start, _now())
                    self._at_end = self._snapshot()

            return traced

        patch(netsim, "run", run_wrapper)
        patch(netsim, "link_capacity", lambda fn: self._count("link_capacity", fn))
        patch(netsim, "sum_utility", lambda fn: self.timed("netsim.sum_utility", fn))
        netsim.Trace.to_csv = self.timed("netsim.Trace.to_csv", netsim.Trace.to_csv)
        patch(cli, "build_programs", lambda fn: self.timed("cli.build_programs", fn))
        patch(cli, "deploy", lambda fn: self.timed("cli.deploy", fn))
        patch(abstraction, "parse_problem",
              lambda fn: self.timed("abstraction.parse_problem", fn))
        patch(abstraction, "resolve_model", lambda fn: self._count("resolve_model", fn))
        mods = {"instantiate": instantiate, "decompose": decompose}
        for m, f in STAGES:
            patch(mods[m], f, lambda fn, m=m, f=f: self.timed(f"{m}.{f}", fn))

    def _snapshot(self) -> dict:
        snap = {f"expr.{f}.{k}": self.expr_stats[f][i]
                for f in EXPR_FUNCS for i, k in enumerate(("nodes", "calls"))}
        snap.update({"evals": self.evals, "solve_calls": self.solve_calls,
                     "link_capacity": self.counts["link_capacity"]})
        return snap

    # -- results ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")

    def metrics(self, workload: str) -> dict[str, float]:
        """Per-layer metrics of one traced run; see UNITS for the names."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        lo, hi = self.run_window or (0, 0)
        incl: dict[str, int] = {}
        n_calls: dict[str, int] = {}
        in_run_incl: dict[str, int] = {}
        in_run_self: dict[str, int] = {}
        in_run_calls: dict[str, int] = {}
        steps = {"transport": [], "physical": []}
        step_i = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            incl[name] = incl.get(name, 0) + dur
            n_calls[name] = n_calls.get(name, 0) + 1
            if lo <= start <= hi:
                in_run_incl[name] = in_run_incl.get(name, 0) + dur
                in_run_self[name] = in_run_self.get(name, 0) + dur - child_ns[i]
                in_run_calls[name] = in_run_calls.get(name, 0) + 1
            if name == "netsim.step":
                steps[self.step_kinds[step_i]].append(dur / 1e6)
                step_i += 1

        epochs = max(1, len(self.step_kinds))
        end = self._at_end or self._snapshot()
        delta = {k: v - self._at_run.get(k, 0) for k, v in end.items()}

        def per_epoch_ms(table, name):
            return table.get(name, 0) / 1e6 / epochs

        def per_call_ms(name, per=None):
            calls = n_calls.get(per or name, 0)
            return incl.get(name, 0) / 1e6 / calls if calls else 0.0

        m: dict[str, float] = {}
        for f in ("compile_expr", "differentiate"):
            m[f"expr.{f}.calls_per_epoch"] = delta[f"expr.{f}.calls"] / epochs
            m[f"expr.{f}.nodes_per_epoch"] = delta[f"expr.{f}.nodes"] / epochs
            m[f"expr.{f}.self_ms_per_epoch"] = per_epoch_ms(in_run_self, f"expr.{f}")
        m["expr.contains_bigsum.nodes_per_epoch"] = delta["expr.contains_bigsum.nodes"] / epochs
        m["expr.free_vars.nodes_per_epoch"] = delta["expr.free_vars.nodes"] / epochs
        m["expr.expand_sums.calls_per_epoch"] = delta["expr.expand_sums.calls"] / epochs
        m["expr.expand_sums.self_ms_per_epoch"] = per_epoch_ms(in_run_self, "expr.expand_sums")
        m["expr.bind_index.calls_per_epoch"] = delta["expr.bind_index.calls"] / epochs
        m["expr.eval_expr.nodes_per_epoch"] = delta["expr.eval_expr.nodes"] / epochs
        m["expr.eval_expr.self_ms_per_epoch"] = per_epoch_ms(in_run_self, "expr.eval_expr")
        m["expr.compiled.evals_per_epoch"] = delta["evals"] / epochs
        m["expr.substitute.calls_per_epoch"] = delta["expr.substitute.calls"] / epochs

        solve_calls = delta["solve_calls"]
        m["solve.solve_program.calls_per_epoch"] = solve_calls / epochs
        m["solve.solve_program.self_ms_per_epoch"] = per_epoch_ms(in_run_self, "solve.solve_program")
        m["solve.solve_program.ms_per_call"] = per_call_ms("solve.solve_program")
        m["solve.solve_program.evals_per_call"] = (
            self.solve_evals / self.solve_calls if self.solve_calls else 0.0)
        m["solve.solve_program.moved_share"] = (
            self.solve_moved / self.solve_calls if self.solve_calls else 0.0)
        m["solve.dual_update.calls_per_epoch"] = in_run_calls.get("solve.dual_update", 0) / epochs
        m["solve.dual_update.ms_per_epoch"] = per_epoch_ms(in_run_incl, "solve.dual_update")

        for p in PHASES:
            m[f"netsim.{p}.ms_per_epoch"] = per_epoch_ms(in_run_incl, f"netsim.{p}")
            m[f"netsim.{p}.self_ms_per_epoch"] = per_epoch_ms(in_run_self, f"netsim.{p}")
        for kind in ("transport", "physical"):
            m[f"netsim.step.{kind}_ms_p50"] = (
                statistics.median(steps[kind]) if steps[kind] else 0.0)
        m["netsim.link_capacity.calls_per_epoch"] = delta["link_capacity"] / epochs
        m["netsim.sum_utility.ms_per_epoch"] = per_epoch_ms(in_run_incl, "netsim.sum_utility")
        m["netsim.drain_epoch"] = float(self.drain_epoch)
        m["netsim.Trace.to_csv.ms"] = per_call_ms("netsim.Trace.to_csv")

        m["cli.build_programs.ms"] = per_call_ms("cli.build_programs")
        m["cli.deploy.ms"] = per_call_ms("cli.deploy")
        m["abstraction.parse_problem.ms"] = per_call_ms("abstraction.parse_problem")
        m["abstraction.resolve_model.calls"] = float(self.counts["resolve_model"])
        for mod, f in STAGES:
            # per compile, so stages called once per entity add up
            m[f"{mod}.{f}.ms"] = per_call_ms(f"{mod}.{f}", per="cli.build_programs")

        whole, parts = FOCUS[workload]
        total = sum(incl.get(w, 0) for w in whole)
        m["trace.focus_share"] = (
            sum(incl.get(p, 0) for p in parts) / total if total else 0.0)
        return m

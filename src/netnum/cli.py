"""Batch front door: run the full pipeline from a problem file and a
scenario config, emit traces and dumps, or compare two trace files.

    netnum run --problem jocp.ncp --scenario s2.cfg --out results/
    netnum compare results_a/trace.csv results_b/trace.csv

`python -m netnum` runs the same entry point.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import abstraction, decompose, expr, instantiate, netsim, solve


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class SchemaMismatch(CliError):
    def __init__(self, message: str):
        super().__init__("compare", message)


def build_programs(problem: abstraction.ControlProblem,
                   cfg: instantiate.InstanceConfig | None = None,
                   ) -> tuple[dict[str, decompose.ControlProgram],
                              decompose.DualProblem, instantiate.InstanceMap]:
    """Design-time half of the pipeline: instantiate, dualize, split, lift
    one template per layer (all entities must lift identically), penalize."""
    cfg = cfg or instantiate.InstanceConfig(seed=0)
    inst, imap = instantiate.instantiate_problem(problem, cfg)
    dp = decompose.dualize(inst)
    layers, _ = decompose.split_by_layer(dp, problem.graph)
    programs: dict[str, decompose.ControlProgram] = {}
    for layer, sub in layers.items():
        entities = decompose.split_by_entity(sub, problem.graph)
        try:
            lifted = decompose.lift_to_abstract(entities, imap)
        except decompose.TemplatesDiffer as err:
            raise CliError("lift", str(err)) from None
        programs[layer] = decompose.penalize(lifted, problem.directive[1],
                                             problem.graph)
    return programs, dp, imap


def deploy(problem: abstraction.ControlProblem,
           programs: dict[str, decompose.ControlProgram],
           cfg: netsim.ScenarioConfig) -> netsim.NetState:
    net = netsim.build_scenario(cfg)
    netsim.install_problem(net, problem)
    if "transport" in programs:
        for s in net.sessions:
            netsim.install_program(net, ("session", s.index), programs["transport"])
    if "physical" in programs:
        for link in net.links:
            netsim.install_program(net, ("link", link.index), programs["physical"])
    return net


def _summary(net: netsim.NetState, trace: netsim.Trace) -> tuple[str, float]:
    """summary.txt, from the trace's series, and its final utility."""
    final = netsim.tail_mean(trace.values("net", "sum_utility"), "net/sum_utility",
                             tail=0.3)
    lines = ["summary", f"final_sum_utility\t{final!r}"]
    for s in net.sessions:
        m = netsim.tail_mean(trace.values("session", "throughput_pps", s.index),
                             "session/throughput_pps")
        lines.append(f"session_{s.index}_mean_throughput_pps\t{m!r}")
    # nan when every link went inactive before the first record
    power = trace.values("node", "power_gain_db")
    m = netsim.tail_mean(power, "node/power_gain_db") if power else math.nan
    lines.append(f"mean_power_gain_db\t{m!r}")
    return "\n".join(lines) + "\n", final


def run_experiment(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        print(f"[simulate] --seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return 2
    try:
        source = args.problem.read_text()
    except (OSError, UnicodeDecodeError) as err:
        print(f"[load] cannot read problem file: {err}", file=sys.stderr)
        return 2
    try:
        scenario_text = args.scenario.read_text()
    except (OSError, UnicodeDecodeError) as err:
        print(f"[load] cannot read scenario file: {err}", file=sys.stderr)
        return 2
    try:
        problem = abstraction.parse_problem(source)
    except abstraction.AbstractionError as err:
        print(f"[parse] {args.problem}: {err}", file=sys.stderr)
        return 2
    try:
        scn = netsim.load_scenario(scenario_text)
        if args.seed is not None:
            scn = scn._replace(seed=args.seed)
    except netsim.ConfigError as err:
        print(f"[scenario] {args.scenario}: {err}", file=sys.stderr)
        return 2
    try:
        programs, dp, imap = build_programs(problem)
    except (instantiate.InstantiateError, decompose.DecomposeError, CliError) as err:
        print(f"[decompose] {err}", file=sys.stderr)
        return 2

    # `path` names the file being written, for a [write] error
    out = path = args.out
    utilities = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.dump_dual:
            path = out / "dual.txt"
            path.write_text(decompose.dump_dual(dp))
        del dp   # the simulation reads only the programs
        if args.dump_programs:
            path = out / "programs.txt"
            path.write_text("".join(f"# {layer}\n{decompose.dump_program(prog)}\n"
                                    for layer, prog in sorted(programs.items())))
        if args.dump_instances:
            path = out / "instances.txt"
            path.write_text("".join(instantiate.dump_table(imap, name) + "\n"
                                    for name in sorted(imap.lcl)))
        for k in range(args.seeds):
            run_cfg = scn._replace(seed=scn.seed + k)
            net = deploy(problem, programs, run_cfg)
            trace = netsim.run(net, args.duration, args.scheme)
            suffix = f"_s{run_cfg.seed}" if args.seeds > 1 else ""
            path = out / f"trace{suffix}.csv"
            with open(path, "w") as f:
                trace.to_csv(f)
            summary, utility = _summary(net, trace)
            del net, trace   # release this run before the next one starts
            path = out / f"summary{suffix}.txt"
            path.write_text(summary)
            utilities.append(utility)
        if args.seeds > 1:
            path = out / "summary.txt"
            path.write_text("sweep_mean_sum_utility\t{!r}\nruns\t{}\n".format(
                netsim.tail_mean(utilities, "sum_utility"), args.seeds))
    except (netsim.NetsimError, solve.SolveError, expr.ExprError) as err:
        print(f"[simulate] {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"[write] {path}: {err.strerror or err}", file=sys.stderr)
        return 2
    print(f"wrote {out}/trace*.csv (sum utility {utilities[0]!r})")
    return 0


# ---------------------------------------------------------------------------
# trace comparison

def _load_trace(path: Path) -> list[tuple[float, str, int, str, float]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "time,entity_kind,entity_id,metric,value":
        raise SchemaMismatch(f"{path}: unexpected header")
    rows = []
    for line in lines[1:]:
        t, kind, eid, metric, value = line.split(",")
        rows.append((float(t), kind, int(eid), metric, float(value)))
    return rows


def compare_runs(path_a: Path, path_b: Path) -> str:
    """Per-metric deltas and orderings between two runs of the same schema."""
    a = netsim.Trace.from_rows(_load_trace(path_a))
    b = netsim.Trace.from_rows(_load_trace(path_b))
    metrics_a = {(k, m) for (_, k, _, m, _) in a.rows}
    metrics_b = {(k, m) for (_, k, _, m, _) in b.rows}
    if metrics_a != metrics_b:
        raise SchemaMismatch(
            f"traces record different metrics: {sorted(metrics_a ^ metrics_b)}")

    lines = [f"compare {path_a} vs {path_b}"]
    for kind, metric in sorted(metrics_a):
        ma, mb = a.mean(kind, metric), b.mean(kind, metric)
        order = "A>B" if ma > mb else ("A<B" if ma < mb else "A=B")
        lines.append(f"{kind}/{metric}\tA={ma!r}\tB={mb!r}\tdelta={ma - mb!r}\t{order}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="netnum",
        description="compile a network control problem into distributed "
                    "programs and run them in the simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("--problem", required=True, type=Path)
    runp.add_argument("--scenario", required=True, type=Path)
    runp.add_argument("--scheme", default="joint", choices=netsim.SCHEMES)
    runp.add_argument("--duration", type=float, default=1500.0)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", type=Path, default=Path("out"))
    runp.add_argument("--dump-dual", action="store_true")
    runp.add_argument("--dump-programs", action="store_true")
    runp.add_argument("--dump-instances", action="store_true")
    runp.add_argument("--seeds", type=int, default=1,
                      help="fan out N runs with consecutive seeds")

    cmp_p = sub.add_parser("compare", help="compare two trace files")
    cmp_p.add_argument("trace_a", type=Path)
    cmp_p.add_argument("trace_b", type=Path)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_experiment(args)
    if args.command == "compare":
        try:
            report = compare_runs(args.trace_a, args.trace_b)
        except (SchemaMismatch, OSError, ValueError) as err:
            print(f"[compare] {err}", file=sys.stderr)
            return 2
        print(report, end="")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())

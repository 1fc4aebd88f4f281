"""One run of one benchmark workload, in a fresh interpreter.

    python3 -I perfbench/child.py --workload s5-joint-log --seed 0 \
        --out .perfbench_out/s5-joint-log/0 --trace 0

The runner starts this once per run, so no module-global state of netnum
(such as netsim's compiled capacity cache) carries from one run into the
next, and ru_maxrss is the run's own.  The last line of stdout is a JSON
object with the run's raw timings, output digests and, with --trace 1, its
per-layer metrics.  `time.monotonic` readings are system-wide, so the
runner subtracts its own reading taken just before starting this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402

SETUP_KERNELS = 10


class Probe:
    """The timings every run reports, traced or not.

    Each timed piece of work is followed by one run of `wl.kernel()`,
    whose time is recorded beside it, so that the host's speed at that
    moment can be divided out.  Kernel time is kept out of every timing,
    the total included.
    """

    def __init__(self):
        self.cal_s = 0.0                   # time spent in the kernel
        self.cal_before_setup_s = 0.0
        self.setup_mono: float | None = None
        self.setup_cal_us: list[float] = []
        self.epoch_ms: list[float] = []
        self.step_ms: list[float] = []
        self.epoch_cal_us: list[float] = []
        self.compile_ms: dict[str, list[float]] = {}   # per problem file
        self.compile_cal_us: dict[str, list[float]] = {}
        self.window_compiles: list[tuple[float, float]] = []  # after set-up
        self.after_setup_s = 0.0           # scaled, from set-up to the end
        self.kernel_us = 0.0               # the run's median kernel time
        self.problem = ""
        self.net = None
        self.end_mono = 0.0
        self._last = 0.0

    def calibrate(self) -> float:
        t = time.perf_counter_ns()
        wl.kernel()
        dt = time.perf_counter_ns() - t
        self.cal_s += dt / 1e9
        return dt / 1e3

    def end_setup(self) -> None:
        self.setup_mono = time.monotonic()
        self.cal_before_setup_s = self.cal_s
        self.setup_cal_us = [self.calibrate() for _ in range(SETUP_KERNELS)]

    def compiled(self, problem: str, ns: int) -> None:
        ms, cal = ns / 1e6, self.calibrate()
        self.compile_ms.setdefault(problem, []).append(ms)
        self.compile_cal_us.setdefault(problem, []).append(cal)
        if self.setup_mono is not None and not self.end_mono:
            self.window_compiles.append((ms, cal))

    def finish(self) -> None:
        """Close the timed window.  The epochs and compiles in it are
        scaled one by one; the rest by the run's median kernel time."""
        self.end_mono = time.monotonic()
        pieces = list(zip(self.epoch_ms, self.epoch_cal_us)) + self.window_compiles
        raw = sum(ms for ms, _ in pieces) / 1e3
        scaled = sum(wl.scale(ms, cal) for ms, cal in pieces) / 1e3
        window = (self.end_mono - self.setup_mono
                  - (self.cal_s - self.cal_before_setup_s))
        self.kernel_us = statistics.median(
            self.setup_cal_us + [cal for _, cal in pieces])
        self.after_setup_s = scaled + wl.scale(window - raw, self.kernel_us)

    def install(self, time_builds: bool) -> None:
        from netnum import cli, netsim
        run, step, record, build = (netsim.run, netsim.step, netsim._record,
                                    cli.build_programs)

        def timed_run(net, duration, scheme="joint"):
            self.net = net
            if self.setup_mono is None:
                self.end_setup()
            self._last = time.perf_counter()
            return run(net, duration, scheme)

        def timed_step(net, scheme="joint"):
            t = time.perf_counter_ns()
            try:
                return step(net, scheme)
            finally:
                self.step_ms.append((time.perf_counter_ns() - t) / 1e6)

        def timed_record(net, trace):
            record(net, trace)
            self.epoch_ms.append(1e3 * (time.perf_counter() - self._last))
            self.epoch_cal_us.append(self.calibrate())
            self._last = time.perf_counter()

        def timed_build(*args, **kwargs):
            t = time.perf_counter_ns()
            try:
                return build(*args, **kwargs)
            finally:
                self.compiled(self.problem, time.perf_counter_ns() - t)

        netsim.run, netsim.step, netsim._record = timed_run, timed_step, timed_record
        if time_builds:
            cli.build_programs = timed_build


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_outputs(out: Path) -> dict[str, str]:
    return {name: _sha((out / name).read_bytes())
            for name in ("trace.csv", "summary.txt") if (out / name).is_file()}


def run_runtime(name: str, seed: int, out: Path, probe: Probe) -> tuple[dict, list[str]]:
    from netnum import abstraction, cli
    spec = wl.RUNTIME[name]
    probe.problem = spec["problem"]
    errors = []
    code = cli.main(wl.run_args(spec, seed, str(out)))
    probe.finish()
    if code != 0:
        errors.append(f"netnum run exited with code {code}")
    # more compile samples, after the timed run has ended
    problem = abstraction.parse_problem((ROOT / wl.problem_path(spec["problem"])).read_text())
    for _ in range(wl.EXTRA_BUILDS):
        cli.build_programs(problem)
    if "drain_session" in spec and probe.net is not None:
        net = probe.net
        if not net.sessions[spec["drain_session"]].done:
            errors.append(f"session {spec['drain_session']} did not drain")
        off = sum(not link.active for link in net.links)
        if off != spec["drained_links"]:
            errors.append(f"{off} links deactivated, expected {spec['drained_links']}")
    return _run_outputs(out), errors


def run_sweep(seed: int, out: Path, probe: Probe) -> tuple[dict, list[str]]:
    from netnum import abstraction, cli, decompose, instantiate
    problems = {p: abstraction.parse_problem((ROOT / wl.problem_path(p)).read_text())
                for p in wl.PROBLEMS}
    seeds = wl.sweep_seeds(seed)
    outputs, errors = {}, []
    probe.end_setup()
    for pname, problem in problems.items():
        rendered = {}
        for s in seeds:
            t = time.perf_counter_ns()
            programs, _, _ = cli.build_programs(problem, instantiate.InstanceConfig(seed=s))
            probe.compiled(pname, time.perf_counter_ns() - t)
            rendered[s] = "".join(f"# {layer}\n{decompose.dump_program(prog)}\n"
                                  for layer, prog in sorted(programs.items()))
        # the lifted templates must not depend on the sampled instance map
        first = rendered[seeds[0]]
        for s, text in rendered.items():
            if text != first:
                errors.append(f"{pname}: programs at instantiation seed {s} "
                              f"differ from those at seed {seeds[0]}")
        outputs[f"programs/{pname}"] = _sha(first.encode())
    code = cli.main(wl.run_args(wl.SWEEP_TAIL, seed, str(out)))
    probe.finish()
    if code != 0:
        errors.append(f"netnum run exited with code {code}")
    outputs.update(_run_outputs(out))
    return outputs, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    probe = Probe()
    import netnum.cli  # noqa: F401  (imports every netnum module)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    sweep = args.workload == "compile-sweep"
    probe.install(time_builds=not sweep)

    args.out.mkdir(parents=True, exist_ok=True)
    if sweep:
        outputs, errors = run_sweep(args.seed, args.out, probe)
    else:
        outputs, errors = run_runtime(args.workload, args.seed, args.out, probe)

    result = {
        "setup_mono": probe.setup_mono, "end_mono": probe.end_mono,
        "cal_s": probe.cal_s, "cal_before_setup_s": probe.cal_before_setup_s,
        "after_setup_s": probe.after_setup_s, "kernel_us": probe.kernel_us,
        "epoch_ms": probe.epoch_ms,
        "step_ms": probe.step_ms, "epoch_cal_us": probe.epoch_cal_us,
        "compile_ms": probe.compile_ms, "compile_cal_us": probe.compile_cal_us,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs, "errors": errors,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(args.workload)
        tracer.write_spans(args.out / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

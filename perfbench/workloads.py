"""The benchmark's workloads and its calibration kernel, shared by the
runner and the per-run child.

Paths are relative to the root of a checkout of the repository.
"""

from __future__ import annotations

import math

DATA = "src/netnum/data"
PROBLEMS = ("jocp.ncp", "jocp_log.ncp", "jocp_log_powercap.ncp", "powermin.ncp")


def problem_path(name: str) -> str:
    return f"{DATA}/problems/{name}"


# A runtime workload is one `netnum run`.  Durations are whole transport
# epochs (timescale 30) and keep a run to a few seconds, so that a
# benchmark run holds several fresh-interpreter runs; 360 epochs leave
# ten beyond the p97 of step times.
RUNTIME = {
    # Every epoch solves a power program per link: the solver and the
    # per-call symbolic work in solve_program dominate.
    "s5-joint-log": dict(problem="jocp_log.ncp",
                         scenario=f"{DATA}/scenarios/s5.cfg",
                         scheme="joint", duration=360),
    # Same solver path, different objective: powers are driven down.
    "s5-joint-powermin": dict(problem="powermin.ncp",
                              scenario=f"{DATA}/scenarios/s5.cfg",
                              scheme="joint", duration=360),
    # No power solving; per-epoch dual bookkeeping dominates, and session 2
    # drains mid-run, deactivating the six links of its path.
    "s5-rateonly-drain": dict(problem="jocp_log.ncp",
                              scenario="perfbench/s5_drain.cfg",
                              scheme="rate-only", duration=1500,
                              drain_session=2, drained_links=6),
}

# The design-time sweep: build_programs for every shipped problem over
# SWEEP_SEEDS instantiation seeds, then a short control-free run on s2 so
# that the simulator's metrics exist on this workload without touching
# the solver.
SWEEP_SEEDS = 16
SWEEP_TAIL = dict(problem="jocp_log.ncp", scenario=f"{DATA}/scenarios/s2.cfg",
                  scheme="no-control", duration=600)

# Runtime runs compile once; after the timed run they compile this many
# more times, so that compile_ms has enough samples on every workload.
EXTRA_BUILDS = 16

NAMES = tuple(RUNTIME) + ("compile-sweep",)


def run_args(spec: dict, seed: int, out: str) -> list[str]:
    """The `netnum run` argument list of a runtime spec."""
    return ["run", "--problem", problem_path(spec["problem"]),
            "--scenario", spec["scenario"], "--scheme", spec["scheme"],
            "--duration", str(spec["duration"]), "--seed", str(seed),
            "--out", out]


def sweep_seeds(seed: int) -> range:
    """Instantiation seeds of one compile sweep; the workload seed offsets
    them, so different workload seeds sample disjoint instance maps."""
    return range(seed * SWEEP_SEEDS, (seed + 1) * SWEEP_SEEDS)


# The kernel's time on the reference host (Intel Xeon at 2.1 GHz, Python
# 3.11.7) when nothing else contends for its core.  A timing divided by
# the kernel time measured beside it and multiplied by this reads as
# milliseconds on that host at full speed (see DESIGN.md).
KERNEL_REF_US = 48.0


def kernel() -> None:
    """A fixed pure-Python workload (dict lookups, tuples, float math)
    whose time tracks the host's speed for interpreter work."""
    env = {"a": 1.5, "b": 2.5}
    acc = 0.0
    for i in range(200):
        t = (i, env["a"] * i)
        acc += math.log(1.0 + t[1]) + env["b"] / (i + 1)


def scale(ms: float, kernel_us: float) -> float:
    """A timing rescaled by the kernel time measured beside it."""
    return ms * KERNEL_REF_US / kernel_us

"""netnum benchmark runner.

    python3 perfbench/run.py --workload s5-joint-log --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Each run of a workload is a fresh,
single-threaded interpreter (perfbench/child.py); runs are made one after
another until --seconds have passed and enough samples are in.  Every
run's outputs are checked: against the digests in pins.json, and against
the first run of the same seed.  With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics; with --trace 1 traced and
untraced runs alternate and it holds the per-layer metrics.  DESIGN.md
defines every metric and says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

E2E_UNITS = {"setup_s": "s", "epoch_ms": "ms/epoch", "step_ms_p97": "ms",
             "total_s": "s", "compile_ms": "ms", "peak_rss_mb": "MiB"}
MIN_RUNS = 5
SPAWN_LIMIT_S = 140       # no run starts later than this into a benchmark run
RUN_TIMEOUT_S = 150


def spawn(name: str, seed: int, out: Path, traced: bool, timeout: float) -> dict:
    """One run in a fresh interpreter; returns its report, or one with
    an `errors` entry when it could not complete."""
    if out.exists():
        shutil.rmtree(out)
    cmd = [sys.executable, "-I", str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--out", str(out), "--trace", str(int(traced))]
    spawn_mono = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"errors": [f"run timed out after {timeout:.0f} s"], "traced": traced}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"errors": [f"run exited with code {proc.returncode}: {tail}"],
                "traced": traced}
    report = json.loads(lines[-1])
    report["setup_s"] = report["setup_mono"] - spawn_mono - report["cal_before_setup_s"]
    report["total_s"] = report["end_mono"] - spawn_mono - report["cal_s"]
    report["traced"] = traced
    return report


def check_outputs(runs: list[dict], expected: dict[str, str]) -> None:
    """Name every output that differs from its pinned digest, or from the
    first completed run of the same seed."""
    reference = None
    for r in runs:
        if "outputs" not in r:
            continue
        got = r["outputs"]
        for key, digest in expected.items():
            if got.get(key) != digest:
                r["errors"].append(f"{key} sha256 {got.get(key)} != pinned {digest}")
        if reference is None:
            reference = got
        elif got != reference:
            for key in sorted(set(got) | set(reference)):
                if got.get(key) != reference.get(key):
                    r["errors"].append(f"{key} differs from the first run")


def check_counts(runs: list[dict]) -> None:
    """Work counts must repeat exactly between traced runs of one seed."""
    traced = [r for r in runs if "layers" in r]
    for r in traced[1:]:
        for key in sorted(tracer.EXACT):
            if r["layers"][key] != traced[0]["layers"][key]:
                r["errors"].append(f"{key}: {r['layers'][key]!r} != "
                                   f"{traced[0]['layers'][key]!r} in the first traced run")


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}"


def scaled(times: list[float], kernel_us: list[float]) -> list[float]:
    return [wl.scale(t, k) for t, k in zip(times, kernel_us)]


def end_to_end(plain: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics from the untraced runs of one seed, with a note
    on the samples behind each."""
    setups = [wl.scale(r["setup_s"], r["kernel_us"]) for r in plain]
    epochs = [statistics.fmean(scaled(r["epoch_ms"], r["epoch_cal_us"])) for r in plain]
    # the tail of the work, not of the host: each epoch's median over runs
    steps = [statistics.median(column) for column in
             zip(*(scaled(r["step_ms"], r["epoch_cal_us"]) for r in plain))]
    totals = [setup + r["after_setup_s"] for setup, r in zip(setups, plain)]
    problems = sorted(plain[0]["compile_ms"])
    compiles = {p: [x for r in plain
                    for x in scaled(r["compile_ms"][p], r["compile_cal_us"][p])]
                for p in problems}
    p97 = statistics.quantiles(steps, n=100)[96]
    values = {
        "setup_s": statistics.median(setups),
        "epoch_ms": statistics.median(epochs),
        "step_ms_p97": p97,
        "total_s": statistics.median(totals),
        "compile_ms": statistics.fmean(statistics.median(compiles[p]) for p in problems),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    n_compiles = sum(len(v) for v in compiles.values())
    notes = {
        "setup_s": f"median of runs, {spread(setups)}",
        "epoch_ms": f"median of runs, {spread(epochs)}",
        "step_ms_p97": (f"p97 over {len(steps)} epochs of each step's median over "
                        f"{len(plain)} runs, {sum(x > p97 for x in steps)} beyond it"),
        "total_s": f"median of runs, {spread(totals)}",
        "compile_ms": (f"mean over {len(problems)} problems of the median compile, "
                       f"{n_compiles} compiles"),
        "peak_rss_mb": f"median of runs, {spread([r['rss_mb'] for r in plain])}",
    }
    raw = [statistics.fmean(r["epoch_ms"]) for r in plain]
    notes["epoch_ms"] += f"; unscaled {spread(raw)}"
    notes["total_s"] += f"; unscaled {spread([r['total_s'] for r in plain])}"
    speeds = [r["kernel_us"] / wl.KERNEL_REF_US for r in plain]
    notes["setup_s"] += f"; kernel/ref {spread(speeds)}"
    return values, notes


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out_root = ROOT / ".perfbench_out" / name
    if out_root.exists():
        shutil.rmtree(out_root)
    # A first import writes bytecode caches; users pay that once, not per run.
    subprocess.run([sys.executable, "-I", "-c",
                    "import sys; sys.path.insert(0, 'src'); import netnum.cli"],
                   cwd=ROOT, capture_output=True, timeout=60)

    runs: list[dict] = []
    walls: list[float] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(1 for r in runs if not r["traced"] and "outputs" in r)
        n_traced = sum(1 for r in runs if r["traced"] and "outputs" in r)
        if trace:
            enough = untraced >= 1 and n_traced >= 2
        else:
            enough = untraced >= MIN_RUNS
        broken = sum(1 for r in runs if "outputs" not in r) >= MIN_RUNS
        # stop once the next run would likely end after --seconds
        due = elapsed + (statistics.median(walls) if walls else 0.0) > seconds
        if (enough and due) or elapsed >= SPAWN_LIMIT_S or broken:
            break
        traced = trace and len(runs) % 2 == 0
        runs.append(spawn(name, seed, out_root / str(len(runs)), traced,
                          RUN_TIMEOUT_S - elapsed))
        walls.append(time.monotonic() - start - elapsed)

    pins = json.loads((HERE / "pins.json").read_text())
    pinned = pins["workloads"].get(name, {})
    # program dumps do not depend on the seed; run outputs are pinned for one
    expected = {k: v for k, v in pinned.items()
                if k.startswith("programs/") or seed == pins["seed"]}
    check_outputs(runs, expected)
    check_counts(runs)

    failed = [r for r in runs if r["errors"]]
    lines = [f"== {name}  seed {seed}  runs {len(runs)} "
             f"({sum(r['traced'] for r in runs)} traced)  failed {len(failed)}  "
             f"failed_share {len(failed) / len(runs):.3g}"]
    for i, r in enumerate(runs):
        lines.extend(f"   FAIL run {i}: {e}" for e in r["errors"])

    good = [r for r in runs if r.get("epoch_ms")]
    plain = [r for r in good if not r["traced"]]
    if not plain:
        print("\n".join(lines))
        raise SystemExit(f"[perfbench] {name}: no run completed")
    ref = plain[0]["outputs"]
    lines.extend(f"   output {k} sha256 {v}" for k, v in sorted(ref.items()))

    def per_epoch(r):
        return statistics.fmean(scaled(r["epoch_ms"], r["epoch_cal_us"]))

    metrics: dict[str, dict] = {}
    if not trace:
        values, notes = end_to_end(plain)
        for key, unit in E2E_UNITS.items():
            metrics[key] = {"value": values[key], "unit": unit}
            lines.append(f"   {key:<12} {values[key]:>12.6g} {unit:<9} {notes[key]}")
    else:
        traced_runs = [r for r in good if r["traced"]]
        for key, unit in tracer.UNITS.items():
            if key == "trace.overhead_share":
                value = (statistics.median(per_epoch(r) for r in traced_runs)
                         / statistics.median(per_epoch(r) for r in plain) - 1.0)
            else:
                value = statistics.median(r["layers"][key] for r in traced_runs)
            metrics[key] = {"value": value, "unit": unit}
            lines.append(f"   {key:<44} {value:>12.6g} {unit}")
        lines.append(f"   (medians of {len(traced_runs)} traced runs; counts repeat exactly)")
    print("\n".join(lines), flush=True)
    return {"correct": not failed, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=wl.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "netnum" / "cli.py").is_file():
        print(f"[perfbench] no netnum source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = wl.NAMES if args.workload == "all" else (args.workload,)
    results = {n: bench(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}/{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

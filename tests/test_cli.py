import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import netnum
from netnum import abstraction, cli, decompose, expr, instantiate, netsim

from conftest import csv_text

SRC = Path(netnum.__file__).parent.parent
DATA = Path(netnum.__file__).parent / "data"
PROBLEMS = DATA / "problems"
SCENARIOS = DATA / "scenarios"


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_jocp_scenario2_smoke(tmp_path):
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp.ncp",
                  "--scenario", SCENARIOS / "s2.cfg",
                  "--duration", "120", "--out", tmp_path,
                  "--dump-dual", "--dump-programs", "--dump-instances"])
    assert rc == 0
    summary = (tmp_path / "summary.txt").read_text()
    utility = float(summary.splitlines()[1].split("\t")[1])
    assert utility == utility and abs(utility) < 1e9  # finite
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "dual.txt").read_text().startswith("utility:")
    assert "lnkses" in (tmp_path / "instances.txt").read_text()


def test_utility_swap_changes_only_transport_template(tmp_path):
    outs = {}
    for name in ("jocp.ncp", "jocp_log.ncp"):
        out = tmp_path / name.replace(".ncp", "")
        rc = run_cli(["run", "--problem", PROBLEMS / name,
                      "--scenario", SCENARIOS / "s1.cfg",
                      "--duration", "30", "--out", out, "--dump-programs"])
        assert rc == 0
        outs[name] = (out / "programs.txt").read_text()
    a, b = outs["jocp.ncp"], outs["jocp_log.ncp"]
    assert a != b
    phys_a = a.split("# transport")[0]
    phys_b = b.split("# transport")[0]
    assert phys_a == phys_b  # the physical program is untouched
    assert "objective: max sesrate - sesrate*sum(seslnk: lbd)" in a
    assert "objective: max ln(sesrate) - sesrate*sum(seslnk: lbd)" in b


def test_missing_problem_file(tmp_path, capsys):
    rc = run_cli(["run", "--problem", tmp_path / "absent.ncp",
                  "--scenario", SCENARIOS / "s1.cfg", "--out", tmp_path])
    assert rc != 0
    err = capsys.readouterr().err
    assert "absent.ncp" in err and "[load]" in err


@pytest.mark.parametrize("which", ["problem", "scenario"])
def test_file_not_utf8_names_load_stage(tmp_path, capsys, which):
    files = {"problem": PROBLEMS / "jocp.ncp", "scenario": SCENARIOS / "s1.cfg"}
    bad = files[which] = tmp_path / "bad"
    bad.write_bytes(b"\xff\n")
    rc = run_cli(["run", "--problem", files["problem"], "--scenario", files["scenario"],
                  "--out", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err == (f"[load] cannot read {which} file: 'utf-8' codec "
                                       "can't decode byte 0xff in position 0: "
                                       "invalid start byte\n")


def test_parse_error_names_stage(tmp_path, capsys):
    bad = tmp_path / "bad.ncp"
    bad.write_text("utility max sum(\n")
    rc = run_cli(["run", "--problem", bad, "--scenario", SCENARIOS / "s1.cfg",
                  "--out", tmp_path])
    assert rc != 0
    assert "[parse]" in capsys.readouterr().err


def test_cli_runs_are_bit_reproducible(tmp_path):
    csvs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                      "--scenario", SCENARIOS / "s2.cfg",
                      "--duration", "90", "--out", out])
        assert rc == 0
        csvs.append((out / "trace.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_seed_sweep(tmp_path):
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                  "--scenario", SCENARIOS / "s1.cfg", "--duration", "30",
                  "--seeds", "2", "--out", tmp_path])
    assert rc == 0
    assert (tmp_path / "trace_s0.csv").exists()
    assert (tmp_path / "trace_s1.csv").exists()
    assert "sweep_mean_sum_utility" in (tmp_path / "summary.txt").read_text()


def test_seed_sweep_mean_folds_left(tmp_path):
    # the sweep mean is folded left like every other mean the CLI writes
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                  "--scenario", SCENARIOS / "s2.cfg", "--duration", "30",
                  "--seeds", "3", "--out", tmp_path])
    assert rc == 0
    finals = []
    for seed in range(3):
        lines = (tmp_path / f"summary_s{seed}.txt").read_text().splitlines()
        key, value = lines[1].split("\t")
        assert key == "final_sum_utility"
        finals.append(float(value))
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert lines == [f"sweep_mean_sum_utility\t{netsim.tail_mean(finals, 'sum_utility')!r}",
                     "runs\t3"]


def test_seed_sweep_holds_one_trace_at_a_time(tmp_path, monkeypatch):
    # Trace has __slots__ and no __weakref__, so live ones are counted
    live, run = [], netsim.run

    def counted(*args):
        gc.collect()
        live.append(sum(isinstance(o, netsim.Trace) for o in gc.get_objects()))
        return run(*args)

    monkeypatch.setattr(netsim, "run", counted)
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                  "--scenario", SCENARIOS / "s1.cfg", "--duration", "30",
                  "--seeds", "3", "--out", tmp_path])
    assert rc == 0
    assert live == [live[0]] * 3


def test_out_naming_a_file_names_write_stage(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                  "--scenario", SCENARIOS / "s1.cfg", "--duration", "30", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err == f"[write] {out}: File exists\n"


def test_trace_path_naming_a_directory_names_write_stage(tmp_path, capsys):
    (tmp_path / "trace.csv").mkdir()
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                  "--scenario", SCENARIOS / "s1.cfg", "--duration", "30", "--out", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err == f"[write] {tmp_path / 'trace.csv'}: Is a directory\n"


def test_compare_trace_with_itself(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli(["run", "--problem", PROBLEMS / "jocp.ncp",
             "--scenario", SCENARIOS / "s1.cfg", "--duration", "30",
             "--out", out])
    capsys.readouterr()  # drop the run command's own output
    rc = run_cli(["compare", out / "trace.csv", out / "trace.csv"])
    assert rc == 0
    report = capsys.readouterr().out
    lines = report.splitlines()
    assert lines[0].startswith("compare ")
    for line in lines[1:]:
        assert "delta=0.0" in line and line.endswith("A=B")


def test_written_trace_reads_back_as_its_rows(tmp_path, capsys):
    # session 1 drains mid-run, so the rows of an epoch change
    problem = abstraction.parse_problem((PROBLEMS / "jocp_log.ncp").read_text())
    programs, _, _ = cli.build_programs(problem)
    cfg = netsim.load_scenario((SCENARIOS / "s2_drain.cfg").read_text())
    net = cli.deploy(problem, programs, cfg._replace(seed=0))
    trace = netsim.run(net, 360, "rate-only")
    assert len(trace.layouts) == 2
    path = tmp_path / "trace.csv"
    path.write_text(csv_text(trace))
    assert cli._load_trace(path) == trace.rows
    rc = run_cli(["compare", path, path])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines[1:]] == [
        "link/lambda", "net/sum_utility", "node/power_gain_db", "session/throughput_pps"]
    for line in lines[1:]:
        assert "\tdelta=0.0\t" in line and line.endswith("\tA=B")


def test_compare_schema_mismatch(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("time,entity_kind,entity_id,metric,value\n"
                    "1.0,session,0,throughput_pps,2.0\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("time,entity_kind,entity_id,metric,value\n"
                   "1.0,session,0,other_metric,2.0\n")
    rc = run_cli(["compare", good, bad])
    assert rc != 0
    assert "compare" in capsys.readouterr().err


def test_compare_trace_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\n")
    assert run_cli(["compare", bad, bad]) == 2
    assert capsys.readouterr().err == ("[compare] 'utf-8' codec can't decode byte 0xff in "
                                       "position 0: invalid start byte\n")


def test_scenario_file_error_names_stage(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for text, message in [
            ("warp_drive = 9\n", "unknown key 'warp_drive'"),
            ("scenario = 2\ntimescale = 0\n", "timescale must be at least 1"),
            ("timescale = 0.5\n", "line 1: bad value for timescale"),
            ("seed = 1\nbudgets = 0,lots\n", "line 2: bad value for budgets"),
            ("phys_epoch = 0\n", "phys_epoch must be positive"),
            ("scenario = 0\n", "unknown scenario 0"),
            ("scenario = 6\n", "unknown scenario 6"),
            ("scenario = 5\nband_pattern = 0,1\n", "band_pattern has 2 entries"),
            ("scenario = 2\npacket_bits = 0\n", "packet_bits must be at least 1, got 0"),
            ("rate_min = 50\nrate_max = 10\n", "rate_min 50.0 exceeds rate_max 10.0"),
            ("max_gain_db = -1\n", "max_gain_db must not be negative, got -1.0"),
            ("rate_step = 0\n", "rate_step must be positive, got 0.0"),
            ("power_step = -60\n", "power_step must be positive, got -60.0"),
            ("dual_step = 0\n", "dual_step must be positive, got 0.0"),
            ("dual_step = nan\n", "dual_step must be positive, got nan"),
            ("scenario = 2\nhop_short = 0\n", "hop_short must be positive and finite, got 0.0"),
            ("scenario = 2\nhop_short = inf\n",
             "hop_short must be positive and finite, got inf"),
            ("hop_long = -60\n", "hop_long must be positive and finite, got -60.0"),
            ("scenario = 5\nchain_spacing = 0\n",
             "chain_spacing must be positive and finite, got 0.0"),
            ("bandwidth = -5\n", "bandwidth must be positive and finite, got -5.0"),
            ("bandwidth = 0\n", "bandwidth must be positive and finite, got 0.0"),
            ("noise = -1\n", "noise must be positive and finite, got -1.0"),
            ("noise = nan\n", "noise must be positive and finite, got nan"),
            ("slack_clip = -1\n", "slack_clip must not be negative, got -1.0"),
            ("power_move_max = -1\n", "power_move_max must not be negative, got -1.0"),
            ("rate_move_max = nan\n", "rate_move_max must not be negative, got nan"),
            ("rate_min = -5\n", "rate_min must not be negative, got -5.0"),
            ("rate_iters = -3\n", "rate_iters must not be negative, got -3"),
            ("power_iters = -3\n", "power_iters must not be negative, got -3"),
            ("seed = 1\nseed = 2\n", "line 2: duplicate key 'seed'"),
            ("pathloss_exp = -3\n", "pathloss_exp must be positive and finite, got -3.0"),
            ("pathloss_exp = nan\n", "pathloss_exp must be positive and finite, got nan"),
            ("scenario = 2\nbudgets = -5,1\n",
             "budgets must be finite and not negative, got -5.0"),
            ("max_gain_db = inf\n", "max_gain_db must be finite, got inf"),
            ("rate_max = inf\n", "rate_max must be finite, got inf"),
            ("dual_step = inf\n", "dual_step must be finite, got inf"),
            ("phys_epoch = inf\n", "phys_epoch must be finite, got inf"),
            ("congestion_exp = nan\n", "congestion_exp must be at least 1, got nan"),
            ("congestion_exp = 0.5\n", "congestion_exp must be at least 1, got 0.5"),
            ("congestion_exp = 0\n", "congestion_exp must be at least 1, got 0.0"),
            ("congestion_exp = -1\n", "congestion_exp must be at least 1, got -1.0"),
    ]:
        bad.write_text(text)
        rc = run_cli(["run", "--problem", PROBLEMS / "jocp.ncp",
                      "--scenario", bad, "--out", tmp_path])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("[scenario]") and message in err, (text, err)


# sha256 of trace.csv and summary.txt for runs at seed 0; a change that
# alters any simulated float shows here.
PINNED_RUNS = [
    ("jocp_log.ncp", "s2.cfg", 90,
     "076f40d5bd0c90fb009d2ffad9070904c390010cdbab1dcd0c8a4e888d3cefcf",
     "4ecc72111512eebe8b30f3f61860b9ea8917934014e99977a54cab19d782acb6", "joint"),
    ("jocp_log.ncp", "s5.cfg", 60,
     "4c529221dcc70d7b8ea51405f70b52ae61d9c4e3db639c4f1a6c86e174c68301",
     "48bb38b249fd67c5d61da1ce068f452737b78bafb2bf187c33f968f35beb7d37", "joint"),
    ("powermin.ncp", "s2.cfg", 90,
     "b2c16dffb4a93bd9975f6f71eb13def81318153f94c885d584a7d47ecc1913be",
     "6626eff78d6fb59448266bdd71e53be8c08c7d7b48486370c48543d4467e8e34", "joint"),
    # session 1 drains at t = 325: interference prices after a drain
    ("jocp_log.ncp", "s2_drain.cfg", 360,
     "86c642dc54e610ae9cacda13322017bb45fb7bd32f4897d6592c31dd311a5122",
     "4a01deec756c1a820845196d9bb7388b6eae53152dc2973d2ab3de56e98838c0", "joint"),
    # session 1 drains at t = 196 and links 2 and 3 go inactive: dual
    # bookkeeping across a topology change, with no power solves
    ("jocp_log.ncp", "s2_drain.cfg", 360,
     "66b3c90e52661b938576844c253780b19a9de7e193722bd2bbd760d2d43da38d",
     "edee5d6ff57eb52ea30433c877897ca5f4f36660f50ab975011053b504046244", "rate-only"),
    # three chains and a power cap on the session paths
    ("jocp_log_powercap.ncp", "s4.cfg", 120,
     "247813ce0e07eb34a18c628eb23b6d513b88524f2c374bc49304ce057b94b787",
     "70d6c2ca3b7862f32f072eb251182ce81e98a5abc3ff92119d6393e150c7556f", "joint"),
    # power solves with no rate solves
    ("jocp_log.ncp", "s4.cfg", 120,
     "574bfc4cb03c81cfaa91a45a7deab907da11e6bdb5eb5f165ea8b1d43fbc34a7",
     "4db8c3a3666c7556494fbff10c4ff628dca2480cc7dd8f390c2a1948bcd5d589", "power-only"),
]


@pytest.mark.parametrize("problem, scenario, duration, trace_sha, summary_sha, scheme",
                         PINNED_RUNS)
def test_pinned_trace_digests(tmp_path, problem, scenario, duration,
                              trace_sha, summary_sha, scheme):
    rc = run_cli(["run", "--problem", PROBLEMS / problem,
                  "--scenario", SCENARIOS / scenario, "--scheme", scheme,
                  "--duration", duration, "--seed", "0", "--out", tmp_path])
    assert rc == 0
    for name, sha in (("trace.csv", trace_sha), ("summary.txt", summary_sha)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha


def test_pinned_gradient_mode_digests(tmp_path):
    # dist=gradient takes one raw projected step per solve, which the
    # generic loop runs rather than a fused one
    problem = tmp_path / "jocp_log_gradient.ncp"
    text = (PROBLEMS / "jocp_log.ncp").read_text()
    assert "dist=dpl" in text
    problem.write_text(text.replace("dist=dpl", "dist=gradient"))
    out = tmp_path / "out"
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--scheme", "joint", "--duration", 90, "--seed", "0", "--out", out])
    assert rc == 0
    for name, sha in (
            ("trace.csv", "1f4127f6414ffd63dd03fba314d264f8aec5e52dddb06dbf7fd155cd7cb6bef9"),
            ("summary.txt", "ba015617994be8515201e27bbf24fe8ad74a91af0d8880092f5281a20186d66f")):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha


# Runs every pin given as JSON in argv[1] into argv[2]/<i>, and prints
# their digests as JSON; needs only the standard library and netnum.
_PIN_RUNNER = """
import hashlib, json, sys
from pathlib import Path
from netnum import cli
pins, out = json.loads(sys.argv[1]), Path(sys.argv[2])
digests = []
for i, (problem, scenario, duration, scheme) in enumerate(pins):
    rc = cli.main(["run", "--problem", problem, "--scenario", scenario,
                   "--scheme", scheme, "--duration", str(duration), "--seed", "0",
                   "--out", str(out / str(i))])
    digests.append([rc] + [hashlib.sha256((out / str(i) / name).read_bytes()).hexdigest()
                           for name in ("trace.csv", "summary.txt")])
print(json.dumps(digests))
"""


def _other_interpreters():
    """pyenv's interpreters from 3.10 on, other than the running one."""
    found = []
    for python in sorted((Path.home() / ".pyenv" / "versions").glob("*/bin/python3")):
        parts = python.parent.parent.name.split(".")
        if len(parts) == 3 and all(p.isdigit() for p in parts):
            version = tuple(map(int, parts))
            if version >= (3, 10) and version != sys.version_info[:3]:
                found.append(python)
    return found


def test_pinned_digests_on_every_interpreter(tmp_path):
    # float sums fold left from 0 everywhere, so the compensated sum()
    # of Python 3.12 and later cannot move a pinned trace
    pythons = _other_interpreters()
    if not pythons:
        pytest.skip("no other Python 3.10+ interpreter under ~/.pyenv/versions")
    pins = [[str(PROBLEMS / problem), str(SCENARIOS / scenario), duration, scheme]
            for problem, scenario, duration, _, _, scheme in PINNED_RUNS]
    want = [[0, trace_sha, summary_sha] for _, _, _, trace_sha, summary_sha, _ in PINNED_RUNS]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for python in pythons:
        out = tmp_path / python.parent.parent.name
        proc = subprocess.run([str(python), "-c", _PIN_RUNNER, json.dumps(pins), str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (python, proc.stderr)
        assert json.loads(proc.stdout.splitlines()[-1]) == want, python


# Prints, as JSON, the PINNED_DESIGN digest of every problem file named in
# argv[1:]; needs only the standard library and netnum.
_DESIGN_RUNNER = """
import hashlib, json, sys
from pathlib import Path
from netnum import abstraction, cli, decompose, instantiate
digests = {}
for path in map(Path, sys.argv[1:]):
    parsed = abstraction.parse_problem(path.read_text())
    h = hashlib.sha256()
    for seed in range(16):
        programs, dp, _ = cli.build_programs(parsed, instantiate.InstanceConfig(seed=seed))
        h.update(decompose.dump_dual(dp).encode())
        for layer in sorted(programs):
            h.update(decompose.dump_program(programs[layer]).encode())
    digests[path.name] = h.hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.parametrize("hash_seed", ["0", "2305"])
def test_pinned_design_digests_on_every_interpreter(hash_seed):
    # a design-time stage that came to depend on the iteration order of a
    # set of strings would move a digest under another hash seed
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    problems = [str(PROBLEMS / problem) for problem in sorted(PINNED_DESIGN)]
    for python in [Path(sys.executable)] + _other_interpreters():
        proc = subprocess.run([str(python), "-c", _DESIGN_RUNNER, *problems], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (python, proc.stderr)
        assert json.loads(proc.stdout.splitlines()[-1]) == PINNED_DESIGN, python


# Prints, as JSON, split_by_layer's refusal of a term that mixes layers in
# the first problem file of argv[3:], then per problem file the sha256 of
# each file that a 60 s run on scenario file argv[2], with every dump,
# writes under argv[1]; needs only the standard library and netnum.
_HASH_SEED_RUNNER = """
import hashlib, json, sys
from pathlib import Path
from netnum import abstraction, cli, decompose, expr, instantiate
out, scenario, problems = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
p = abstraction.parse_problem(Path(problems[0]).read_text())
dp = decompose.dualize(instantiate.instantiate_problem(p, instantiate.InstanceConfig())[0])
mixed = expr.mul(expr.var("sesrate", 0), expr.var("lnkpwr", 0))
try:
    decompose.split_by_layer(dp._replace(dual=expr.add(dp.dual, mixed)), p.graph)
except decompose.AmbiguousLayer as err:
    report = {"refusal": str(err)}
for problem in problems:
    dest = out / Path(problem).stem
    cli.main(["run", "--problem", problem, "--scenario", scenario, "--duration", "60",
              "--out", str(dest), "--dump-dual", "--dump-programs", "--dump-instances"])
    report[problem] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                       for f in sorted(dest.iterdir())}
print(json.dumps(report))
"""


def test_outputs_do_not_follow_the_hash_seed(tmp_path):
    # error text, dumps and traces must not read the iteration order of a
    # set of strings, which PYTHONHASHSEED decides
    problems = [str(PROBLEMS / name) for name in ("jocp_log.ncp", "powermin.ncp")]
    reports = []
    for hash_seed in "0123":
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _HASH_SEED_RUNNER, str(tmp_path / hash_seed),
                               str(SCENARIOS / "s2.cfg"), *problems],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    assert reports == reports[:1] * 4
    assert reports[0]["refusal"] == \
        "term sesrate_00*lnkpwr_00 mixes layers physical, transport"
    assert all(len(reports[0][p]) == 5 for p in problems)


def test_run_where_every_session_drains_at_once(tmp_path):
    # both budgets run out in epoch 0, so no link is active at any record
    cfg = tmp_path / "drained.cfg"
    cfg.write_text("scenario = 2\nbudgets = 1,1\n")
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                  "--scenario", cfg, "--duration", "30", "--out", tmp_path])
    assert rc == 0
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert "final_sum_utility\t0.0" in lines
    assert "mean_power_gain_db\tnan" in lines


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "netnum", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: netnum")


@pytest.mark.parametrize("problem, settings, stage, message", [
    # the problem's rate floor (4 packets/s) empties the scenario's rate
    # box: installing the problem's box rule refuses it
    ("powermin.ncp", "rate_max = 3\n", "simulate", "box lower 4.0 exceeds upper 3.0"),
    # a nan goodput exponent would break conservation under overload; the
    # scenario loader refuses it before any epoch runs
    ("jocp_log.ncp", "congestion_exp = nan\n", "scenario",
     "congestion_exp must be at least 1, got nan"),
    # the link programs' fused loops give up on a non-finite value; the
    # generic loop, run on their parameters by name, reports it
    ("jocp_log.ncp", "bandwidth = 1e308\n", "simulate", "non-finite gradient for pwrgain"),
    ("powermin.ncp", "bandwidth = 1e308\n", "simulate", "non-finite gradient for pwrgain"),
], ids=["empty-rate-box", "nan-congestion", "fused-gives-up-log", "fused-gives-up-powermin"])
def test_simulation_error_names_stage(tmp_path, capsys, problem, settings, stage, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = 2\n" + settings)
    rc = run_cli(["run", "--problem", PROBLEMS / problem,
                  "--scenario", cfg, "--duration", "30", "--out", tmp_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[{stage}] ") and err.endswith(f"{message}\n")


@pytest.mark.parametrize("scheme", netsim.SCHEMES)
@pytest.mark.parametrize("constraint, message", [
    # s2's power box tops out at max_gain_db = 30
    ("constraint 40 <= wos_p", "lnkpwr on link 0: box lower 40.0 exceeds upper 30.0"),
    # powermin's own rate floor is 4 packets/s
    ("constraint wos_r <= 2", "sesrate on session 0: box lower 4.0 exceeds upper 2.0"),
], ids=["lnkpwr", "sesrate"])
def test_empty_box_fails_alike_under_every_scheme(tmp_path, capsys, scheme, constraint,
                                                  message):
    problem = tmp_path / "problem.ncp"
    problem.write_text((PROBLEMS / "powermin.ncp").read_text() + constraint + "\n")
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--scheme", scheme, "--duration", "30", "--out", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err == f"[simulate] {message}\n"


@pytest.mark.parametrize("problem_text, settings, stage, message", [
    # a literal beyond the float range: the parser names it
    ("constraint sum(wos_y) <= 1e400*wos_z", "", "parse",
     "literal 1e400 is not finite"),
    # 1e-300 m hops: d ** -pathloss_exp overflows while the channel is built
    (None, "hop_short = 1e-300\n", "scenario",
     "channel gain over 1e-300 m overflows a float"),
    # the top of the power box overflows db_to_linear during the run
    (None, "max_gain_db = 1e308\n", "scenario", "max_gain_db 1e+308 overflows a float"),
    # 1e-102 m hops: the channel gain (about 1e306) is finite, but the SNR
    # at the top of the power box is not
    (None, "hop_short = 1e-102\n", "scenario",
     "SNR at max_gain_db over 1e-102 m overflows a float"),
], ids=["literal-1e400", "hop-short-1e-300", "max-gain-db-1e308", "snr-hop-short-1e-102"])
def test_overflowing_input_names_stage(tmp_path, capsys, problem_text, settings, stage,
                                       message):
    problem = tmp_path / "problem.ncp"
    text = (PROBLEMS / "jocp_log.ncp").read_text()
    if problem_text is not None:
        text = text.replace("constraint sum(wos_y) <= wos_z", problem_text)
    problem.write_text(text)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario = 2\n" + settings)
    rc = run_cli(["run", "--problem", problem, "--scenario", cfg,
                  "--duration", "60", "--out", tmp_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"[{stage}] ") and message in err, err


@pytest.mark.parametrize("per_link, message", [
    # a global constraint's dual shares each session's shape with the
    # per-link duals, so one group spans two families
    (True, r"dual group \[[0-9, ]+\] spans constraint families \{0, 1\}"),
    # alone, its dual is no local-element instance and not the session's own
    (False, r"dual index set \(None,\) matches no local-element instance for session 0"),
], ids=["with-per-link", "alone"])
def test_constraint_without_holder_fails_to_lift(tmp_path, capsys, per_link, message):
    text = (PROBLEMS / "jocp.ncp").read_text()
    if not per_link:
        text = text.replace("constraint sum(wos_y) <= wos_z\n", "")
    problem = tmp_path / "problem.ncp"
    problem.write_text(text + "constraint sum(wos_x) <= 150\n")
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--duration", "60", "--out", tmp_path])
    assert rc == 2
    assert re.fullmatch(rf"\[decompose\] {message}\n", capsys.readouterr().err)


SUM_RULE = r"\[parse\] \S+: line {}: sesrate ranges over netses and must appear under sum\(\)"


@pytest.mark.parametrize("old, new, message", [
    # an `all` variable outside sum() is refused in the utility, at its column
    ("utility max sum(log(wos_x))", "utility max log(wos_x)", SUM_RULE.format("8, col 16")),
    # and in a constraint that does not lower to a box rule
    ("decompose", "constraint 2*wos_x <= 1\ndecompose", SUM_RULE.format("10, col 13")),
    # an `every` variable is checked on its own declaration, though the
    # `all` wos_x reads the same attribute; the problem now fails at
    # decompose, where a session family reading link variables does
    ("decompose", "var wos_r path=netses.sesrate quant=every,none\n"
                  "var wos_q path=netses.seslnk.lnkcap quant=every,all,none\n"
                  "constraint wos_r <= sum(wos_q)\ndecompose",
     r"\[decompose\] dual group \[[0-9, ]+\] spans constraint families \{0, 1\}"),
], ids=["utility-all", "constraint-all", "constraint-every"])
def test_sum_rule_is_checked_per_declared_variable(tmp_path, capsys, old, new, message):
    text = (PROBLEMS / "jocp_log.ncp").read_text()
    assert old in text
    problem = tmp_path / "problem.ncp"
    problem.write_text(text.replace(old, new))
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--duration", "60", "--out", tmp_path])
    assert rc == 2
    assert re.fullmatch(rf"{message}\n", capsys.readouterr().err)


@pytest.mark.parametrize("line, message", [
    ("protocol foo cdma", "line 3, col 0: unknown layer 'foo'"),
    ("protocol physical", "line 3, col 0: protocol takes <layer> <name>"),
], ids=["unknown-layer", "one-word"])
def test_protocol_line_is_checked(tmp_path, capsys, line, message):
    # protocols change nothing compiled, but a bad line is still refused
    problem = tmp_path / "problem.ncp"
    problem.write_text((PROBLEMS / "jocp_log.ncp").read_text().replace(
        "protocol physical cdma", line))
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--duration", "60", "--out", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err == f"[parse] {problem}: {message}\n"


JOCP_LOG_NCP = (PROBLEMS / "jocp_log.ncp").read_text()
DECOMPOSE = "decompose cross=dual dist=dpl"


def jocp_log_with(old, new):
    assert old in JOCP_LOG_NCP
    return JOCP_LOG_NCP.replace(old, new)


@pytest.mark.parametrize("text, message", [
    (jocp_log_with("utility max sum(log(wos_x))", "utility max sum((log(wos_x))"),
     "line 8, col 28: expected ), got 'end of line'"),
    (jocp_log_with("constraint sum(wos_y) <= wos_z", "constraint sum(wos_y) <= wos_z wos_z"),
     "line 9, col 31: trailing input 'wos_z'"),
    (jocp_log_with("utility max sum(log(wos_x))", "utility max sum(2)"),
     "line 8, col 12: sum() needs exactly one all-quantified variable"),
    (jocp_log_with("utility max sum(log(wos_x))", "utility max sum(wos_x + wos_y)"),
     "line 8, col 12: sum() needs exactly one all-quantified variable"),
    # an `every` variable names no set to sum, though the `all` wos_x
    # beside it reads the same attribute
    (jocp_log_with("utility max sum(log(wos_x))",
                   "var wos_r path=netses.sesrate quant=every,none\n"
                   "utility max sum(log(wos_x)) + sum(wos_r)"),
     "line 9, col 30: sum() needs exactly one all-quantified variable"),
    (jocp_log_with(DECOMPOSE, "var wos_r path=netses.sesrate quant=every,none\n"
                              "constraint wos_r <= wos_z\n" + DECOMPOSE),
     "line 11, col 0: constraint mixes every-quantifiers: netlnk, netses"),
    (jocp_log_with("constraint sum(wos_y) <= wos_z", "constraint sum(wos_y) wos_z"),
     "line 9, col 22: constraint needs <= or >="),
    (jocp_log_with(DECOMPOSE, "var  wos_x path=netses.sesrate quant=all,none\n" + DECOMPOSE),
     "line 10, col 5: duplicate variable 'wos_x'"),
    (jocp_log_with(DECOMPOSE, "var wos_t path=netses.sesrate quant=all,all\n" + DECOMPOSE),
     "line 10, col 0: wos_t: terminal quantifier must be none"),
    (jocp_log_with(DECOMPOSE, "var wos_t path=Link.lnkcap quant=all,none\n" + DECOMPOSE),
     "line 10, col 0: wos_t: quantifier on non-set element Link"),
    (jocp_log_with(DECOMPOSE, "var wos_t path=netses.lnkcap quant=all,none\n" + DECOMPOSE),
     "line 10, col 0: lnkcap is not an attribute reachable from netses"),
    (jocp_log_with(DECOMPOSE, "var wos_t path=netses.seslnk quant=all,none\n" + DECOMPOSE),
     "line 10, col 0: path must end at a scalar attribute, got seslnk"),
    (jocp_log_with(DECOMPOSE, "var wos_t path=netses.sesrate quant=0,none\n"
                              "constraint wos_t <= 3\n" + DECOMPOSE),
     "line 11, col 0: wos_t: member selection needs a set below it"),
    (jocp_log_with(DECOMPOSE, "decompose cross=primal dist=dpl"),
     "line 10, col 0: unsupported cross-layer method 'primal'"),
    (jocp_log_with(DECOMPOSE, "decompose cross=dual dist=newton"),
     "line 10, col 0: unsupported distributed method 'newton'"),
    # the one statement error that concerns the whole file, beside `missing utility`
    ("var wos_z path=netlnk.lnkcap quant=all,none\nutility max sum(wos_z)\n",
     "no control variable declared"),
], ids=["unclosed-parenthesis", "trailing-input", "sum-without-all", "sum-of-two-sets",
        "sum-of-every", "mixed-every", "no-relation", "duplicate-variable", "terminal-quantifier",
        "non-set-quantifier", "unreachable-attribute", "non-scalar-end", "member-selection",
        "cross-layer-method", "distributed-method", "no-control-variable"])
def test_statement_errors_name_their_line(tmp_path, capsys, text, message):
    problem = tmp_path / "problem.ncp"
    problem.write_text(text)
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--duration", "60", "--out", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err == f"[parse] {problem}: {message}\n"


@pytest.mark.parametrize("line, word", [
    ("decompose cross=dual dist=dpl foo=bar", "foo=bar"),
    ("decompose dual", "dual"),
    ("decompose cross=dual dist=dpl dist=gradient", "dist=gradient"),
], ids=["unknown-key", "bare-word", "repeated-key"])
def test_decompose_line_is_checked(tmp_path, capsys, line, word):
    # only cross= and dist=, each at most once: nothing on the line is ignored
    problem = tmp_path / "problem.ncp"
    problem.write_text(jocp_log_with(DECOMPOSE, line))
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--duration", "60", "--out", tmp_path, "--dump-programs"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"[parse] {problem}: line 10, col 0: decompose takes cross=<method> "
        f"dist=<method>, each at most once, got {word!r}\n")
    assert not (tmp_path / "programs.txt").exists()


@pytest.fixture(scope="module")
def powermin_dual_run(tmp_path_factory):
    """powermin with its rate floor dualized, a constraint family that the
    sessions hold, run on s2 under joint for 300 s at seed 0: the output
    directory, the finished network and its trace."""
    out = tmp_path_factory.mktemp("powermin_dual")
    problem = out / "problem.ncp"
    text = (PROBLEMS / "powermin.ncp").read_text()
    assert "constraint 4 <= wos_r" in text
    problem.write_text(text.replace("constraint 4 <= wos_r", "constraint 8 <= 2*wos_r"))
    runs, run = [], netsim.run

    def kept(net, *args):
        runs.append((net, run(net, *args)))
        return runs[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(netsim, "run", kept)
        rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                      "--scheme", "joint", "--duration", "300", "--seed", "0",
                      "--out", out, "--dump-programs"])
    return (rc, out, *runs[0])


def test_session_held_dual_runs(powermin_dual_run):
    rc, out, net, _ = powermin_dual_run
    assert rc == 0
    assert "collect: seslnk#0, self#1" in (out / "programs.txt").read_text()
    duals = next(f.duals for f in net.families if f.entity == "session")
    assert len(duals) == 2 and duals[0] >= 0.0 and duals[1] > 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the session-held floor is not met at convergence: the tail-30% mean "
    "throughputs are 4.38 and 5.40 pps, but session 1 drops to rate_min "
    "(0.05 pps) within the last 90 epochs (ROADMAP items 3 and 5)"))
def test_session_held_rate_floor_is_met_at_convergence(powermin_dual_run):
    _, _, net, trace = powermin_dual_run
    for s in net.sessions:
        series = trace.values("session", "throughput_pps", s.index)
        tail = series[-int(len(series) * 0.3):]
        # 4 pps, within 5 %, on every epoch of the last 30 %
        assert min(tail) >= 0.95 * 4.0, (s.index, sum(tail) / len(tail), min(tail))


def test_constant_dual_term_runs(tmp_path, capsys):
    # the constant lhs term goes to the link holding the constraint, and
    # the physical program collects that link's own dual once
    problem = tmp_path / "problem.ncp"
    problem.write_text((PROBLEMS / "jocp_log.ncp").read_text().replace(
        "constraint sum(wos_y) <= wos_z", "constraint sum(wos_y) + 5 <= wos_z"))
    rc = run_cli(["run", "--problem", problem, "--scenario", SCENARIOS / "s2.cfg",
                  "--duration", "60", "--out", tmp_path, "--dump-programs"])
    assert rc == 0, capsys.readouterr().err
    programs = (tmp_path / "programs.txt").read_text()
    assert "objective: max lnkcap*lbd - 5*lbd\ndecision: lnkpwr\ncollect: self#0\n" \
        in programs
    assert (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "0", "--seeds must be at least 1, got 0"),
    ("--seeds", "-2", "--seeds must be at least 1, got -2"),
    ("--duration", "nan", "duration must be finite and last at least one 1.0 s epoch, got nan"),
    ("--duration", "inf", "duration must be finite and last at least one 1.0 s epoch, got inf"),
    ("--duration", "0.4", "duration must be finite and last at least one 1.0 s epoch, got 0.4"),
], ids=["seeds-zero", "seeds-negative", "duration-nan", "duration-inf", "duration-no-epoch"])
def test_bad_run_options_name_stage(tmp_path, capsys, flag, value, message):
    args = ["run", "--problem", PROBLEMS / "jocp_log.ncp",
            "--scenario", SCENARIOS / "s1.cfg", "--duration", "30", "--out", tmp_path]
    rc = run_cli(args + [flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"[simulate] {message}\n"


# sha256 of dump_dual followed by every layer's dump_program, over
# instantiation seeds 0-15, per shipped problem; a change to any
# design-time stage that alters a dual or a template shows here.
PINNED_DESIGN = {
    "jocp.ncp": "52b7861ced6693f66fcd407c76b01c5515109e188001f0ba50c3d78f2be6a2c3",
    "jocp_log.ncp": "09512dd54ae32ea42470c39eec2b6d32e9ca56939497f094ec3c8d3c2f3818ed",
    "jocp_log_powercap.ncp": "09512dd54ae32ea42470c39eec2b6d32e9ca56939497f094ec3c8d3c2f3818ed",
    "powermin.ncp": "48cabd594cf73d14bdfc534bcdd1d2bfad5b3c82a3a02612f436e124d86d279a",
}


@pytest.mark.parametrize("problem, digest", sorted(PINNED_DESIGN.items()))
def test_pinned_design_time_digests(problem, digest):
    parsed = abstraction.parse_problem((PROBLEMS / problem).read_text())
    h = hashlib.sha256()
    for seed in range(16):
        programs, dp, _ = cli.build_programs(parsed, instantiate.InstanceConfig(seed=seed))
        h.update(decompose.dump_dual(dp).encode())
        for layer in sorted(programs):
            h.update(decompose.dump_program(programs[layer]).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("problem", sorted(PINNED_DESIGN))
def test_programs_do_not_depend_on_unpinned_seeds(problem):
    # the bijection claim: a lifted template does not depend on the
    # sampled instance map; seeds 112-127 lie outside the pinned range
    parsed = abstraction.parse_problem((PROBLEMS / problem).read_text())

    def rendered(seed):
        programs, _, _ = cli.build_programs(parsed, instantiate.InstanceConfig(seed=seed))
        return {layer: decompose.dump_program(prog) for layer, prog in programs.items()}

    first = rendered(0)
    for seed in range(112, 128):
        assert rendered(seed) == first, seed


def test_design_time_resolves_fewer_models_than_entities(monkeypatch):
    # the lift finds each layer's decision by walking the graph's models,
    # so resolving a model is no per-entity cost
    problem = abstraction.parse_problem((PROBLEMS / "jocp_log.ncp").read_text())
    resolve, lift = abstraction.resolve_model, decompose.lift_to_abstract
    calls, lifted = [], []

    def counted(graph, name):
        calls.append(name)
        return resolve(graph, name)

    for module in (abstraction, decompose):
        if hasattr(module, "resolve_model"):
            monkeypatch.setattr(module, "resolve_model", counted)
    monkeypatch.setattr(decompose, "lift_to_abstract",
                        lambda entities, m: lifted.extend(entities) or lift(entities, m))
    counts = []
    for n_glb in (20, 8):
        calls.clear()
        lifted.clear()
        programs, _, _ = cli.build_programs(
            problem, instantiate.InstanceConfig(n_glb=n_glb, n_lcl=4))
        assert len(lifted) == 2 * n_glb
        assert programs["physical"].decision == "lnkpwr"
        counts.append(len(calls))
    assert counts[0] == counts[1] < 8


def test_per_layer_work_runs_once_per_layer(monkeypatch):
    # the holder table, the entity kinds of the global elements' members
    # and the decision belong to a layer: a build does them as often with
    # 20 entities a layer as with 8
    problem = abstraction.parse_problem((PROBLEMS / "jocp_log.ncp").read_text())
    calls: dict[str, int] = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    for owner, name in [(decompose, "_decision_base"), (decompose, "_entity_kinds"),
                        (abstraction.ElementGraph, "member_of")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))

    # per candidate, not per layer: every sampled candidate is hashed once,
    # and the rule check takes those hashes over
    for name in ("sample_local", "hash_id"):
        monkeypatch.setattr(instantiate, name,
                            counted(name, getattr(instantiate, name)))

    # the substitute passes penalize makes itself, not those of the
    # models it resolves; a pass is one outermost call
    penalize, substitute = decompose.penalize, expr.substitute
    passes, penalties = [], []

    def counted_substitute(e, mapping):
        if sys._getframe(1).f_code is penalize.__code__:
            passes.append(e)
        return substitute(e, mapping)

    def counted_penalize(*args):
        prog = penalize(*args)
        penalties.append(prog.penalty is not None)
        return prog

    monkeypatch.setattr(expr, "substitute", counted_substitute)
    monkeypatch.setattr(decompose, "penalize", counted_penalize)
    counts = []
    for n_glb in (20, 8):
        calls.clear()
        cli.build_programs(problem, instantiate.InstanceConfig(n_glb=n_glb, n_lcl=4))
        sampled, hashed = calls.pop("sample_local"), calls.pop("hash_id")
        assert hashed == sampled >= n_glb
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    # one decision and one lift's holder table per layer, and one for each
    # layer's split by entity
    assert counts[0]["_decision_base"] == 2 and counts[0]["_entity_kinds"] == 4
    # jocp_log penalizes under dpl: the physical layer's program gets a
    # penalty, built in one substitute pass
    assert penalties == [False, True] * 2 and len(passes) == 2


def _renest(term):
    """term with every factor of its product after the first nested in a
    product of their own, x*(y*lbd) or x*(lbd): a tree the factories never
    build, rendered exactly as term is."""
    if term.kind == "neg":
        return expr.Expr("neg", (_renest(term.children[0]),))
    return expr.Expr("mul", (term.children[0], expr.Expr("mul", term.children[1:])))


def _dual_indices(term):
    return [i for b, i in term.var_pairs if b == decompose.LBD]


# (skewed field, layer): jocp_log's physical entities hold no term
# without a dual, so only a transport entity can drop one
LIFT_SKEWS = [("collect", "physical"), ("collect", "transport"),
              ("objective", "physical"), ("objective", "transport"),
              ("renest", "physical"), ("renest", "transport"),
              ("drop", "transport"),
              ("move", "physical"), ("move", "transport")]


@pytest.mark.parametrize("field, layer", LIFT_SKEWS,
                         ids=[f"{field}-{layer}" for field, layer in LIFT_SKEWS])
def test_lift_compares_every_entity(monkeypatch, tmp_path, capsys, field, layer):
    problem = abstraction.parse_problem((PROBLEMS / "jocp_log.ncp").read_text())
    lift, split = decompose.lift_to_abstract, decompose.split_by_entity
    lifted = []

    def recorded(entities, m):
        lifted.extend((sub.layer, sub.entity_index) for sub in entities)
        return lift(entities, m)

    monkeypatch.setattr(decompose, "lift_to_abstract", recorded)
    programs, dp, imap = cli.build_programs(problem)
    assert sorted(lifted) == sorted((lr, i) for lr in ("physical", "transport")
                                    for i in range(20))

    layers, _ = decompose.split_by_layer(dp, problem.graph)
    last = split(layers[layer], problem.graph)[-1]
    # the smallest dual index outside the last entity's own set belongs
    # to another member's instance
    own = {i for t in expr.level1_terms(last.objective) for i in _dual_indices(t)}
    moved, to = min(own), min(set(range(len(dp.registry))) - own)

    def skew(sub):
        # a constant term changes the template's objective only; a
        # renumbered constraint family changes its collection rules only;
        # re-nested dual terms and a dropped utility term change the
        # objective only; a dual moved to an index outside the entity's
        # instance matches no local element
        terms = expr.level1_terms(sub.objective)
        if field == "objective":
            return sub._replace(objective=expr.add(sub.objective, expr.ONE))
        if field == "collect":
            registry = [c._replace(family=c.family + 1) for c in sub.dual.registry]
            return sub._replace(dual=sub.dual._replace(registry=registry))
        if field == "renest":
            terms = [_renest(t) if _dual_indices(t) else t for t in terms]
        elif field == "drop":
            terms.remove(next(t for t in terms if not _dual_indices(t)))
        else:
            terms = [expr.substitute(t, {expr.var_name(decompose.LBD, moved):
                                         expr.var(decompose.LBD, to)}) for t in terms]
        return sub._replace(objective=expr.add(*terms))

    if field == "move":
        message = (f"dual index set {tuple(sorted(own - {moved} | {to}))} matches no "
                   f"local-element instance for {last.entity_kind} {last.entity_index}")
        with pytest.raises(decompose.NoMatchingElement) as err:
            lift([skew(last)], imap)
        assert str(err.value) == message
    else:
        alone = lift([skew(last)], imap)
        changed = "collect" if field == "collect" else "objective"
        kept = "objective" if field == "collect" else "collect"
        assert getattr(alone, changed) != getattr(programs[layer], changed)
        assert getattr(alone, kept) == getattr(programs[layer], kept)
        message = f"[lift] {layer}: entity templates differ"

    # only the subproblem of the layer's last entity is skewed
    def skewed(sub, graph):
        entities = split(sub, graph)
        if sub.layer == layer:
            entities[-1] = skew(entities[-1])
        return entities

    monkeypatch.setattr(decompose, "split_by_entity", skewed)
    error = decompose.NoMatchingElement if field == "move" else cli.CliError
    with pytest.raises(error) as err:
        cli.build_programs(problem)
    assert str(err.value) == message
    if field != "move":
        assert err.value.stage == "lift"
    rc = run_cli(["run", "--problem", PROBLEMS / "jocp_log.ncp",
                  "--scenario", SCENARIOS / "s1.cfg", "--duration", "30",
                  "--out", tmp_path])
    assert rc == 2
    assert capsys.readouterr().err == f"[decompose] {message}\n"

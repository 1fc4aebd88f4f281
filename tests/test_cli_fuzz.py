"""A seeded fuzz of the command line.  Shipped problem and scenario files,
and a written trace, are mutated at random (tokens swapped, lines
deleted, lines appended that set a value such as 0, -1, 1e308, 1e-300,
nan or inf), and each mutant goes through `netnum run` or `netnum
compare` in-process.  Every case must exit 0, or exit 2 with an error
that names its stage; nothing may raise out of cli.main.  A `[parse]` error must name its
line and column, unless it concerns the whole file."""

import random
import re
from pathlib import Path

import pytest

import netnum
from netnum import cli, netsim

DATA = Path(netnum.__file__).parent / "data"
PROBLEMS = sorted((DATA / "problems").glob("*.ncp"))
SCENARIOS = sorted((DATA / "scenarios").glob("*.cfg"))
STAGES = ("[load] ", "[parse] ", "[scenario] ", "[decompose] ", "[simulate] ")
VALUES = ("0", "-1", "1e308", "1e-300", "nan", "inf")
KEYS = netsim.ScenarioConfig._fields
SEED = 6
RUNS, COMPARES = 100, 20


def swap_tokens(text, rng):
    pieces = re.split(r"(\W)", text)
    spots = [i for i, piece in enumerate(pieces) if piece.strip()]
    i, j = rng.sample(spots, 2)
    pieces[i], pieces[j] = pieces[j], pieces[i]
    return "".join(pieces)


def delete_line(text, rng):
    lines = text.splitlines()
    del lines[rng.randrange(len(lines))]
    return "\n".join(lines) + "\n"


def scenario_line(text, rng):
    return f"{text}{rng.choice(KEYS)} = {rng.choice(VALUES)}\n"


def problem_line(text, rng):
    name, value = rng.choice(re.findall(r"^var (\w+)", text, re.M)), rng.choice(VALUES)
    return text + rng.choice([f"constraint {name} <= {value}\n",
                              f"constraint {value} <= {name}\n",
                              f"constraint sum(wos_y) <= {value}*wos_z\n"])


def trace_line(text, rng):
    row = rng.choice(text.splitlines()[1:]).split(",")
    row[rng.choice((0, 2, 4))] = rng.choice(VALUES)
    return text + ",".join(row) + "\n"


def mutate(text, rng, append):
    return rng.choice((swap_tokens, delete_line, append))(text, rng)


LOCATED = re.compile(r"\[parse\] \S+: (line \d+, col \d+: .+|missing utility"
                     r"|no control variable declared)\n")


def check(rc, err, stages, case, escapes):
    named = rc == 0 or (rc == 2 and err.startswith(stages))
    if not named or (err.startswith("[parse] ") and not LOCATED.fullmatch(err)):
        escapes.append((case, rc, err))


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    escapes = []
    for i in range(RUNS):
        problem, scenario = rng.choice(PROBLEMS), rng.choice(SCENARIOS)
        texts = [problem.read_text(), scenario.read_text()]
        for k in rng.choice(([0], [1], [0, 1])):
            texts[k] = mutate(texts[k], rng, (problem_line, scenario_line)[k])
        paths = [tmp_path / f"{i}.ncp", tmp_path / f"{i}.cfg"]
        for path, text in zip(paths, texts):
            path.write_text(text)
        args = ["run", "--problem", str(paths[0]), "--scenario", str(paths[1]),
                "--scheme", rng.choice(netsim.SCHEMES), "--duration", "60",
                "--out", str(tmp_path / str(i))]
        try:
            rc = cli.main(args)
        except Exception as err:   # an escape: report it with its case
            rc = repr(err)
        check(rc, capsys.readouterr().err, STAGES, (args, texts), escapes)

    # a trace whose rows change when session 1 drains
    out = tmp_path / "trace"
    assert cli.main(["run", "--problem", str(DATA / "problems" / "jocp_log.ncp"),
                     "--scenario", str(DATA / "scenarios" / "s2_drain.cfg"),
                     "--scheme", "rate-only", "--duration", "240", "--seed", "0",
                     "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text()
    for i in range(COMPARES):
        texts = [trace, mutate(trace, rng, trace_line)]
        if rng.random() < 0.5:
            texts[0] = mutate(trace, rng, trace_line)
        paths = [tmp_path / f"a{i}.csv", tmp_path / f"b{i}.csv"]
        for path, text in zip(paths, texts):
            path.write_text(text)
        try:
            rc = cli.main(["compare", str(paths[0]), str(paths[1])])
        except Exception as err:   # an escape: report it with its case
            rc = repr(err)
        check(rc, capsys.readouterr().err, ("[compare] ",), paths, escapes)
    assert escapes == []


@pytest.mark.parametrize("problem, edit, settings, message", [
    # 6e301 epochs of 1e-300 s: refused before the first one runs
    ("jocp_log.ncp", None, "phys_epoch = 1e-300\n",
     "[simulate] duration 60.0 s is 6e+301 epochs of 1e-300 s; a run takes at most 1000000"),
    # power boxes in dB whose top overflows db_to_linear
    ("jocp_log_powercap.ncp", ("", "constraint wos_c <= 1e308\n"), "",
     "[simulate] power bound 1e+308 dB overflows a float"),
    ("powermin.ncp", ("", "constraint 1e308 <= wos_p\n"), "",
     "[simulate] power bound 1e+308 dB overflows a float"),
    # the utility sums the first session's links, which no global set binds
    ("jocp_log_powercap.ncp", ("sum(log(wos_x))", "sum(log(wos_c))"), "",
     "[decompose] sum over local set seslnk outside a constraint over its holder"),
    # malformed numerals are refused at their column, not by float()
    *[("jocp_log.ncp", ("<= wos_z", f"<= {num}*wos_z"), "",
       f"[parse] <file>: line 9, col 25: malformed number {num!r}")
      for num in ("1.2.3", "1e", "3e+", "1..5")],
], ids=["phys-epoch-1e-300", "power-cap-1e308", "power-floor-1e308", "utility-local-sum",
        "numeral-1.2.3", "numeral-1e", "numeral-3e+", "numeral-1..5"])
def test_found_escapes_name_their_stage(tmp_path, capsys, problem, edit, settings, message):
    text = (DATA / "problems" / problem).read_text()
    if edit is not None:
        old, new = edit
        assert old in text
        text = text.replace(old, new) if old else text + new
    (tmp_path / "problem.ncp").write_text(text)
    (tmp_path / "bad.cfg").write_text("scenario = 2\n" + settings)
    rc = cli.main(["run", "--problem", str(tmp_path / "problem.ncp"),
                   "--scenario", str(tmp_path / "bad.cfg"), "--duration", "60",
                   "--out", str(tmp_path / "out")])
    message = message.replace("<file>", str(tmp_path / "problem.ncp"))
    assert (rc, capsys.readouterr().err) == (2, message + "\n")

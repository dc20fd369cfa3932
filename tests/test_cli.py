import json
import os
import subprocess
import sys

import pytest

import atlstar
from atlstar import bench
from atlstar import cli
from atlstar import driver
from atlstar import ltlf2dfa


MODEL = """
agents: a b
atoms: p goal
states: s0 s1
initial: s0
final: s1
actions a: go stay
actions b: go stay
label s1: p goal
trans s0 (go,go) -> s1
trans s0 (go,stay) -> s0
trans s0 (stay,go) -> s0
trans s0 (stay,stay) -> s0
trans s1 (go,go) -> s1
trans s1 (go,stay) -> s1
trans s1 (stay,go) -> s1
trans s1 (stay,stay) -> s1
"""


@pytest.fixture
def model_file(tmp_path):
    f = tmp_path / "model.cgs"
    f.write_text(MODEL)
    return str(f)


def test_check_holds(model_file, capsys):
    rc = cli.main(["check", model_file, "<<a,b>> F goal"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_HOLDS
    assert "holds" in out


def test_check_not_holds(model_file, capsys):
    # under infinite semantics agent a cannot force goal alone, since b
    # may answer stay forever (finite semantics would be vacuously safe:
    # the play can avoid final states entirely)
    rc = cli.main(["check", model_file, "<<a>> F goal",
                   "--semantics", "infinite"])
    assert rc == cli.EXIT_NOT_HOLDS
    assert "does not hold" in capsys.readouterr().out


def test_check_json(model_file, capsys):
    rc = cli.main(["check", model_file, "<<a,b>> F goal", "--json"])
    assert rc == cli.EXIT_HOLDS
    data = json.loads(capsys.readouterr().out)
    assert data["holds"] is True
    assert data["state_names"] == ["s0", "s1"]
    assert data["details"]["encodes"] == 1
    (sub,) = data["details"]["subformulas"]
    assert sub["rounds"] >= 1
    assert sub["automaton_states"] >= 1
    assert sub["nodes"] > 2
    # model and formula parsing are both timed, inside the total
    t = data["timings_ms"]
    assert t["parse"] > 0
    assert sum(t[k] for k in ("parse", "translate", "encode", "build",
                              "solve")) <= t["total"]


def test_parse_error_is_usage(model_file, capsys):
    rc = cli.main(["check", model_file, "<<a>> F ("])
    assert rc == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_unknown_atom_is_usage(model_file, capsys):
    rc = cli.main(["check", model_file, "<<a>> F nosuch"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "nosuch" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_missing_model_is_usage(tmp_path, capsys):
    rc = cli.main(["check", str(tmp_path / "nope.cgs"), "<<a>> F goal"])
    assert rc == cli.EXIT_USAGE


def test_python_dash_m_runs_the_cli(model_file, tmp_path):
    # the package runs as a module, with the CLI's exit codes
    src = os.path.dirname(os.path.dirname(atlstar.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(model):
        return subprocess.run(
            [sys.executable, "-m", "atlstar", "check", model, "<<a>> F goal"],
            capture_output=True, text=True, env=env, timeout=120)

    done = run(model_file)
    assert done.returncode in (cli.EXIT_HOLDS, cli.EXIT_NOT_HOLDS), \
        done.stderr
    assert "hold" in done.stdout
    missing = run(str(tmp_path / "nope.cgs"))
    assert missing.returncode == cli.EXIT_USAGE
    assert len(missing.stderr.splitlines()) == 1
    assert "Traceback" not in missing.stderr


def test_bad_subcommand_is_usage(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_config_defaults_and_flag_override(model_file, tmp_path, capsys):
    cfg = tmp_path / "atlstar.cfg"
    cfg.write_text("# defaults\nsemantics=infinite\nengine=explicit\n")
    rc = cli.main(["check", model_file, "<<a,b>> F goal", "--config",
                   str(cfg), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_HOLDS
    assert data["semantics"] == "infinite"
    assert data["engine"] == "explicit"
    # a flag wins over the config value
    rc = cli.main(["check", model_file, "<<a,b>> F goal", "--config",
                   str(cfg), "--semantics", "finite", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["semantics"] == "finite"


def test_bad_config_line(model_file, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a pair\n")
    rc = cli.main(["check", model_file, "<<a,b>> F goal", "--config",
                   str(cfg)])
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("line", ["engin=explicit", "solver=progress"])
def test_unknown_config_key(line, model_file, tmp_path, capsys):
    # a misspelt or retired key is an error, not a silent default
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"semantics=finite\n{line}\n")
    rc = cli.main(["check", model_file, "<<a,b>> F goal", "--config",
                   str(cfg), "--json"])
    out, err = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert out == ""
    key = line.split("=")[0]
    assert err.splitlines() == [
        f"error: {cfg}:2: unknown config key {key!r}; "
        "known: semantics, engine, tools"]


def test_config_is_read_before_the_model(tmp_path, capsys):
    # a bad config key is reported without parsing the model first
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("engin=explicit\n")
    model = tmp_path / "broken.cgs"
    model.write_text("agents: a\nthis is not CGSL\n")
    rc = cli.main(["check", str(model), "<<a>> F p", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.splitlines() == [
        f"error: {cfg}:1: unknown config key 'engin'; "
        "known: semantics, engine, tools"]


def test_config_tools_key(model_file, tmp_path, capsys):
    # tools are |-separated translator commands, each one raced
    cfg = tmp_path / "tools.cfg"
    cfg.write_text("semantics=infinite\ntools=false|exit 3\n")
    rc = cli.main(["check", model_file, "<<a,b>> F goal", "--config",
                   str(cfg)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error: all translator tools failed")
    assert "false: exit code 1" in err and "exit 3: exit code 3" in err


def test_check_has_no_solver_option(capsys):
    # Zielonka's is the only parity solver, so nothing selects one
    assert cli.main(["check", "--help"]) == 0
    assert "solver" not in capsys.readouterr().out


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "counter.cgs"
    rc = cli.main(["gen", "counter", "--param", "cap=1", "--param",
                   "steps=1", "-o", str(out)])
    assert rc == 0
    rc = cli.main(["check", str(out), "<<a1,a2>> F counter_max"])
    assert rc == cli.EXIT_HOLDS


def test_gen_to_stdout(capsys):
    rc = cli.main(["gen", "counter", "--param", "cap=1", "--param",
                   "steps=1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("agents: a1 a2")


def test_gen_bad_param(capsys):
    assert cli.main(["gen", "counter", "--param", "nope"]) == \
        cli.EXIT_USAGE
    assert cli.main(["gen", "counter", "--param", "bogus=1"]) == \
        cli.EXIT_USAGE


def test_suite_command(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text(
        'generator=counter params cap=1;steps=1 '
        'formula="<<a1,a2>> F counter_max"\n')
    csv_path = tmp_path / "r.csv"
    rc = cli.main(["suite", str(suite), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "holds" in out
    assert csv_path.exists()


def test_suite_with_error_row(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text('generator=bogus formula="<<a>> F p"\n')
    rc = cli.main(["suite", str(suite)])
    assert rc == cli.EXIT_USAGE


def test_suite_with_unknown_key(tmp_path, capsys):
    suite = tmp_path / "suite.txt"
    suite.write_text('generator=counter params cap=1;steps=1 '
                     'formula="<<a1,a2>> F counter_max" engne=explicit\n')
    rc = cli.main(["suite", str(suite)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == cli.EXIT_USAGE
    assert len(lines) == 1
    assert lines[0].endswith(
        "error: unknown suite key 'engne'; known: generator, params, "
        "formula, engine, semantics, repeats (- ms)")


def test_solve_game(tmp_path, capsys):
    game = tmp_path / "game.gm"
    # self-loop with even priority: player 0 wins everywhere
    game.write_text("parity 1;\n0 0 0 1;\n1 1 1 0;\n")
    rc = cli.main(["solve-game", str(game)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "W0: 0 1" in out
    assert "W1:" in out


def test_solve_game_reads_and_ignores_vertex_names(tmp_path, capsys):
    game = tmp_path / "game.gm"
    # the game of test_solve_game_json, every vertex named
    game.write_text('parity 2;\n0 0 0 0,1 "start";\n1 1 1 0,2 "fork";\n'
                    '2 1 0 2 "sink";\n')
    rc = cli.main(["solve-game", str(game), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"W0": [0], "W1": [1, 2]}


def test_solve_game_malformed(tmp_path, capsys):
    game = tmp_path / "game.gm"
    game.write_text("parity 0;\n0 0;\n")
    rc = cli.main(["solve-game", str(game)])
    assert rc == cli.EXIT_USAGE


def test_solve_game_json(tmp_path, capsys):
    game = tmp_path / "game.gm"
    # vertex 1 (player 1, odd priority) can escape to the odd self-loop 2
    game.write_text("parity 2;\n0 0 0 0,1;\n1 1 1 0,2;\n2 1 0 2;\n")
    rc = cli.main(["solve-game", str(game), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"W0": [0], "W1": [1, 2]}


def test_solve_game_bad_successor(tmp_path, capsys):
    game = tmp_path / "game.gm"
    game.write_text('parity 0;\n0 1 0 0,5 "a";\n')
    rc = cli.main(["solve-game", str(game)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert "bad successor 5" in err
    assert "Traceback" not in err


def test_solve_game_rejects_a_repeated_vertex(tmp_path, capsys):
    game = tmp_path / "game.gm"
    # without its second line vertex 0 loses; no line may overwrite another
    game.write_text("parity 1;\n0 1 0 1;\n1 2 1 0;\n0 0 1 0;\n")
    rc = cli.main(["solve-game", str(game)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert "vertex 0 is declared twice" in captured.err


# agent x' is no primed copy of agent x, and no coalition can name it
PRIMED_AGENT_MODEL = """
agents: x x'
atoms: p
states: s0 s1
initial: s0
final: s1
actions x: a b
actions x': a b
label s1: p
trans s0 (a,a) -> s1
trans s0 (a,b) -> s1
trans s0 (b,a) -> s0
trans s0 (b,b) -> s0
trans s1 (a,a) -> s1
trans s1 (a,b) -> s0
trans s1 (b,a) -> s1
trans s1 (b,b) -> s0
"""


@pytest.mark.parametrize("semantics", ["finite", "infinite"])
def test_agent_names_cannot_collide_with_store_blocks(semantics, tmp_path,
                                                      capsys):
    f = tmp_path / "primed.cgs"
    f.write_text(PRIMED_AGENT_MODEL)
    for engine in ("symbolic", "explicit"):
        rc = cli.main(["check", str(f), "<<x>> G F p", "--json",
                       "--semantics", semantics, "--engine", engine])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert rc == cli.EXIT_USAGE
        assert out == ""
        assert err.splitlines() == [
            "error: agent name \"x'\" cannot be written in a formula"]


@pytest.mark.parametrize("agent, atom, name", [
    ("a-b", "p", "agent name 'a-b'"),
    ("F", "p", "agent name 'F'"),
    ("a", "p'", "atom name \"p'\""),
    ("a", "Goal", "atom name 'Goal'"),
    ("a", "true", "atom name 'true'"),
])
def test_names_a_formula_cannot_write_exit_2(agent, atom, name, tmp_path,
                                             capsys):
    f = tmp_path / "named.cgs"
    f.write_text(f"agents: {agent}\natoms: {atom}\nstates: s0\n"
                 f"initial: s0\nfinal: s0\nactions {agent}: go\n"
                 f"label s0: {atom}\ntrans s0 (go) -> s0\n")
    rc = cli.main(["check", str(f), "<<>> F true"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.splitlines() == [
        f"error: {name} cannot be written in a formula"]


SUITE_LINE = ('generator=counter params cap=1;steps=1 '
              'formula="<<a1,a2>> F counter_max"\n')


def _big_counter():
    # 2,116 states: with a two-state DFA, over the explicit product cap
    return bench.build_model("counter", {"cap": "45", "steps": "45"}).to_text()


def _chain_game():
    # vertex i has priority i and moves to i or i+1, and the last loops:
    # Zielonka recurses once per priority, 1,200 deep
    n = 1200
    lines = [f"parity {n - 1};"]
    lines += [f"{i} {i} 0 {i},{i + 1};" for i in range(n - 1)]
    lines.append(f"{n - 1} {n - 1} 0 {n - 1};")
    return "\n".join(lines) + "\n"


# id: (exit code, first words of the one stderr line, files to write, argv,
# an exception that driver.check raises instead of checking); TMP in argv
# stands for the directory the files are written to
CONTRACT = {
    "malformed-model": (
        2, "error: line 2", {"m.cgs": "agents: a\nthis is not CGSL\n"},
        ["check", "TMP/m.cgs", "<<a>> F p"], None),
    "non-utf8-model": (
        2, "error: TMP/m.cgs: not UTF-8 text",
        {"m.cgs": MODEL.encode() + b"label s0: \xff\n"},
        ["check", "TMP/m.cgs", "<<a>> F goal"], None),
    "bad-formula": (
        2, "error: unexpected token", {"m.cgs": MODEL},
        ["check", "TMP/m.cgs", "<<a>> F ("], None),
    "pgsolver-field": (
        2, "error: malformed pgsolver line: '0 x 0 0;'",
        {"g.gm": "parity 0;\n0 x 0 0;\n"}, ["solve-game", "TMP/g.gm"], None),
    "pgsolver-negative-priority": (
        2, "error: vertex 0: priority -1 is negative",
        {"g.gm": "parity 1;\n0 -1 0 1;\n1 0 1 0;\n"},
        ["solve-game", "TMP/g.gm"], None),
    "pgsolver-deep-chain": (
        3, "resource limit: parity game has 1200 distinct priorities",
        {"g.gm": _chain_game}, ["solve-game", "TMP/g.gm"], None),
    "config-line": (
        2, "error: TMP/c.cfg:1: expected key=value",
        {"m.cgs": MODEL, "c.cfg": "not a pair\n"},
        ["check", "TMP/m.cgs", "<<a>> F goal", "--config", "TMP/c.cfg"],
        None),
    "config-key": (
        2, "error: TMP/c.cfg:1: unknown config key 'engin'",
        {"m.cgs": MODEL, "c.cfg": "engin=explicit\n"},
        ["check", "TMP/m.cgs", "<<a>> F goal", "--config", "TMP/c.cfg"],
        None),
    "config-missing": (
        2, "error: [Errno 2]", {"m.cgs": MODEL},
        ["check", "TMP/m.cgs", "<<a>> F goal", "--config", "TMP/c.cfg"],
        None),
    "gen-param-type": (
        2, "error: parameter 'cap' expects an integer, got 'abc'", {},
        ["gen", "counter", "--param", "cap=abc"], None),
    # refused before a row is built; without the row cap neither returns
    "gen-rows-scheduler": (
        2, "error: scheduler model would have 198087192576 rows (cap "
           "20000000); reduce processes", {},
        ["gen", "scheduler", "--param", "processes=12"], None),
    "gen-rows-counter": (
        2, "error: counter model would have 17179869184 rows (cap "
           "20000000); reduce cap, steps or agents", {},
        ["gen", "counter", "--param", "agents=30"], None),
    "suite-repeats": (
        2, "error: 1 of 1 suite rows ended in an error",
        {"s.suite": SUITE_LINE.replace("\n", " repeats=x\n")},
        ["suite", "TMP/s.suite"], None),
    "suite-unbalanced-quote": (
        2, "error: 1 of 1 suite rows ended in an error",
        {"s.suite": 'generator=counter formula="<<a1>> F p\n'},
        ["suite", "TMP/s.suite"], None),
    "suite-row-memory": (
        3, "resource limit: 1 of 1 suite rows hit a resource limit",
        {"s.suite": SUITE_LINE}, ["suite", "TMP/s.suite"], MemoryError()),
    "suite-row-resource": (
        3, "resource limit: 1 of 1 suite rows hit a resource limit",
        {"s.suite": 'generator=counter params cap=45;steps=45 '
                    'formula="<<a1>> F counter_max" engine=explicit\n'},
        ["suite", "TMP/s.suite"], None),
    "suite-missing": (
        2, "error: [Errno 2]", {}, ["suite", "TMP/s.suite"], None),
    "gen-output-dir": (
        2, "error: [Errno 2]", {}, ["gen", "counter", "-o", "/nonexistent/x"],
        None),
    "explicit-product-cap": (
        3, "resource limit: explicit product 2116 x 2 exceeds 4096 states",
        {"m.cgs": _big_counter},
        ["check", "TMP/m.cgs", "<<a1,a2>> F counter_max", "--engine",
         "explicit"], None),
    "memory": (
        3, "resource limit: out of memory", {"m.cgs": MODEL},
        ["check", "TMP/m.cgs", "<<a>> F goal"], MemoryError()),
    "internal": (
        4, "internal error: RuntimeError: broken invariant", {"m.cgs": MODEL},
        ["check", "TMP/m.cgs", "<<a>> F goal"],
        RuntimeError("broken\ninvariant")),
    "internal-value-error": (
        4, "internal error: ValueError: broken invariant", {"m.cgs": MODEL},
        ["check", "TMP/m.cgs", "<<a>> F goal"],
        ValueError("broken invariant")),
    "suite-row-fault": (
        4, "internal error: KeyError: 'k'", {"s.suite": SUITE_LINE},
        ["suite", "TMP/s.suite"], KeyError("k")),
}


@pytest.mark.parametrize("case", list(CONTRACT))
def test_exit_code_contract(case, tmp_path, monkeypatch, capsys):
    code, start, files, argv, error = CONTRACT[case]
    for name, content in files.items():
        if callable(content):
            content = content()
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content)
    if error is not None:
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(driver, "check", failing)
    rc = cli.main([a.replace("TMP", str(tmp_path)) for a in argv])
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(start.replace("TMP", str(tmp_path)))


RABIN_HOA = """HOA: v1
States: 1
Start: 0
AP: 1 "goal"
acc-name: Rabin 1
Acceptance: 2 Fin(0) & Inf(1)
--BODY--
State: 0
[t] 0
--END--
"""


def _fail_translation(*args, **kwargs):
    raise ltlf2dfa.TranslationError("letter {goal} is outside the alphabet")


# a Büchi automaton over an atom that no formula of these tests has
FOREIGN_AP_HOA = """HOA: v1
States: 2
Start: 0
AP: 1 "zzz"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0
[0] 1
[!0] 0
State: 1 {0}
[t] 1
--END--
"""


@pytest.mark.parametrize("case", [
    "every-tool-fails", "fallback-uncovered", "non-parity-hoa",
    "foreign-ap-hoa", "translation-error",
])
def test_translator_errors_are_usage(case, model_file, tmp_path, capsys,
                                     monkeypatch):
    argv = ["check", model_file, "<<a>> F goal", "--semantics", "infinite"]
    if case == "every-tool-fails":
        argv += ["--tool", "false"]
    elif case == "fallback-uncovered":
        argv[2] = "<<a>> F G goal"
    elif case in ("non-parity-hoa", "foreign-ap-hoa"):
        hoa = tmp_path / "tool.hoa"
        hoa.write_text(RABIN_HOA if case == "non-parity-hoa"
                       else FOREIGN_AP_HOA)
        argv += ["--tool", f"cat {hoa}"]
    else:
        monkeypatch.setattr(ltlf2dfa, "translate", _fail_translation)
        argv[4] = "finite"
    # both engines read the same automaton, so both refuse it
    for engine in ("symbolic", "explicit"):
        rc = cli.main(argv + ["--engine", engine])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE, engine
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("engine", ["symbolic", "explicit"])
def test_translator_errors_name_the_formula_as_written(engine, model_file,
                                                       capsys):
    # the outer body reaches the translator as F G __sub1; the error
    # shows the strategic subformula in the fresh atom's place
    rc = cli.main(["check", model_file, "<<a>> F G (<<a>> F goal)",
                   "--semantics", "infinite", "--engine", engine])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "error: no external translator configured and the built-in "
        "fallback does not cover this formula: F G (<<a>> F goal)\n")


# FOREIGN_AP_HOA over the formulas' own atom goal: the Büchi automaton
# of F goal
GOAL_HOA = FOREIGN_AP_HOA.replace('"zzz"', '"goal"')


def test_a_fast_tool_with_an_unusable_automaton_loses(model_file, tmp_path,
                                                       capsys):
    # the Rabin tool prints first but its automaton does not convert, so
    # the slower Büchi tool wins and the check gives a verdict
    (tmp_path / "rabin.hoa").write_text(RABIN_HOA)
    (tmp_path / "good.hoa").write_text(GOAL_HOA)
    slow = f"sleep 0.5; cat {tmp_path / 'good.hoa'}"
    rc = cli.main(["check", model_file, "<<a>> F goal", "--json",
                   "--semantics", "infinite",
                   "--tool", f"cat {tmp_path / 'rabin.hoa'}", "--tool", slow])
    out = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_NOT_HOLDS
    assert out["details"]["translators"] == [slow]


def test_check_validates_the_model_once(model_file, monkeypatch, capsys):
    from atlstar import cgs
    calls = []
    real = cgs.validate

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cgs, "validate", counting)
    assert cli.main(["check", model_file, "<<a,b>> F goal"]) == \
        cli.EXIT_HOLDS
    assert len(calls) == 1


def test_check_reports_a_non_total_model(tmp_path, capsys):
    f = tmp_path / "partial.cgs"
    f.write_text(MODEL.replace("trans s1 (stay,go) -> s1\n", ""))
    assert cli.main(["check", str(f), "<<a,b>> F goal"]) == cli.EXIT_USAGE
    assert ("transition function not total: no row for state s1 and "
            "joint action (stay,go)") in capsys.readouterr().err


# formulas of a given nesting depth, one per kind of nesting
DEEP = {
    "negation": lambda n: "!" * n + "p",
    "parentheses": lambda n: "(" * n + "p" + ")" * n,
    "next": lambda n: "<<a>> " + "X " * (n - 1) + "p",
    "globally": lambda n: "<<a>> " + "G " * (n - 1) + "p",
    "conjunction": lambda n: "<<a>> F (" + " & ".join(["p"] * (n - 1)) + ")",
    "strategic": lambda n: "<<a>> X " * (n // 2) + "X " * (n % 2) + "p",
}


@pytest.mark.parametrize("semantics", ["finite", "infinite"])
@pytest.mark.parametrize("shape", sorted(DEEP))
def test_nesting_bound(shape, semantics, model_file, capsys):
    from atlstar import formula as fm
    text = DEEP[shape](fm.MAX_DEPTH)
    if shape != "parentheses":
        assert fm.depth(fm.parse_formula(text)) == fm.MAX_DEPTH
    rc = cli.main(["check", model_file, text, "--semantics", semantics])
    assert rc in (cli.EXIT_HOLDS, cli.EXIT_NOT_HOLDS)
    capsys.readouterr()

    rc = cli.main(["check", model_file, DEEP[shape](fm.MAX_DEPTH + 1),
                   "--semantics", semantics])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error: formula nested deeper than")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_gen_rejects_unknown_critical_flags(capsys):
    rc = cli.main(["gen", "cyber", "--param", "critical=9",
                   "--param", "heuristic=aggressive"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error: critical flags must be indices 0-5")
    assert "Traceback" not in err

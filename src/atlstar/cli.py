"""Command-line front end.

Exit codes: 0 the property holds (or the command succeeded), 1 it does
not hold, 2 usage or input errors (``errors.InputError``), 3 resource
limits hit (``errors.ResourceError``), 4 any other exception: a fault of
the program.  Every error is reported on one stderr line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings

from . import bench
from . import cgs as cgsmod
from . import driver
from . import infinite_mc
from .errors import InputError, ResourceError

EXIT_HOLDS = 0
EXIT_NOT_HOLDS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


CONFIG_KEYS = ("semantics", "engine", "tools")


def read_text(path):
    """The text of an input file the user named, which must be UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text (byte {e.start}: "
                         f"{e.reason})") from None


def load_config(path):
    """key=value lines with keys from ``CONFIG_KEYS``; blank lines and
    # comments ignored."""
    out = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        k = k.strip()
        if k not in CONFIG_KEYS:
            raise InputError(
                f"{path}:{lineno}: unknown config key {k!r}; "
                f"known: {', '.join(CONFIG_KEYS)}")
        out[k] = v.strip()
    return out


@functools.cache
def build_parser():
    """The argument parser, built once per process.  Parsing changes
    nothing in it: an ``append`` action copies its default list before
    appending, and no command changes an argument's value in place (a
    namespace holds the default list itself when the option is not
    given)."""
    ap = argparse.ArgumentParser(
        prog="atlstar",
        description="Strategic model checking over finite and infinite "
                    "traces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="check a formula against a model")
    c.add_argument("model", help="CGSL model file")
    c.add_argument("formula", help="state formula, e.g. '<<a>> F goal'")
    c.add_argument("--semantics", choices=["finite", "infinite"],
                   default=None)
    c.add_argument("--engine", choices=["symbolic", "explicit"],
                   default=None)
    c.add_argument("--tool", action="append", default=[],
                   help="external DPA translator command template; "
                        "may be repeated")
    c.add_argument("--config", help="key=value defaults file")
    c.add_argument("--json", action="store_true",
                   help="print the full result as JSON")
    c.add_argument("--quiet", action="store_true")

    g = sub.add_parser("gen", help="generate a benchmark model")
    g.add_argument("generator", choices=sorted(bench.GENERATORS))
    g.add_argument("--param", action="append", default=[],
                   metavar="K=V", help="generator parameter; repeatable")
    g.add_argument("-o", "--output", help="write CGSL here (default "
                                          "stdout)")

    s = sub.add_parser("suite", help="run a benchmark suite file")
    s.add_argument("suite", help="suite description file")
    s.add_argument("--csv", help="write results as CSV")
    s.add_argument("--json", help="write results as JSON")

    p = sub.add_parser("solve-game",
                       help="solve a parity game in pgsolver format")
    p.add_argument("game", help="pgsolver-format file")
    p.add_argument("--json", action="store_true",
                   help='print {"W0": [...], "W1": [...]} as JSON')
    return ap


def cmd_check(args):
    # a bad config fails before the model, which may be large, is parsed
    cfg = load_config(args.config) if args.config else {}
    text = read_text(args.model)
    t0 = time.perf_counter()
    g = cgsmod.parse_model(text)
    parse_ms = (time.perf_counter() - t0) * 1000

    semantics = args.semantics or cfg.get("semantics") or \
        ("finite" if g.final else "infinite")
    engine = args.engine or cfg.get("engine", "symbolic")
    tools = list(args.tool)
    if not tools and cfg.get("tools"):
        tools = [t for t in cfg["tools"].split("|") if t]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = driver.check(
            model=g, formula=args.formula, semantics=semantics,
            engine=engine, tools=tuple(tools))
    # the model was parsed here, before the driver's clock started
    result.timings_ms["parse"] += parse_ms
    result.timings_ms["total"] += parse_ms
    if args.json:
        print(result.to_json())
    elif not args.quiet:
        verdict = "holds" if result.holds else "does not hold"
        print(f"{result.formula}: {verdict} at initial state "
              f"{g.states[g.initial]}")
        print("satisfying states: " +
              (" ".join(result.state_names) or "(none)"))
    return EXIT_HOLDS if result.holds else EXIT_NOT_HOLDS


def cmd_gen(args):
    params = {}
    for kv in args.param:
        if "=" not in kv:
            raise InputError(f"--param expects K=V, got {kv!r}")
        k, v = kv.split("=", 1)
        params[k] = v
    g = bench.build_model(args.generator, params)
    text = g.to_text()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_HOLDS


def cmd_suite(args):
    rows = bench.run_suite(read_text(args.suite), csv_path=args.csv,
                           json_path=args.json)
    for row in rows:
        print(f"[{row['row']}] {row['generator']} {row['formula']} "
              f"{row['engine']}: {row['verdict']} "
              f"({row['ms_total'] or '-'} ms)")
    bad = sum(r["verdict"].startswith("error") for r in rows)
    if bad:
        return _fail(EXIT_USAGE, f"error: {bad} of {len(rows)} suite rows "
                                 "ended in an error")
    limited = sum(r["verdict"].startswith("resource limit") for r in rows)
    if limited:
        return _fail(EXIT_RESOURCE, f"resource limit: {limited} of "
                                    f"{len(rows)} suite rows hit a "
                                    "resource limit")
    return EXIT_HOLDS


def cmd_solve_game(args):
    game = infinite_mc.parse_pgsolver(read_text(args.game))
    w0, w1 = infinite_mc.solve_zielonka(game)
    if args.json:
        print(json.dumps({"W0": sorted(w0), "W1": sorted(w1)}))
    else:
        print("W0: " + " ".join(str(v) for v in sorted(w0)))
        print("W1: " + " ".join(str(v) for v in sorted(w1)))
    return EXIT_HOLDS


def _fail(code, message):
    """Report ``message`` on one stderr line; return the exit code."""
    print(" ".join(message.splitlines()), file=sys.stderr)
    return code


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "suite":
            return cmd_suite(args)
        if args.command == "solve-game":
            return cmd_solve_game(args)
        return EXIT_USAGE
    except (InputError, OSError) as e:
        # only the environment raises OSError, for a path or tool the
        # user named
        return _fail(EXIT_USAGE, f"error: {e}")
    except (ResourceError, MemoryError) as e:
        return _fail(EXIT_RESOURCE,
                     f"resource limit: {str(e) or 'out of memory'}")
    except Exception as e:
        # no exit code of a verdict may stand for a fault of the program
        return _fail(EXIT_INTERNAL,
                     f"internal error: {type(e).__name__}: {e}")


if __name__ == "__main__":
    sys.exit(main())

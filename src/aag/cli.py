"""Command-line interface, parsed by one argparse table once per distinct
command line: a process memoizes the parse of the 128 argv tuples it used
last, checks their files again on every call, and never memoizes a usage
error or ``--help``, which print and exit as a fresh parse does.

Exit codes: 0 on success, 1 when an input fails validation or execution
(``error: …`` on stderr), 2 for usage errors (wrong flags, missing files).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import blueprints as bp
from . import compiler, llm
from .errors import AagError, json_input
from .plans import parse_plan, plan_to_dict
from .ring import derive_attributes, load_ring, validate_ring
from .statements import render_table


def _emit(text: str, out: str | None) -> None:
    """Print ``text``, or write it to ``out`` atomically, in UTF-8, with
    mode 0666 less the umask."""
    if not out:
        return print(text)
    path, tmp = Path(out), None
    name = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    try:
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC,
                     0o666)
        tmp = name  # ours from here on: removed unless moved
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
        tmp = None  # moved: nothing is left to remove
    except OSError as e:
        raise AagError(f"cannot write {path}: {e.strerror or e}") from e
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _text(path: str) -> str:
    """The text of the JSON document at ``path``."""
    with json_input(path):
        return Path(path).read_text("utf-8")


def _echo_sql(sql: str, params: list) -> None:
    print(f"{sql}\n-- params: {params}", file=sys.stderr)


# parsed once per distinct ring text; treat the ring as read-only
@functools.lru_cache(maxsize=bp.CACHE_SIZE)
def _load_ring_checked(ring_path: str, text: str):
    ring = load_ring(ring_path, text)
    violations = validate_ring(ring)
    if violations:
        print(*violations, sep="\n", file=sys.stderr)
        raise SystemExit(1)
    return derive_attributes(ring)


# the blueprint and bound facts of the CACHE_SIZE (ring path, ring text,
# request path, request text) keys used last; never results: each report
# runs the facts on the database as it is then
@functools.lru_cache(maxsize=bp.CACHE_SIZE)
def _bound_facts(ring_path: str, ring_text: str, request_path: str,
                 request_text: str):
    request = bp.parse_request(request_text, request_path)
    blueprint = bp.load_blueprint(request.report)
    ring = _load_ring_checked(ring_path, ring_text)
    return blueprint, bp.compile_facts(ring, ring_text, blueprint, request)


# the CACHE_SIZE argv tuples parsed last; main copies each and checks its files
@functools.lru_cache(maxsize=bp.CACHE_SIZE)
def _parsed(argv: tuple[str, ...]) -> argparse.Namespace:
    return _PARSER.parse_args(argv)


def _ring_validate(ns: argparse.Namespace) -> None:
    """Validate a ring document; exit 1 if it has violations."""
    r = _load_ring_checked(ns.ring, _text(ns.ring))
    print(f"ok: ring {r.name!r} is valid")
    if ns.verbose:
        for e in r.entities:
            print(f"  {e.name} ({e.primary_table})")
            for attr in e.attributes:
                kinds = ", ".join(sorted(t.value for t in attr.types))
                mark = " [derived]" if attr.derived else ""
                print(f"    {attr.name}: {kinds}{mark}")


def _plan_run(ns: argparse.Namespace) -> None:
    """Compile a plan to SQL, run it, and print the result table."""
    r = _load_ring_checked(ns.ring, _text(ns.ring))
    compiled = compiler.compile_plan(r, parse_plan(_text(ns.plan), ns.plan))
    with compiler.reader(r.db_path(Path(ns.ring).parent)) as (conn, tables):
        result = compiler.execute(compiled, conn,
                                  _echo_sql if ns.verbose else None, tables)
    _emit(render_table(result), ns.out)


def _report_generate(ns: argparse.Namespace) -> None:
    """Run a report request end to end (or stop at an intermediate stage)."""
    ring_text = _text(ns.ring)
    r = _load_ring_checked(ns.ring, ring_text)
    request_text = _text(ns.request)

    if ns.mode == "plans":
        request = bp.parse_request(request_text, ns.request)
        facts = bp.instantiate(r, bp.load_blueprint(request.report), request)
        doc = {f.id: plan_to_dict(f.plan) for f in facts}
        return _emit(json.dumps(doc, indent=2), ns.out)

    blueprint, facts = _bound_facts(ns.ring, ring_text, ns.request,
                                    request_text)
    # the thread's kept read connection: the report's facts, and the next
    # reports while the database is unchanged, share the TEMP tables on it
    echo = _echo_sql if ns.verbose else None
    results = []
    with compiler.reader(r.db_path(Path(ns.ring).parent)) as (conn, tables):
        for fact in facts:
            if echo:
                print(f"-- {fact.id}", file=sys.stderr)
            results.append(compiler.execute(fact.compiled, conn, echo,
                                            tables))

    if ns.mode == "tables":
        pieces = [render_table(result, title=f.id)
                  for f, result in zip(facts, results)]
        return _emit("\n\n".join(pieces), ns.out)

    texts = bp.render_facts(facts, results)
    statements = "\n".join(texts)
    if ns.mode == "statements":
        return _emit(statements, ns.out)

    prompt = bp.build_prompt(blueprint, texts)
    if ns.mode == "prompt":
        return _emit(prompt, ns.out)

    config = llm.config_for_profile(ns.profile, backend=ns.backend)
    report = llm.generate(prompt, config)
    if not ns.out:
        return print(report)
    # the sidecar carries the exact facts the report was grounded on: it is
    # written first, and removed if the report cannot be written
    _emit(statements, f"{ns.out}.facts")
    try:
        _emit(report, ns.out)
    except AagError:
        os.unlink(f"{ns.out}.facts")
        raise


def _file(path: str, exists: bool = True) -> str:
    """``path`` if it is a readable file (or no file, unless ``exists``)."""
    problem = ("does not exist" if not os.path.exists(path) else
               "is a directory" if os.path.isdir(path) else
               "is not readable" if not os.access(path, os.R_OK) else None)
    if problem and (exists or problem != "does not exist"):
        raise argparse.ArgumentTypeError(f"file {path!r} {problem}")
    return path


_INPUT = dict(type=_file, required=True)
_RING = ("--ring", dict(_INPUT, help="Path to a ring document."))
_OUT = ("--out", dict(type=functools.partial(_file, exists=False),
                      help="Write output here (atomically) instead of "
                           "stdout."))
_VERBOSE = ("--verbose", dict(action="store_true",
                              help="Also print each SQL statement it "
                                   "runs."))

# group -> (help, {command: (handler, options)})
_COMMANDS = {
    "ring": ("Ring (semantic layer) commands.", {"validate": (_ring_validate, [
        _RING, ("--verbose", dict(action="store_true",
                                  help="List entities and attributes."))])}),
    "plan": ("Plan commands.", {"run": (_plan_run, [
        _RING, ("--plan", dict(_INPUT, help="Path to a plan document.")),
        _OUT, _VERBOSE])}),
    "report": ("Report generation commands.", {
        "generate": (_report_generate, [
            _RING,
            ("--request", dict(_INPUT,
                               help="Path to a report request document.")),
            ("--mode", dict(
                choices=["plans", "statements", "tables", "prompt", "report"],
                default="report",
                help="How far to take the pipeline. (default: %(default)s)")),
            ("--backend", dict(choices=["echo", "remote"], default="echo",
                               help="(default: %(default)s)")),
            ("--profile", dict(
                choices=sorted(llm.PROFILES), default="remote",
                help="Sampling profile for generation. "
                     "(default: %(default)s)")),
            _OUT, _VERBOSE])}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aag", description=(
        "Analytics-augmented report generation over relational data."))
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (about, commands) in _COMMANDS.items():
        sub = groups.add_parser(group, help=about, description=about)
        names = sub.add_subparsers(dest="command", required=True)
        for name, (handler, options) in commands.items():
            cmd = names.add_parser(name, help=handler.__doc__,
                                   description=handler.__doc__,
                                   allow_abbrev=False)
            for flag, spec in options:
                cmd.add_argument(flag, **spec)
            cmd.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(args: list[str] | None = None, standalone_mode: bool = True) -> None:
    """Run one command; exit 1 on an ``AagError``, 2 on a usage error."""
    del standalone_mode  # still passed by bench/; it changes nothing
    argv = tuple(sys.argv[1:] if args is None else args)
    ns = argparse.Namespace(**vars(_parsed(argv)))  # the caller's own copy
    try:  # every option with a type is a file: check it as a parse would
        for flag, spec in _COMMANDS[ns.group][1][ns.command][1]:
            if "type" in spec and getattr(ns, flag[2:]) is not None:
                spec["type"](getattr(ns, flag[2:]))
    except argparse.ArgumentTypeError:
        ns = _PARSER.parse_args(argv)  # prints the usage error, exits 2
    try:
        ns.handler(ns)
    except AagError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()

"""Command-line interface.

Exit codes: 0 on success, 1 when an input fails validation or execution,
2 for usage errors (wrong flags, missing files).
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from contextlib import closing
from pathlib import Path

import click

from . import blueprints as bp
from . import compiler, llm
from .errors import AagError
from .plans import load_plan, plan_to_dict
from .ring import derive_attributes, load_ring, validate_ring
from .statements import render_table


def _atomic_write(path: Path, text: str) -> None:
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=f".{path.name}.")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise AagError(f"cannot write {path}: {e.strerror or e}") from e
    finally:
        if tmp and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(Path(out), text)
    else:
        click.echo(text)


# parsed once per distinct ring text; treat the ring as read-only
@functools.lru_cache(maxsize=bp.CACHE_SIZE)
def _load_ring_checked(ring_path: str, text: str):
    ring = load_ring(ring_path, text)
    violations = validate_ring(ring)
    if violations:
        for v in violations:
            click.echo(str(v), err=True)
        raise SystemExit(1)
    return derive_attributes(ring)


@click.group()
def main():
    """Analytics-augmented report generation over relational data."""


@main.group()
def ring():
    """Ring (semantic layer) commands."""


@ring.command("validate")
@click.option("--ring", "ring_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Path to a ring document.")
@click.option("--verbose", is_flag=True, help="List entities and attributes.")
def ring_validate(ring_path: str, verbose: bool):
    """Validate a ring document; exit 1 if it has violations."""
    try:
        r = _load_ring_checked(ring_path, Path(ring_path).read_text())
    except AagError as e:
        click.echo(f"error: {e}", err=True)
        raise SystemExit(1)
    click.echo(f"ok: ring {r.name!r} is valid")
    if verbose:
        for e in r.entities:
            click.echo(f"  {e.name} ({e.primary_table})")
            for a in e.attributes:
                kinds = ", ".join(sorted(t.value for t in a.types))
                mark = " [derived]" if a.derived else ""
                click.echo(f"    {a.name}: {kinds}{mark}")


@main.group()
def plan():
    """Plan commands."""


@plan.command("run")
@click.option("--ring", "ring_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--plan", "plan_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Path to a plan document.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--verbose", is_flag=True, help="Also print the generated SQL.")
def plan_run(ring_path: str, plan_path: str, out: str | None, verbose: bool):
    """Compile a plan to SQL, run it, and print the result table."""
    try:
        r = _load_ring_checked(ring_path, Path(ring_path).read_text())
        p = load_plan(plan_path)
        compiled = compiler.compile_plan(r, p)
        if verbose:
            for sql, params in compiled.statements():
                click.echo(f"{sql}\n-- params: {params}", err=True)
        db = r.db_path(Path(ring_path).parent)
        with closing(compiler.connect(db)) as conn:
            result = compiler.execute(compiled, conn)
        _emit(render_table(result), out)
    except AagError as e:
        click.echo(f"error: {e}", err=True)
        raise SystemExit(1)


@main.group()
def report():
    """Report generation commands."""


@report.command("generate")
@click.option("--ring", "ring_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--request", "request_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Path to a report request document.")
@click.option("--mode", type=click.Choice(
    ["plans", "statements", "tables", "prompt", "report"]),
    default="report", show_default=True,
    help="How far to take the pipeline.")
@click.option("--backend", type=click.Choice(["echo", "remote"]),
              default="echo", show_default=True)
@click.option("--profile", type=click.Choice(sorted(llm.PROFILES)),
              default="remote", show_default=True,
              help="Sampling profile for generation.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write output here (atomically) instead of stdout.")
@click.option("--verbose", is_flag=True)
def report_generate(ring_path: str, request_path: str, mode: str,
                    backend: str, profile: str, out: str | None,
                    verbose: bool):
    """Run a report request end to end (or stop at an intermediate stage)."""
    try:
        ring_text = Path(ring_path).read_text()
        r = _load_ring_checked(ring_path, ring_text)
        request = bp.parse_request(Path(request_path).read_text())
        blueprint = bp.load_blueprint(request.report)

        if mode == "plans":
            facts = bp.instantiate(r, blueprint, request)
            doc = {f.id: plan_to_dict(f.plan) for f in facts}
            _emit(json.dumps(doc, indent=2), out)
            return

        facts = bp.compile_facts(r, ring_text, blueprint, request)
        db = r.db_path(Path(ring_path).parent)
        # one connection per report: its facts share the TEMP tables on it
        with closing(compiler.connect(db)) as conn:
            for fact in facts:
                if verbose:
                    click.echo(f"-- {fact.id}", err=True)
                    for sql, params in fact.compiled.statements():
                        click.echo(f"{sql}\n-- params: {params}", err=True)
                fact.result = compiler.execute(fact.compiled, conn)

        if mode == "tables":
            pieces = [render_table(f.result, title=f.id) for f in facts]
            _emit("\n\n".join(pieces), out)
            return

        bp.render_facts(facts)
        if mode == "statements":
            _emit("\n".join(f.text for f in facts), out)
            return

        prompt = bp.build_prompt(blueprint, facts)
        if mode == "prompt":
            _emit(prompt, out)
            return

        config = llm.config_for_profile(profile, backend=backend)
        text = llm.generate(prompt, config)
        _emit(text, out)
        if out:
            # the sidecar carries the exact facts the report was grounded on,
            # byte-identical to what `--mode statements` would have written
            sidecar = "\n".join(f.text for f in facts)
            _atomic_write(Path(f"{out}.facts"), sidecar)
    except AagError as e:
        click.echo(f"error: {e}", err=True)
        raise SystemExit(1)


if __name__ == "__main__":
    main()

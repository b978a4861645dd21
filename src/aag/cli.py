"""Command-line interface.

Exit codes: 0 on success, 1 when an input fails validation or execution,
2 for usage errors (wrong flags, missing files).
"""

from __future__ import annotations

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
    fd, tmp = tempfile.mkstemp(dir=str(path.parent or Path(".")),
                               prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(Path(out), text)
    else:
        click.echo(text)


def _load_ring_checked(ring_path: str):
    ring = load_ring(ring_path)
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
        r = load_ring(ring_path)
        violations = validate_ring(r)
    except AagError as e:
        click.echo(f"error: {e}", err=True)
        raise SystemExit(1)
    if violations:
        for v in violations:
            click.echo(str(v), err=True)
        raise SystemExit(1)
    click.echo(f"ok: ring {r.name!r} is valid")
    if verbose:
        for e in derive_attributes(r).entities:
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
        r = _load_ring_checked(ring_path)
        p = load_plan(plan_path)
        compiled = compiler.compile_plan(r, p)
        if verbose:
            for sql, params in compiled.statements():
                click.echo(f"{sql}\n-- params: {params}", err=True)
        db = r.db_path(Path(ring_path).parent)
        with closing(compiler.connect(db)) as conn:
            result = compiler.execute(compiled, conn)
    except AagError as e:
        click.echo(f"error: {e}", err=True)
        raise SystemExit(1)
    _emit(render_table(result), out)


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
        r = _load_ring_checked(ring_path)
        request = bp.parse_request(Path(request_path).read_text())
        blueprint = bp.load_blueprint(request.report)
        facts = bp.instantiate(r, blueprint, request)

        if mode == "plans":
            doc = {f.id: plan_to_dict(f.plan) for f in facts}
            _emit(json.dumps(doc, indent=2), out)
            return

        db = r.db_path(Path(ring_path).parent)
        # one connection per report: its facts share the TEMP tables on it
        with closing(compiler.connect(db)) as conn:
            for fact in facts:
                compiled = compiler.compile_plan(r, fact.plan, fact.info)
                if verbose:
                    click.echo(f"-- {fact.id}", err=True)
                    for sql, params in compiled.statements():
                        click.echo(f"{sql}\n-- params: {params}", err=True)
                fact.result = compiler.execute(compiled, conn)

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

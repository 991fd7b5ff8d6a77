"""Command-line front end.

Every command prints one JSON document (sorted keys, so byte-identical
across runs — wall-clock goes under the single key "timing_seconds", which
consumers strip before comparing).  Exit codes: 0 success, 1 input or usage
error, 2 for results that computed but carry an uncertainty flag (undecided
membership, ambiguous section or one with undecided boxes; for ``betti`` and
``verify`` alike, a failed row of ``verify_report`` that is not
informational).  Errors always come back as {"error": "..."} on stdout,
never as a traceback.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import click

from orbit_betti.compositions import (
    Composition,
    chain_report,
    chains,
    comp_kd,
    comp_max,
)
from orbit_betti.fibres import UNDECIDED, arnold_section, image_membership
from orbit_betti.pipeline import (
    PipelineError,
    ProblemSpec,
    _unsettled,
    bounds_report,
    direct_quotient_betti,
    orbit_count_finite,
    quotient_betti,
    verify_report,
)
from orbit_betti.polys import BlockSpec, as_rational, parse_formula
from orbit_betti.powersums import rewrite_formula

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTAIN = 2


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n")
    else:
        click.echo(text)


def _rational_list(text: str) -> list[Fraction]:
    try:
        return [as_rational(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad rational list {text!r}: {exc}")


def _parse_box(text: str) -> list[tuple[Fraction, Fraction]]:
    """Boxes come as lo1:hi1,lo2:hi2,… with exact rational endpoints."""
    box = []
    for edge in text.split(","):
        parts = edge.split(":")
        if len(parts) != 2:
            raise click.UsageError(f"box edge {edge!r} is not lo:hi")
        box.append((as_rational(parts[0].strip()), as_rational(parts[1].strip())))
    return box


def _blocks_from(k: int | None, d: int | None, blocks: str | None, degrees: str | None) -> BlockSpec:
    if blocks or degrees:
        if not (blocks and degrees):
            raise click.UsageError("--blocks and --degrees go together")
        sizes = [int(v) for v in blocks.split(",") if v.strip()]
        caps = [int(v) for v in degrees.split(",") if v.strip()]
        return BlockSpec(tuple(sizes), tuple(caps))
    if k is None or d is None:
        raise click.UsageError("give either --k and --d, or --blocks and --degrees")
    return BlockSpec.single(k, d)


def _composition_doc(c: Composition) -> list[int]:
    return list(c.parts)


@click.group()
def cli() -> None:
    """Equivariant Betti numbers of symmetric semi-algebraic sets."""


@cli.command()
@click.option("--k", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--blocks", type=str, default=None)
@click.option("--degrees", type=str, default=None)
@click.option("--formula", "formula_text", type=str, required=True)
@click.option("--json", "output", type=str, default=None)
def rewrite(k, d, blocks, degrees, formula_text, output) -> int:
    """Rewrite a symmetric formula into power-sum coordinates."""
    spec = _blocks_from(k, d, blocks, degrees)
    formula = parse_formula(formula_text, spec.total_vars)
    rewritten = rewrite_formula(formula, spec)
    _emit(
        {
            "formula": formula.to_text(),
            "rewritten": rewritten.to_text(var_prefix="y"),
            "image_dim": rewritten.k,
            "blocks": list(spec.block_sizes),
            "degrees": list(spec.degree_caps),
        },
        output,
    )
    return EXIT_OK


@cli.command()
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--chains", "list_chains", is_flag=True, default=False)
@click.option("--json", "output", type=str, default=None)
def compositions(k, d, list_chains, output) -> int:
    """Composition poset of the face lattice: elements, maxima, chain data."""
    elements = comp_kd(k, min(k, d))
    report = chain_report(k, d)
    doc: dict = {
        "k": k,
        "d": d,
        "compositions": sorted(_composition_doc(c) for c in elements),
        "count": len(elements),
        "maximal": sorted(_composition_doc(c) for c in comp_max(k, min(k, d))),
        "chain_count": report["chain_count"],
        "paper_chain_bound": report["paper_chain_bound"],
    }
    doc["flags"] = {
        "bound_exceeded": report["bound_exceeded"],
        "maximal_formula_mismatch": report["maximal_formula_mismatch"],
    }
    if list_chains:
        chain_list, _ = chains(k, d)
        doc["chains"] = sorted(
            [_composition_doc(c) for c in chain.elements] for chain in chain_list
        )
    _emit(doc, output)
    return EXIT_OK


@cli.command()
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--point", type=str, required=True)
@click.option("--tol", type=float, default=1e-9)
@click.option("--json", "output", type=str, default=None)
def membership(k, d, point, tol, output) -> int:
    """Test whether a power-sum vector lies in the chamber image."""
    y = _rational_list(point)
    verdict = image_membership(k, d, y, tol=tol)
    _emit({"k": k, "d": d, "point": [str(v) for v in y], "verdict": verdict}, output)
    return EXIT_UNCERTAIN if verdict == UNDECIDED else EXIT_OK


@cli.command()
@click.option("--k", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--point", type=str, required=True)
@click.option("--tol", type=float, default=1e-9)
@click.option("--json", "output", type=str, default=None)
def section(k, d, point, tol, output) -> int:
    """The distinguished fibre point maximizing the next power sum."""
    y = _rational_list(point)
    result = arnold_section(k, d, y, tol=tol)
    _emit(
        {
            "k": k,
            "d": d,
            "point": [str(v) for v in y],
            "face": list(result.solution.face.lam.parts),
            "x": list(result.x),
            "value": result.value,
            "ambiguous": result.ambiguous,
            "candidates": result.candidates,
            "undecided_boxes": result.undecided_boxes,
        },
        output,
    )
    return EXIT_UNCERTAIN if result.ambiguous or result.undecided_boxes else EXIT_OK


# The exact types a job's scalar keys may have: int(), float() and the
# parser raise TypeError, not ValueError, on any other, and a bool, an int
# subclass, would pass as 0 or 1.
_JOB_TYPES = {"k": (int, str), "d": (int, str), "formula": (str,), "resolution": (int, float, str),
              "constant_c": (int, float, str)}


def _spec_from_job(doc: dict) -> tuple[ProblemSpec, float]:
    if not isinstance(doc, dict):
        raise PipelineError("a job must be a JSON object")
    required = ["formula", "box", "resolution"] + (["degrees"] if "blocks" in doc else ["k", "d"])
    for key in required:
        if key not in doc:
            raise PipelineError(f"a job needs {key!r}")
    edges = doc["box"]
    if not isinstance(edges, list) or not all(
        isinstance(edge, list) and len(edge) == 2 and all(type(v) in (int, float, str) for v in edge)
        for edge in edges
    ):
        raise PipelineError("a job's box must be a list of [lo, hi] pairs")
    for key, kinds in _JOB_TYPES.items():
        if key in doc and type(doc[key]) not in kinds:
            raise PipelineError(f"a job's {key} must not be a {type(doc[key]).__name__}")
    for key in ("blocks", "degrees"):
        if key in doc and not (
            isinstance(doc[key], list) and all(type(v) in (int, str) for v in doc[key])
        ):
            raise PipelineError(f"a job's {key} must be a list of integers")
    if doc.get("field", "Q") != "Q":
        raise PipelineError(f"unknown field {doc['field']!r}: Betti numbers are over Q only")
    if "blocks" in doc:
        blocks = BlockSpec(tuple(doc["blocks"]), tuple(doc["degrees"]))
    else:
        blocks = BlockSpec.single(int(doc["k"]), int(doc["d"]))
    formula = parse_formula(doc["formula"], blocks.total_vars)
    box = tuple((as_rational(lo), as_rational(hi)) for lo, hi in edges)
    spec = ProblemSpec(
        blocks=blocks,
        formula=formula,
        clip_box=box,
        resolution=as_rational(doc["resolution"]),
    )
    return spec, float(doc.get("constant_c", 1.0))


def _job_options_to_doc(k, d, blocks, degrees, formula_text, box, resolution, constant_c) -> dict:
    doc: dict = {"formula": formula_text, "box": [[str(lo), str(hi)] for lo, hi in _parse_box(box)],
                 "resolution": resolution}
    if constant_c is not None:
        doc["constant_c"] = constant_c
    spec = _blocks_from(k, d, blocks, degrees)
    if blocks:
        doc["blocks"], doc["degrees"] = list(spec.block_sizes), list(spec.degree_caps)
    else:
        doc["k"], doc["d"] = k, d
    return doc


def _run_betti_job(doc: dict) -> tuple[dict, int]:
    spec, constant_c = _spec_from_job(doc)
    start = time.perf_counter()
    report = quotient_betti(spec, constant_c=constant_c)
    out = report.to_json()
    out["timing_seconds"] = time.perf_counter() - start
    out["unsettled"] = _unsettled(verify_report(report))
    return out, EXIT_UNCERTAIN if out["unsettled"] else EXIT_OK


def _load_job(path: Path | str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise PipelineError(f"malformed job JSON in {path}: {exc}")


def _run_betti_file(path: Path) -> tuple[dict, int]:
    """One job of a directory: a failure, unparsable JSON included, becomes
    that job's error envelope."""
    try:
        return _run_betti_job(_load_job(path))
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        return {"error": str(exc)}, EXIT_ERROR


@cli.command()
@click.option("--job", type=str, default=None, help="job JSON file, or a directory of them")
@click.option("--k", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--blocks", type=str, default=None)
@click.option("--degrees", type=str, default=None)
@click.option("--formula", "formula_text", type=str, default=None)
@click.option("--box", type=str, default=None, help="lo:hi,lo:hi,… in image space")
@click.option("--resolution", type=str, default=None)
@click.option("--constant-c", type=float, default=None, help="default 1.0")
@click.option("--jobs", type=int, default=1,
              help="accepted for compatibility: the jobs of a directory run one after another")
@click.option("--json", "output", type=str, default=None)
def betti(job, k, d, blocks, degrees, formula_text, box, resolution, constant_c, jobs, output) -> int:
    """Quotient Betti numbers b^0..b^{t−1} from a job file or inline flags."""
    inline = {"--k": k, "--d": d, "--blocks": blocks, "--degrees": degrees,
              "--formula": formula_text, "--box": box, "--resolution": resolution,
              "--constant-c": constant_c}
    if job and (given := ", ".join(flag for flag, v in inline.items() if v is not None)):
        raise click.UsageError(f"{given} cannot be given with --job, which holds the whole problem")
    if job and Path(job).is_dir():
        paths = sorted(Path(job).glob("*.json"))
        if not paths:
            raise click.UsageError(f"no *.json jobs under {job}")
        results = [_run_betti_file(p) for p in paths]
        out = {"jobs": {p.stem: r for p, (r, _) in zip(paths, results)}}
        _emit(out, output)
        codes = [code for _, code in results]
        return EXIT_ERROR if EXIT_ERROR in codes else max(codes)
    if job:
        doc = _load_job(job)
    else:
        if not formula_text or not box or not resolution:
            raise click.UsageError("--formula, --box and --resolution are required without --job")
        doc = _job_options_to_doc(k, d, blocks, degrees, formula_text, box, resolution, constant_c)
    result, code = _run_betti_job(doc)
    _emit(result, output)
    return code


@cli.command()
@click.option("--roots", type=str, required=True, help="comma-separated distinct rationals")
@click.option("--k", type=int, required=True)
@click.option("--json", "output", type=str, default=None)
def orbits(roots, k, output) -> int:
    """Orbit count of k-tuples over fixed roots: formula and enumeration."""
    count = orbit_count_finite(_rational_list(roots), k)
    _emit(
        {
            "k": k,
            "roots": [str(v) for v in _rational_list(roots)],
            "formula": count.formula_value,
            "enumeration": count.enumeration_value,
        },
        output,
    )
    return EXIT_OK


@cli.command()
@click.option("--k", type=int, default=None)
@click.option("--d", type=int, default=None)
@click.option("--blocks", type=str, default=None)
@click.option("--degrees", type=str, default=None)
@click.option("--s", type=int, required=True, help="number of distinct polynomials")
@click.option("--constant-c", type=float, default=1.0)
@click.option("--json", "output", type=str, default=None)
def bounds(k, d, blocks, degrees, s, constant_c, output) -> int:
    """Published bound formulas evaluated at these parameters."""
    spec = _blocks_from(k, d, blocks, degrees)
    _emit(bounds_report(spec, s=s, constant_c=constant_c).to_json(), output)
    return EXIT_OK


@cli.command()
@click.option("--job", type=str, required=True)
@click.option("--direct-resolution", type=str, default=None)
@click.option("--json", "output", type=str, default=None)
def verify(job, direct_resolution, output) -> int:
    """Run a job and audit it: every row of the check table, x-space ones included."""
    doc = _load_job(job)
    spec, constant_c = _spec_from_job(doc)
    start = time.perf_counter()
    report = quotient_betti(spec, constant_c=constant_c)
    direct = None
    if spec.blocks.omega == 1 and spec.blocks.total_vars <= 4 and spec.blocks.d_primes[0] >= 2:
        fine = as_rational(direct_resolution) if direct_resolution else None
        direct = direct_quotient_betti(spec, x_resolution=fine)
    checks = verify_report(report, direct)
    out = {
        "report": report.to_json(),
        "checks": [dataclasses.asdict(c) for c in checks],
        "timing_seconds": time.perf_counter() - start,
    }
    _emit(out, output)
    return EXIT_UNCERTAIN if _unsettled(checks) else EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: maps every failure to an {"error": …} document."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return int(result) if isinstance(result, int) else EXIT_OK
    except click.ClickException as exc:
        click.echo(json.dumps({"error": exc.format_message()}, sort_keys=True))
        return EXIT_ERROR
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        click.echo(json.dumps({"error": str(exc)}, sort_keys=True))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

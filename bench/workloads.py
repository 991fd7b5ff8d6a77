"""The benchmark workloads: seeded inputs, one pass, golden checks.

A workload is prepared once from its seed (the set-up the benchmark times),
then run as passes.  Every pass makes the same calls into the package's
public API and returns the raw answers with the time of each call; the
answers are checked after the pass, outside its timing.

The seed varies what the program receives without changing the question:
variable order and term order in every formula, the order of section
queries, and for the image-space grids a shift of the clip box by whole
coarse cells along axes whose thickening does not depend on the box.  The
work of a pass is thus the same for every seed, and what spread remains
between runs is the machine's.  Jobs and problems keep one order, because
the peak memory of a pass depends on which problem runs after which.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass
class Outcome:
    """The check of one answer."""

    ok: bool
    undecided_cells: int = 0
    unstable: bool = False
    detail: str = ""


@dataclass
class PassResult:
    call_seconds: list[float]
    answers: list = field(default_factory=list)


@dataclass
class Prepared:
    """Generated inputs, in the form the program receives them."""

    canonical: dict
    payload: object

    def digest(self) -> str:
        text = json.dumps(self.canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


# -- seeded formula text ----------------------------------------------------------


def _power_sum(rng: random.Random, k: int, m: int) -> str:
    order = list(range(1, k + 1))
    rng.shuffle(order)
    return " + ".join(f"x{i}^{m}" if m > 1 else f"x{i}" for i in order)


def _joined(rng: random.Random, parts: list[str], op: str) -> str:
    parts = list(parts)
    rng.shuffle(parts)
    return f" {op} ".join(parts)


def _atom(rng: random.Random, k: int, m: int, relation: str, rhs: str) -> str:
    return f"{_power_sum(rng, k, m)} {relation} {rhs}"


def _timed(call):
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:  # a raising call is a failed answer, never an abort
        result = exc
    return perf_counter() - start, result


# -- quotient-d2: four k=3, d=2 jobs through the CLI ------------------------------


D2_GOLDEN = {"sphere": (1, 0), "ball": (1, 0), "shell": (1, 0), "four-lines": (1, 1)}


def _d2_formulas(rng: random.Random) -> dict[str, str]:
    s2 = lambda rel, rhs: _atom(rng, 3, 2, rel, rhs)  # noqa: E731
    return {
        "sphere": s2("=", "1"),
        "ball": s2("<=", "1"),
        "shell": _joined(rng, [s2(">=", "1"), s2("<=", "2")], "and"),
        "four-lines": _joined(
            rng,
            [_atom(rng, 3, 1, "=", "-1/2"), _atom(rng, 3, 1, "=", "1/2"),
             s2("=", "1/2"), s2("=", "3/2")],
            "or",
        ),
    }


def prepare_quotient_d2(seed: int, workdir: Path) -> Prepared:
    import orbit_betti.cli  # noqa: F401  (the pass calls it)

    rng = random.Random(f"quotient-d2:{seed}")
    formulas = _d2_formulas(rng)
    grids = {
        "sphere": ((-2, 2), (0, 2), Fraction(1, 64)),
        "ball": ((-2, 2), (0, 2), Fraction(1, 64)),
        "shell": ((-2, 2), (0, 2), Fraction(1, 64)),
        "four-lines": ((-3, 3), (-1, 3), Fraction(1, 32)),
    }
    jobs_dir = workdir / "jobs"
    if jobs_dir.exists():
        shutil.rmtree(jobs_dir)
    jobs_dir.mkdir(parents=True)
    docs = {}
    for position, name in enumerate(formulas):
        (lo1, hi1), (lo2, hi2), h = grids[name]
        # p1 shift by whole coarse cells: same lattice, the equalities'
        # thickening is constant in image space
        shift = h * rng.randint(-4, 4)
        doc = {
            "k": 3,
            "d": 2,
            "formula": formulas[name],
            "box": [[str(lo1 + shift), str(hi1 + shift)], [str(lo2), str(hi2)]],
            "resolution": str(h),
            "field": "Q",
        }
        stem = f"{position:02d}-{name}"
        (jobs_dir / f"{stem}.json").write_text(json.dumps(doc, sort_keys=True))
        docs[stem] = doc
    argv = ["betti", "--job", str(jobs_dir), "--jobs", "1", "--json", str(workdir / "out.json")]
    return Prepared(canonical={"jobs": docs}, payload={"argv": argv, "out": workdir / "out.json"})


def run_quotient_d2(prepared: Prepared) -> PassResult:
    from orbit_betti import cli

    out: Path = prepared.payload["out"]
    out.unlink(missing_ok=True)
    seconds, code = _timed(lambda: cli.main(prepared.payload["argv"]))
    return PassResult([seconds], [code])


def check_quotient_d2(prepared: Prepared, answers: list) -> list[Outcome]:
    code = answers[0]
    try:
        jobs = json.loads(prepared.payload["out"].read_text())["jobs"]
    except (OSError, ValueError, KeyError) as exc:
        return [Outcome(False, detail=f"no CLI output (exit {code!r}): {exc}")] * len(D2_GOLDEN)
    outcomes = []
    for stem in prepared.canonical["jobs"]:
        name = stem.split("-", 1)[1]
        report = jobs.get(stem)
        if report is None:
            outcomes.append(Outcome(False, detail=f"{stem}: missing from output"))
            continue
        betti = tuple(report["betti"])
        outcomes.append(Outcome(
            ok=betti == D2_GOLDEN[name] and report["stable"],
            undecided_cells=report["undecided_cells"],
            unstable=not report["stable"],
            detail=f"{stem}: betti {betti} stable {report['stable']}",
        ))
    return outcomes


# -- the k=4, d=3 quotient problem ---------------------------------------------------


D3_GOLDEN = (1, 0, 0)


def _quotient_d3(seed: int) -> tuple[dict, object]:
    """The canonical form and the ProblemSpec of the d=3 quotient problem."""
    from orbit_betti.pipeline import ProblemSpec
    from orbit_betti.polys import BlockSpec, parse_formula

    rng = random.Random(f"quotient-d3:{seed}")
    text = _joined(rng, [_atom(rng, 4, 1, "=", "0"), _atom(rng, 4, 2, "=", "1")], "and")
    h = Fraction(1, 4)
    # the tube around p1 = 0, p2 = 1 is two coarse cells wide on either axis,
    # so a shift by one coarse cell keeps it inside the box
    s1, s2 = h * rng.randint(-1, 1), h * rng.randint(-1, 1)
    box = (
        (Fraction(-1, 2) + s1, Fraction(1, 2) + s1),
        (Fraction(1, 2) + s2, Fraction(3, 2) + s2),
        (Fraction(0), Fraction(3, 4)),
    )
    spec = ProblemSpec(
        blocks=BlockSpec.single(4, 3),
        formula=parse_formula(text, 4),
        clip_box=box,
        resolution=h,
    )
    canonical = {"k": 4, "d": 3, "formula": text,
                 "box": [[str(lo), str(hi)] for lo, hi in box], "resolution": str(h)}
    return canonical, spec


def _check_quotient_d3(report) -> Outcome:
    if isinstance(report, Exception):
        return Outcome(False, detail=f"raised {report!r}")
    return Outcome(
        ok=report.betti == D3_GOLDEN and report.stable,
        undecided_cells=report.undecided_cells,
        unstable=not report.stable,
        detail=f"betti {report.betti} stable {report.stable}",
    )


# -- the section on chamber points from a fixed pool ------------------------------


SECTION_POINTS = 48
SECTION_KS = (4, 5, 6)


def _section_queries(seed: int) -> list:
    # Query cost is heavy-tailed (0.15 s to 3 s) and no feature of the point
    # predicts it, so freshly drawn points would move the pass time by about
    # 15% from seed to seed.  The points therefore come from a pool fixed by
    # seed // 1000 and the seed orders them: seeds in one block measure the
    # same queries, a seed from another block is held out.
    pool = random.Random(f"section-d3:pool{seed // 1000}")
    queries = []
    for i in range(SECTION_POINTS):
        k = SECTION_KS[i % len(SECTION_KS)]
        x = sorted(Fraction(pool.randint(-80, 80), 64) for _ in range(k))
        y = [sum(v**m for v in x) for m in range(1, 4)]
        queries.append((k, x, y))
    random.Random(f"section-d3:{seed}").shuffle(queries)
    return queries


def _check_sections(queries: list, answers: list) -> list[Outcome]:
    from orbit_betti.fibres import is_below_some_maximal

    outcomes = []
    for (k, x, _y), section in zip(queries, answers):
        if isinstance(section, Exception):
            outcomes.append(Outcome(False, detail=f"k={k} x={x}: raised {section!r}"))
            continue
        # x lies in its own fibre, so the maximum of p4 over the fibre is at least p4(x)
        p4 = float(sum(v**4 for v in x))
        ok = section.value >= p4 - 1e-6 and is_below_some_maximal(section.solution.face.lam, k, 3)
        outcomes.append(Outcome(ok, detail=f"k={k}: value {section.value} vs p4(x) {p4}"))
    return outcomes


# -- fibre-d3: the d'=3 quotient, then the section ----------------------------------


def prepare_fibre_d3(seed: int, workdir: Path) -> Prepared:
    quotient, spec = _quotient_d3(seed)
    queries = _section_queries(seed)
    canonical = {
        "quotient": quotient,
        "section": {"d": 3, "points": [[k, [str(v) for v in x]] for k, x, _y in queries]},
    }
    return Prepared(canonical=canonical, payload={"spec": spec, "queries": queries})


def run_fibre_d3(prepared: Prepared) -> PassResult:
    from orbit_betti import fibres, pipeline

    seconds, report = _timed(lambda: pipeline.quotient_betti(prepared.payload["spec"]))
    result = PassResult([seconds], [report])
    for k, _x, y in prepared.payload["queries"]:
        seconds, section = _timed(lambda: fibres.arnold_section(k, 3, y))
        result.call_seconds.append(seconds)
        result.answers.append(section)
    return result


def check_fibre_d3(prepared: Prepared, answers: list) -> list[Outcome]:
    return [_check_quotient_d3(answers[0])] + _check_sections(
        prepared.payload["queries"], answers[1:])


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Prepared]
    run: Callable[[Prepared], PassResult]
    check: Callable[[Prepared, list], list[Outcome]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quotient-d2", prepare_quotient_d2, run_quotient_d2, check_quotient_d2),
        Workload("fibre-d3", prepare_fibre_d3, run_fibre_d3, check_fibre_d3),
    )
}

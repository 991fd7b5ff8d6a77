"""CLI surface: exit codes, JSON shapes, determinism, error envelopes."""

import dataclasses
import json
import time
import tracemalloc

import pytest

from orbit_betti import fibres, pipeline
from orbit_betti.cli import EXIT_ERROR, EXIT_OK, EXIT_UNCERTAIN, main
from orbit_betti.compositions import Composition
from orbit_betti.fibres import Face, FibreSearch, FibreSolution

from helpers import power_sum_vector

SPHERE_JOB = {
    "k": 3,
    "d": 2,
    "formula": "x1^2 + x2^2 + x3^2 = 1",
    "box": [["-2", "2"], ["0", "2"]],
    "resolution": "1/16",
    "field": "Q",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_rewrite_command(capsys):
    code, doc = run(
        capsys, "rewrite", "--k", "3", "--d", "2",
        "--formula", "x1^2 + x2^2 + x3^2 = 1",
    )
    assert code == EXIT_OK
    assert doc["image_dim"] == 2
    assert "y2" in doc["rewritten"] and "y1" not in doc["rewritten"]


def test_rewrite_reads_a_signed_power_as_minus_the_power(capsys):
    """2*-x1*x2 - -x1^2 - -x2^2 is -2*x1*x2 + x1^2 + x2^2, that is
    2*p2 - p1^2; a reading of -x1^2 as (-x1)^2 would print -y1^2 - 1 >= 0."""
    code, doc = run(
        capsys, "rewrite", "--k", "2", "--d", "2",
        "--formula", "2*-x1*x2 - -x1^2 - -x2^2 >= 1",
    )
    assert code == EXIT_OK
    assert doc["rewritten"] == "-y1^2 + 2*y2 - 1 >= 0"


def test_compositions_chain_listing(capsys):
    code, doc = run(capsys, "compositions", "--k", "3", "--d", "3", "--chains")
    assert code == EXIT_OK
    assert doc["count"] == 4
    assert doc["chain_count"] == 11
    assert len(doc["chains"]) == 11
    assert [[1, 1, 1]] in doc["chains"]
    assert [[3], [1, 2], [1, 1, 1]] in doc["chains"]
    # 11 chains against the closed-form 7: the discrepancy flag must be up
    assert doc["flags"]["bound_exceeded"] is True


def test_compositions_clean_case(capsys):
    code, doc = run(capsys, "compositions", "--k", "3", "--d", "2")
    assert code == EXIT_OK
    assert doc["chain_count"] == 3 == doc["paper_chain_bound"]
    assert doc["flags"]["bound_exceeded"] is False


def test_compositions_flags_discrepancy(capsys):
    code, doc = run(capsys, "compositions", "--k", "5", "--d", "3")
    assert code == EXIT_OK
    assert doc["chain_count"] == 11
    assert doc["paper_chain_bound"] == 7
    assert doc["flags"]["bound_exceeded"] is True


def test_membership_command(capsys):
    code, doc = run(capsys, "membership", "--k", "3", "--d", "2", "--point", "0,1")
    assert code == EXIT_OK and doc["verdict"] == "inside"
    code, doc = run(capsys, "membership", "--k", "3", "--d", "2", "--point", "0,-1")
    assert code == EXIT_OK and doc["verdict"] == "outside"


def test_section_command(capsys):
    code, doc = run(capsys, "section", "--k", "3", "--d", "2", "--point", "0,1")
    assert code == EXIT_OK
    assert doc["face"] == [1, 2]
    assert doc["ambiguous"] is False
    assert doc["value"] == pytest.approx(1 / 6**0.5, abs=1e-6)
    assert doc["undecided_boxes"] == 0


def test_large_scale_points_of_the_image_answer(capsys):
    """Far from the origin the float rounding of a fibre point alone exceeds
    an absolute tol: both commands once answered with an error envelope."""
    code, doc = run(
        capsys, "section", "--k", "4", "--d", "3",
        "--point", "5001/3,225000001/9,1250000000001/27",
    )
    assert code == EXIT_OK
    assert doc["candidates"] >= 1 and sum(doc["x"]) == pytest.approx(1667, rel=1e-12)
    code, doc = run(
        capsys, "membership", "--k", "4", "--d", "4",
        "--point", "20000/3,100000000/9,500000000000/27,2500000000000000/81",
    )
    assert code == EXIT_OK and doc["verdict"] == "inside"


@pytest.mark.parametrize(
    "argv",
    [
        ("section", "--k", "4", "--d", "3", "--point", "1,1e308,1e308"),
        ("section", "--k", "4", "--d", "3", "--point", "1,1e400,1e300"),
        ("membership", "--k", "5", "--d", "4", "--point", "1,1e400,1e300,1e600"),
    ],
)
def test_points_beyond_the_float_range_are_an_error_envelope(capsys, argv):
    """Power sums or fibre points past the float range once answered with
    the bare OverflowError text, "(34, 'Numerical result out of range')" or
    "integer division result too large for a float"."""
    code, doc = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert doc == {"error": "the power sums or fibre points are beyond float range"}


def test_membership_beyond_the_float_range_stays_exact_for_d3(capsys):
    """d' ≤ 3 membership decides the exact sign conditions and needs no
    float fibre point."""
    code, doc = run(capsys, "membership", "--k", "4", "--d", "3", "--point", "1,1e308,1e308")
    assert code == EXIT_OK and doc["verdict"] == "inside"


def test_section_reports_undecided_boxes(monkeypatch, capsys):
    """At d' ≥ 4 a face whose search leaves boxes undecided may hide a larger
    value: the count reaches the result and the JSON, and the exit code is 2
    even when another face gave a candidate."""
    lam = Composition.from_parts((1, 3, 1))
    y = power_sum_vector((0, 1, 1, 1, 2), 4)  # (5, 7, 11, 19)
    found = FibreSolution.make(Face(lam), (2.0, 1.0, 0.0), y, 1e-9)

    def one_solution_one_box(face, targets, tol=1e-9):
        if face == lam:
            return FibreSearch((found,), 1)
        return FibreSearch((), 0)

    monkeypatch.setattr(fibres, "solve_fibre", one_solution_one_box)
    result = fibres.arnold_section(5, 4, y)
    assert (result.solution, result.candidates, result.undecided_boxes) == (found, 1, 1)
    code, doc = run(capsys, "section", "--k", "5", "--d", "4", "--point", "5,7,11,19")
    assert code == EXIT_UNCERTAIN
    assert doc["undecided_boxes"] == 1
    assert doc["face"] == [1, 3, 1] and doc["ambiguous"] is False


def test_betti_job_file(tmp_path, capsys):
    job = tmp_path / "sphere.json"
    job.write_text(json.dumps(SPHERE_JOB))
    code, doc = run(capsys, "betti", "--job", str(job))
    assert code == EXIT_OK
    assert doc["betti"] == [1, 0]
    assert doc["stable"] is True
    assert "timing_seconds" in doc


@pytest.mark.parametrize("directory", [False, True], ids=["file", "directory"])
def test_betti_job_refuses_inline_problem_flags(tmp_path, capsys, directory):
    """--job FILE or DIR ran the job and dropped an inline flag such as --k
    without a word: every problem flag next to --job is an error envelope."""
    job = _job_file(tmp_path, "sphere", SPHERE_JOB)
    target = str(tmp_path if directory else job)
    flags = [("--k", "4"), ("--d", "3"), ("--blocks", "2,1"), ("--degrees", "2,1"),
             ("--formula", "x1 + x2 + x3 = 0"), ("--box", "-1:1,0:1"), ("--resolution", "1/4"),
             ("--constant-c", "1")]
    for flag, value in flags:
        code, doc = run(capsys, "betti", "--job", target, flag, value)
        assert code == EXIT_ERROR and set(doc) == {"error"}
        assert flag in doc["error"] and "--job" in doc["error"]
    code, doc = run(capsys, "betti", "--job", target, "--k", "3", "--resolution", "1/8")
    assert code == EXIT_ERROR and "--k, --resolution" in doc["error"]
    code, doc = run(capsys, "betti", "--job", target, "--jobs", "1")
    assert code == EXIT_OK


def test_betti_inline_constant_c_defaults_to_one(capsys):
    """--constant-c has no default of its own, so that --job can refuse it;
    an inline run without it computes at c = 1.0, and its job doc carries
    no null constant_c, which the job checks would refuse."""
    inline = ("--k", "3", "--d", "2", "--formula", SPHERE_JOB["formula"], "--box", "-2:2,0:2",
              "--resolution", "1/16")
    for extra, c in (((), 1.0), (("--constant-c", "5"), 5.0)):
        code, doc = run(capsys, "betti", *inline, *extra)
        assert code == EXIT_OK and doc["bounds"]["constant_c"] == c


def test_betti_inline_flags(capsys):
    code, doc = run(
        capsys, "betti", "--k", "3", "--d", "2",
        "--formula", "x1^2 + x2^2 + x3^2 = 1",
        "--box", "-2:2,0:2", "--resolution", "1/16",
    )
    assert code == EXIT_OK
    assert doc["betti"] == [1, 0]


def test_betti_determinism(tmp_path, capsys):
    job = tmp_path / "sphere.json"
    job.write_text(json.dumps(SPHERE_JOB))
    _, doc1 = run(capsys, "betti", "--job", str(job))
    _, doc2 = run(capsys, "betti", "--job", str(job))
    doc1.pop("timing_seconds")
    doc2.pop("timing_seconds")
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)


def test_betti_unstable_slab_exits_2(tmp_path, capsys):
    job = {
        "k": 3,
        "d": 2,
        "formula": "x1^2 + x2^2 + x3^2 <= 1/16",
        "box": [["-1", "1"], ["0", "1"]],
        "resolution": "1/4",
    }
    path = tmp_path / "slab.json"
    path.write_text(json.dumps(job))
    code, doc = run(capsys, "betti", "--job", str(path))
    assert code == EXIT_UNCERTAIN
    assert doc["stable"] is False


def test_betti_coarse_undecided_exits_2(tmp_path, capsys, monkeypatch):
    real = pipeline.stable_betti

    def coarse_only(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), coarse_undecided_cells=3)

    monkeypatch.setattr(pipeline, "stable_betti", coarse_only)
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(SPHERE_JOB))
    code, doc = run(capsys, "betti", "--job", str(path))
    assert code == EXIT_UNCERTAIN
    assert doc["stable"] is True
    assert (doc["undecided_cells"], doc["coarse_undecided_cells"]) == (0, 3)


@pytest.fixture
def coarse_undecided(monkeypatch):
    """Every grid pair reports 3 undecided cells on its coarse grid."""
    real = pipeline.stable_betti
    monkeypatch.setattr(pipeline, "stable_betti", lambda *args, **kwargs: dataclasses.replace(
        real(*args, **kwargs), coarse_undecided_cells=3))


SLAB_JOB = {"k": 3, "d": 2, "formula": "x1^2 + x2^2 + x3^2 <= 1/16",
            "box": [["-1", "1"], ["0", "1"]], "resolution": "1/4"}


@pytest.mark.parametrize("job, unsettled", [
    (SPHERE_JOB, []),
    (SLAB_JOB, ["stable_across_resolutions"]),
])
def test_betti_lists_the_rows_it_is_unsettled_on(tmp_path, capsys, job, unsettled):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, doc = run(capsys, "betti", "--job", str(path))
    assert doc["unsettled"] == unsettled
    assert code == (EXIT_UNCERTAIN if unsettled else EXIT_OK)


def test_betti_lists_coarse_undecided_cells_as_unsettled(tmp_path, capsys, coarse_undecided):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(SPHERE_JOB))
    code, doc = run(capsys, "betti", "--job", str(path))
    assert (code, doc["unsettled"]) == (EXIT_UNCERTAIN, ["no_undecided_cells"])


def test_verify_exits_2_on_coarse_undecided_cells(tmp_path, capsys, coarse_undecided):
    """verify and betti exit 2 on the same rows: the coarse grid's undecided
    cells fail ``no_undecided_cells`` in both."""
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(SPHERE_JOB))
    code, doc = run(capsys, "verify", "--job", str(path), "--direct-resolution", "1/8")
    assert code == EXIT_UNCERTAIN
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["no_undecided_cells"]
    assert all(set(c) == {"name", "passed", "informational", "detail"} for c in doc["checks"])


def test_betti_job_directory(tmp_path, capsys):
    (tmp_path / "a.json").write_text(json.dumps(SPHERE_JOB))
    shell = dict(SPHERE_JOB, formula="x1^2+x2^2+x3^2 >= 1 and x1^2+x2^2+x3^2 <= 2",
                 box=[["-3", "3"], ["0", "3"]], resolution="1/8")
    (tmp_path / "b.json").write_text(json.dumps(shell))
    code, doc = run(capsys, "betti", "--job", str(tmp_path), "--jobs", "2")
    assert code == EXIT_OK
    assert doc["jobs"]["a"]["betti"] == [1, 0]
    assert doc["jobs"]["b"]["betti"] == [1, 0]


def test_betti_job_directory_keeps_results_when_one_job_fails(tmp_path, capsys):
    """A job that raises gets its own error envelope; the others still report."""
    (tmp_path / "a.json").write_text(json.dumps(SPHERE_JOB))
    oversized = {
        "blocks": [2, 2], "degrees": [2, 2],
        "formula": "x1^2 + x2^2 <= 1 and x3^2 + x4^2 <= 1",
        "box": [["0", "512"]] * 4, "resolution": "1",
    }
    (tmp_path / "b.json").write_text(json.dumps(oversized))
    code, doc = run(capsys, "betti", "--job", str(tmp_path))
    assert code == EXIT_ERROR
    assert doc["jobs"]["a"]["betti"] == [1, 0]
    assert set(doc["jobs"]["b"]) == {"error"}
    assert "exceeds the limit" in doc["jobs"]["b"]["error"]


def test_job_directory_reports_every_job_under_any_jobs_count(tmp_path, capsys):
    """--jobs is accepted and the jobs run one after another."""
    for name in "abc":
        (tmp_path / f"{name}.json").write_text(json.dumps(SPHERE_JOB))
    code, doc = run(capsys, "betti", "--job", str(tmp_path), "--jobs", "8")
    assert code == EXIT_OK
    assert {name: job["betti"] for name, job in doc["jobs"].items()} == {
        "a": [1, 0], "b": [1, 0], "c": [1, 0]
    }


def test_betti_oversized_grid_is_an_error_envelope(capsys):
    """512^4 coarse cells: rejected by the grid-size limit before any grid
    array exists, so the command allocates next to nothing."""
    tracemalloc.start()
    try:
        code, doc = run(
            capsys, "betti", "--blocks", "2,2", "--degrees", "2,2",
            "--formula", "x1^2 + x2^2 <= 1 and x3^2 + x4^2 <= 1",
            "--box", "0:512,0:512,0:512,0:512", "--resolution", "1",
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_ERROR
    assert "exceeds the limit" in doc["error"]
    assert peak < 16 * 2**20


def test_orbits_command(capsys):
    code, doc = run(capsys, "orbits", "--roots", "1,2", "--k", "5")
    assert code == EXIT_OK
    assert doc["formula"] == 6 and doc["enumeration"] == 6


def test_bounds_command(capsys):
    code, doc = run(capsys, "bounds", "--k", "3", "--d", "2", "--s", "1")
    assert code == EXIT_OK
    assert doc["optm_algebraic"] == 18
    assert doc["optm_closed"] == 1944


def test_bounds_command_prints_bounds_of_any_size(capsys):
    code, doc = run(capsys, "bounds", "--k", "7000", "--d", "3", "--s", "2")
    assert code == EXIT_OK
    assert len(doc["optm_closed"]) > 4300 and doc["thm_bound_form"] == 40824


def test_verify_command(tmp_path, capsys):
    job = tmp_path / "sphere.json"
    job.write_text(json.dumps(SPHERE_JOB))
    code, doc = run(capsys, "verify", "--job", str(job), "--direct-resolution", "1/8")
    assert code == EXIT_OK
    names = {c["name"]: c["passed"] for c in doc["checks"]}
    assert names["direct_oracle_agreement"] is True
    assert names["vanishing_above_threshold"] is True


def test_json_file_output(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["bounds", "--k", "3", "--d", "2", "--s", "1", "--json", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["optm_algebraic"] == 18


def test_error_envelopes(tmp_path, capsys):
    code, doc = run(capsys, "membership", "--k", "3", "--d", "2", "--point", "1/0,1")
    assert code == EXIT_ERROR and "error" in doc

    code, doc = run(capsys, "nonexistent-command")
    assert code == EXIT_ERROR and "error" in doc

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc = run(capsys, "betti", "--job", str(bad))
    assert code == EXIT_ERROR and "error" in doc

    code, doc = run(capsys, "betti", "--k", "3", "--d", "2")  # missing formula/box
    assert code == EXIT_ERROR and "error" in doc

    code, doc = run(
        capsys, "rewrite", "--k", "3", "--d", "2", "--formula", "x1 > 0"
    )
    assert code == EXIT_ERROR and "strict" in doc["error"].lower() or "error" in doc


def _job_file(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


MALFORMED_JOBS = {
    "box_not_a_list": dict(SPHERE_JOB, box=5),
    "box_edge_not_a_pair": dict(SPHERE_JOB, box=[["-2", "2"], ["0"]]),
    "not_an_object": [1, 2],
    "zero_denominator": dict(SPHERE_JOB, resolution="1/0"),
    "k_a_list": dict(SPHERE_JOB, k=[3]),
    "formula_a_number": dict(SPHERE_JOB, formula=5),
    "constant_c_a_list": dict(SPHERE_JOB, constant_c=[1]),
    "blocks_a_number": dict(SPHERE_JOB, blocks=5),
    "k_a_bool": dict(SPHERE_JOB, k=True),
    "blocks_a_bool": dict(SPHERE_JOB, blocks=[True], degrees=[2]),
    "resolution_a_bool": dict(SPHERE_JOB, resolution=True),
    "box_edge_a_bool": dict(SPHERE_JOB, box=[[False, 2], [0, 2]]),
}


def test_job_booleans_are_not_integers(tmp_path, capsys):
    """bool subclasses int: a JSON true once ran as k = 1 and failed later
    on the formula's variable x2, and as a resolution or box end it ran as 1."""
    expected = {
        "k_a_bool": "a job's k must not be a bool",
        "blocks_a_bool": "a job's blocks must be a list of integers",
        "resolution_a_bool": "a job's resolution must not be a bool",
        "box_edge_a_bool": "a job's box must be a list of [lo, hi] pairs",
    }
    for name, message in expected.items():
        code, doc = run(capsys, "betti", "--job", _job_file(tmp_path, name, MALFORMED_JOBS[name]))
        assert (code, doc) == (EXIT_ERROR, {"error": message})


def test_inline_zero_denominator_is_an_error_envelope(capsys):
    code, doc = run(
        capsys, "betti", "--k", "3", "--d", "2", "--formula", "x1 >= 0",
        "--box", "0:1/0,0:1", "--resolution", "1/4",
    )
    assert code == EXIT_ERROR
    assert "zero denominator" in doc["error"]


def test_lone_block_flag_is_one_error_envelope_in_every_command(capsys):
    """--blocks without --degrees, or --degrees without --blocks, is the same
    usage error for ``betti`` with inline flags as for ``rewrite`` and
    ``bounds``; ``betti`` once dropped a lone --degrees and ran on --k/--d."""
    inline = ["--formula", "x1^2 + x2^2 + x3^2 <= 1", "--box", "-2:2,0:2", "--resolution", "1/4"]
    for flag in (["--degrees", "5"], ["--blocks", "3"]):
        for command, rest in (("betti", inline), ("rewrite", inline[:2]), ("bounds", ["--s", "1"])):
            code, doc = run(capsys, command, "--k", "3", "--d", "2", *flag, *rest)
            assert (code, doc) == (EXIT_ERROR, {"error": "--blocks and --degrees go together"})


def test_bad_rational_list_envelope_keeps_the_parser_message(capsys):
    """``as_rational`` raises PolynomialError with the text of Fraction's own
    error, so the envelope reads as it did when that error escaped bare."""
    code, doc = run(capsys, "section", "--k", "4", "--d", "3", "--point", "abc,1,1")
    assert code == EXIT_ERROR
    assert doc == {"error": "bad rational list 'abc,1,1': Invalid literal for Fraction: 'abc'"}


@pytest.mark.parametrize(
    "formula",
    ["(" * 300 + "x1" + ")" * 300 + " >= 0", "x1*" + "-" * 1000 + "x1 >= 0"],
    ids=["300_parentheses", "1000_minuses"],
)
def test_deep_nesting_is_an_error_envelope(capsys, formula):
    code, doc = run(capsys, "rewrite", "--k", "1", "--d", "1", "--formula", formula)
    assert code == EXIT_ERROR
    assert "nesting deeper" in doc["error"]


def test_box_beyond_the_float_range_is_an_error_envelope(capsys):
    big = "1" + "0" * 400
    code, doc = run(
        capsys, "betti", "--k", "3", "--d", "2", "--formula", "x1^2 + x2^2 + x3^2 = 1",
        "--box", f"-{big}:{big},0:{big}", "--resolution", big,
    )
    assert code == EXIT_ERROR
    assert set(doc) == {"error"}


@pytest.mark.parametrize("name", sorted(MALFORMED_JOBS))
def test_malformed_job_is_an_error_envelope(tmp_path, capsys, name):
    code, doc = run(capsys, "betti", "--job", _job_file(tmp_path, name, MALFORMED_JOBS[name]))
    assert code == EXIT_ERROR
    assert set(doc) == {"error"}


def _without(job, key):
    return {name: value for name, value in job.items() if name != key}


# A job missing a required key, by the key the error must name.
MISSING_KEY_JOBS = {
    "formula": _without(SPHERE_JOB, "formula"),
    "box": _without(SPHERE_JOB, "box"),
    "resolution": _without(SPHERE_JOB, "resolution"),
    "k": _without(SPHERE_JOB, "k"),
    "d": _without(SPHERE_JOB, "d"),
    "degrees": dict(_without(_without(SPHERE_JOB, "k"), "d"), blocks=[3]),
}


@pytest.mark.parametrize("key", sorted(MISSING_KEY_JOBS))
def test_job_missing_a_key_names_it(tmp_path, capsys, key):
    code, doc = run(capsys, "betti", "--job", _job_file(tmp_path, key, MISSING_KEY_JOBS[key]))
    assert code == EXIT_ERROR
    assert doc == {"error": f"a job needs '{key}'"}


def test_betti_job_directory_names_each_missing_key(tmp_path, capsys):
    _job_file(tmp_path, "sphere", SPHERE_JOB)
    for key, job in MISSING_KEY_JOBS.items():
        _job_file(tmp_path, f"no_{key}", job)
    code, doc = run(capsys, "betti", "--job", str(tmp_path))
    assert code == EXIT_ERROR
    assert doc["jobs"]["sphere"]["betti"] == [1, 0]
    for key in MISSING_KEY_JOBS:
        assert doc["jobs"][f"no_{key}"] == {"error": f"a job needs '{key}'"}


def test_betti_job_directory_reports_each_malformed_job(tmp_path, capsys):
    _job_file(tmp_path, "sphere", SPHERE_JOB)
    for name, job in MALFORMED_JOBS.items():
        _job_file(tmp_path, name, job)
    (tmp_path / "unparsable.json").write_text('{"k": 3,')
    code, doc = run(capsys, "betti", "--job", str(tmp_path))
    assert code == EXIT_ERROR
    assert doc["jobs"]["sphere"]["betti"] == [1, 0]
    for name in MALFORMED_JOBS:
        assert set(doc["jobs"][name]) == {"error"}
    assert doc["jobs"]["unparsable"]["error"].startswith("malformed job JSON")


def test_job_field_q_is_accepted_and_changes_nothing(tmp_path, capsys):
    """Betti numbers are over Q only; a job may still say so."""
    reports = []
    for name, job in (("with_field", SPHERE_JOB), ("without_field", _without(SPHERE_JOB, "field"))):
        code, doc = run(capsys, "betti", "--job", _job_file(tmp_path, name, job))
        assert code == EXIT_OK
        del doc["timing_seconds"]
        reports.append(doc)
    assert reports[0] == reports[1]
    assert reports[0]["betti"] == [1, 0] and "field" not in reports[0]


def test_job_field_other_than_q_is_an_error_envelope(tmp_path, capsys):
    """Any other field is refused by name, never computed over Q instead."""
    _job_file(tmp_path, "z2", dict(SPHERE_JOB, field="Z2"))
    code, doc = run(capsys, "betti", "--job", str(tmp_path / "z2.json"))
    assert code == EXIT_ERROR
    assert set(doc) == {"error"} and "'Z2'" in doc["error"]
    _job_file(tmp_path, "sphere", SPHERE_JOB)
    code, doc = run(capsys, "betti", "--job", str(tmp_path))
    assert code == EXIT_ERROR
    assert doc["jobs"]["sphere"]["betti"] == [1, 0]
    assert set(doc["jobs"]["z2"]) == {"error"} and "'Z2'" in doc["jobs"]["z2"]["error"]


def test_betti_has_no_field_option(capsys):
    code, doc = run(
        capsys, "betti", "--k", "3", "--d", "2", "--formula", SPHERE_JOB["formula"],
        "--box", "-2:2,0:2", "--resolution", "1/16", "--field", "Q",
    )
    assert code == EXIT_ERROR
    assert set(doc) == {"error"} and "--field" in doc["error"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_constant_c_must_be_finite_and_positive(tmp_path, capsys, value):
    """A non-finite constant once failed deep in the bound calculators with
    "cannot convert NaN to integer ratio"."""
    inline = ("--k", "3", "--d", "2", "--constant-c", value)
    for argv in (
        ("bounds", *inline, "--s", "1"),
        ("betti", *inline, "--formula", SPHERE_JOB["formula"], "--box", "-2:2,0:2",
         "--resolution", "1/16"),
        ("betti", "--job", _job_file(tmp_path, "c", dict(SPHERE_JOB, constant_c=value))),
    ):
        code, doc = run(capsys, *argv)
        assert (code, doc) == (EXIT_ERROR, {"error": "constant must be finite and positive"})


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("membership", "--k", "3", "--d", "2", "--point", "0,1"),
        ("membership", "--k", "4", "--d", "3", "--point", "0,4,7"),
        ("section", "--k", "3", "--d", "2", "--point", "0,1"),
        ("section", "--k", "4", "--d", "3", "--point", "0,4,7"),
    ],
    ids=["membership-d2", "membership-d3", "section-d2", "section-d3"],
)
def test_tol_must_be_finite_and_positive(capsys, argv, tol):
    code, doc = run(capsys, *argv, "--tol", tol)
    assert code == EXIT_ERROR
    assert "finite and positive" in doc["error"]


@pytest.mark.parametrize("k", [9, 13, 14, 17, 40])
def test_composition_commands_are_bounded(capsys, k):
    """Poset and chain enumerations are refused above their limits before
    any work is done: each command answers quickly in little memory."""
    commands = {
        "compositions": ("compositions", "--k", str(k), "--d", str(k)),
        "bounds": ("bounds", "--k", str(k), "--d", str(k), "--s", "1"),
    }
    docs = {}
    for name, argv in commands.items():
        start = time.perf_counter()
        docs[name] = run(capsys, *argv)
        assert time.perf_counter() - start < 10, name
        tracemalloc.start()
        try:
            assert run(capsys, *argv) == docs[name]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20, name
    (comp_code, comp_doc), (bounds_code, bounds_doc) = docs["compositions"], docs["bounds"]
    assert bounds_code == EXIT_OK
    if k <= 13:
        assert comp_code == EXIT_OK and comp_doc["count"] == 2 ** (k - 1)
        # (k − 1)! maximal chains against the product formula's ((k − 3)/2)!
        assert comp_doc["flags"]["maximal_formula_mismatch"] is True
        assert bounds_doc["chain_count_exact"] == comp_doc["chain_count"]
    else:
        assert comp_code == EXIT_ERROR and "exceeds the limit" in comp_doc["error"]
        assert bounds_doc["chain_count_exact"] is None

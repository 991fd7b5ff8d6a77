"""orbit-betti: Betti numbers of quotients of symmetric semi-algebraic sets.

The package pipeline, bottom to top:

* :mod:`orbit_betti.polys` — exact polynomials, closed formulas, the
  directed-rounding float intervals and the exact sparse elimination that
  the stages above share;
* :mod:`orbit_betti.powersums` — symmetry check and the power-sum rewrite;
* :mod:`orbit_betti.compositions` — the composition poset and chain counts;
* :mod:`orbit_betti.fibres` — fibres of the power-sum map, image membership,
  the minimal-face section;
* :mod:`orbit_betti.cubical` — cubical complexes from batch grid oracles and
  their rational homology;
* :mod:`orbit_betti.pipeline` — end-to-end quotient Betti computations, the
  brute-force cross-check, and the bound calculators;
* :mod:`orbit_betti.cli` — the ``orbit-betti`` command.
"""

from orbit_betti.polys import (
    BlockSpec,
    ClosedFormula,
    ParseError,
    Polynomial,
    PolynomialError,
    Rational,
    SignAtom,
    evaluate_formula,
    evaluate_polynomial,
    multidegree,
    parse_formula,
    parse_polynomial,
)
from orbit_betti.powersums import (
    PowerSumForm,
    SymmetryError,
    check_symmetric,
    power_sum_rewrite,
    rewrite_formula,
)
from orbit_betti.compositions import (
    Composition,
    chain_count,
    chain_report,
    chains,
    comp_kd,
    comp_max,
    paper_chain_bound,
)
from orbit_betti.fibres import (
    SectionResult,
    arnold_section,
    image_membership,
    solve_fibre,
)
from orbit_betti.cubical import (
    BettiVector,
    betti_numbers,
    build_cubical,
    stable_betti,
)
from orbit_betti.pipeline import (
    BoundsReport,
    OrbitCount,
    ProblemSpec,
    QuotientReport,
    bounds_report,
    direct_quotient_betti,
    orbit_count_finite,
    quotient_betti,
    vanishing_threshold,
    verify_report,
)

__all__ = [
    "BettiVector",
    "BlockSpec",
    "BoundsReport",
    "ClosedFormula",
    "Composition",
    "OrbitCount",
    "ParseError",
    "Polynomial",
    "PolynomialError",
    "PowerSumForm",
    "ProblemSpec",
    "QuotientReport",
    "Rational",
    "SectionResult",
    "SignAtom",
    "SymmetryError",
    "arnold_section",
    "betti_numbers",
    "bounds_report",
    "build_cubical",
    "chain_count",
    "chain_report",
    "chains",
    "check_symmetric",
    "comp_kd",
    "comp_max",
    "direct_quotient_betti",
    "evaluate_formula",
    "evaluate_polynomial",
    "image_membership",
    "multidegree",
    "orbit_count_finite",
    "paper_chain_bound",
    "parse_formula",
    "parse_polynomial",
    "power_sum_rewrite",
    "quotient_betti",
    "rewrite_formula",
    "solve_fibre",
    "stable_betti",
    "vanishing_threshold",
    "verify_report",
]

__version__ = "0.1.0"

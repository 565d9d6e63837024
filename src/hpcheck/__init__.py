"""Model-level checking of hybrid-program control models.

Parse a small dL-style language, execute models deterministically under
externalized nondeterminism, generate loop-invariant and modeling-error
obligations, and decide them at desk scale by certified counterexample
and witness search.
"""

__version__ = "0.1.0"

from .parser import ParseError, parse_formula, parse_model, parse_program, parse_term
from .semantics import (
    evolve_plant, format_script, max_admissible_duration, run,
)
from .checker import SearchConfig, certify, check, derive_controller_witness
from .models import builtin, table2_suite

__all__ = [
    "ParseError", "parse_formula", "parse_model", "parse_program",
    "parse_term", "evolve_plant", "format_script", "max_admissible_duration",
    "run",
    "SearchConfig", "certify", "check", "derive_controller_witness",
    "builtin", "table2_suite", "__version__",
]

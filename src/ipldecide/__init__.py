"""Decision procedure for intuitionistic propositional logic.

Non-validity is established by forward saturation in a refutation calculus
and certified by an extracted, verified Kripke countermodel of minimal
height; validity is established by reconstructing a backtracking-free
backward derivation from the saturated database and certified by a checked
G3i proof tree.
"""

from .backward import (BSequent, bsearch, check_g3i, critical, evaluate,
                       oracle_decide, to_g3i)
from .countermodel import (derivation_from_model, extract_model, rank,
                           semantic_world_data, soundness_audit)
from .formula import (Formula, FormulaSet, GoalUniverse, ParseError,
                      build_universe, closure_member, parse, size, to_text)
from .kripke import (KripkeModel, check_countermodel, forces, height,
                     height_of, monotone_forcing_audit)
from .rules import (NotApplicable, Sequent, apply_and, apply_imp_in_irregular,
                    apply_imp_in_regular, apply_imp_notin, apply_join,
                    apply_or, axioms, subsumes, weight)
from .search import Database, DerivationStore, SearchOutcome, fsearch, minimum_compact

__version__ = "0.1.0"

__all__ = [
    "BSequent", "Database", "DerivationStore", "Formula", "FormulaSet",
    "GoalUniverse", "KripkeModel", "NotApplicable", "ParseError",
    "SearchOutcome", "Sequent", "apply_and", "apply_imp_in_irregular",
    "apply_imp_in_regular", "apply_imp_notin", "apply_join", "apply_or",
    "axioms", "bsearch", "build_universe", "check_countermodel", "check_g3i",
    "closure_member", "critical", "derivation_from_model", "evaluate",
    "extract_model", "forces", "fsearch", "height", "height_of",
    "minimum_compact", "monotone_forcing_audit",
    "oracle_decide", "parse", "rank", "semantic_world_data", "size",
    "soundness_audit", "subsumes", "to_g3i", "to_text", "weight",
]

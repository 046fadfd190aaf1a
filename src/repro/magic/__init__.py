"""Magic-sets demand transformation, composable with the semantic rewrite.

The subsystem has three layers:

* :mod:`repro.magic.adorn` — binding-pattern (``b``/``f``) adornment
  propagated left to right from a query atom;
* :mod:`repro.magic.transform` — magic predicates, seeds and guarded
  rules;
* :mod:`repro.magic.pipeline` — composition with the paper's semantic
  rewrite in either order, plus equivalence checking.
"""

from .adorn import AdornedProgram, AdornedRule, adorn_program, adornment_of
from .pipeline import (
    PIPELINE_ORDERS,
    EquivalenceCheck,
    PipelineReport,
    assert_equivalent,
    check_equivalence,
    query_atom_answers,
    run_pipeline,
)
from .transform import MagicProgram, magic_transform, match_query_atom

__all__ = [
    "AdornedProgram",
    "AdornedRule",
    "adorn_program",
    "adornment_of",
    "PIPELINE_ORDERS",
    "EquivalenceCheck",
    "PipelineReport",
    "assert_equivalent",
    "check_equivalence",
    "query_atom_answers",
    "run_pipeline",
    "MagicProgram",
    "magic_transform",
    "match_query_atom",
]

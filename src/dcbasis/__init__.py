"""Exact dual canonical bases and irreducibility criteria for segment algebras.

The package has two halves that validate each other:

* an exact symbolic side (`laurent`, `multisegment`, `algebra`, `canonical`)
  that computes dual canonical basis vectors ``G*(m)`` inside the shuffle
  algebra spanned by dual PBW vectors ``E*(m)``, and
* a combinatorial side (`criteria`, `tableaux`) that decides irreducibility
  of induction products through separation properties of co-finite integer
  sets, hook lengths, and column tableaux.
"""

from .laurent import ExactDivisionError, LaurentPoly, quantum_integer
from .multisegment import (
    Multisegment,
    Segment,
    Weight,
    b_form,
    cartan_pairing,
    dominates,
    enumerate_by_weight,
    linked,
    parse_multisegment,
    parse_segment,
    parse_weight,
    segment_intersection,
    segment_key,
    segment_pairing,
    segment_union,
)
from .algebra import (
    AlgebraElement,
    dual_pbw,
    minor_multisegment,
    quantum_minor,
    render_combination,
    unit,
)
from .canonical import (
    BasisCache,
    DcbTable,
    dcb_table,
    expand_in_dcb,
    kl_matrix,
    membership_up_to_power,
    product_membership,
    structure_constants,
)
from .criteria import (
    CoFiniteSet,
    Partition,
    evaluation_multisegment,
    evaluation_set,
    hook_irreducible,
    irreducible_family,
    irreducible_pair,
    join_related,
    main1_pattern,
    main1_witness,
    parse_partition,
    separated,
    strongly_separated,
)
from .tableaux import (
    Tableau,
    frank_condition,
    n_pi,
    product_word,
    rs_p_tableau,
)

__all__ = [
    "AlgebraElement",
    "BasisCache",
    "CoFiniteSet",
    "DcbTable",
    "ExactDivisionError",
    "LaurentPoly",
    "Multisegment",
    "Partition",
    "Segment",
    "Tableau",
    "Weight",
    "b_form",
    "cartan_pairing",
    "dcb_table",
    "dominates",
    "dual_pbw",
    "enumerate_by_weight",
    "evaluation_multisegment",
    "evaluation_set",
    "expand_in_dcb",
    "frank_condition",
    "hook_irreducible",
    "irreducible_family",
    "irreducible_pair",
    "join_related",
    "kl_matrix",
    "linked",
    "main1_pattern",
    "main1_witness",
    "membership_up_to_power",
    "product_membership",
    "minor_multisegment",
    "n_pi",
    "parse_multisegment",
    "parse_partition",
    "parse_segment",
    "parse_weight",
    "product_word",
    "quantum_integer",
    "quantum_minor",
    "render_combination",
    "rs_p_tableau",
    "segment_intersection",
    "segment_key",
    "segment_pairing",
    "segment_union",
    "separated",
    "strongly_separated",
    "structure_constants",
    "unit",
]

__version__ = "0.1.0"

"""Exact-arithmetic toric MMP engine.

Fans, pairs and their log-discrepancy functions, wall circuits, flop
decomposition of K-equivalent models, relative MMP, and the abelian
quotient pipeline with semi-orthogonal rank bookkeeping.
"""

from .errors import (
    ToricMmpError,
    InvalidInputError,
    NotKEquivalentError,
    NonProjectiveError,
    BudgetExceededError,
    EngineInvariantError,
)
from .lattice import (
    LatticeBasis,
    box_points,
    cone_multiplicity,
    hermite_normal_form,
    primitive,
    smith_normal_form,
)
from .fan import (
    Fan,
    Wall,
    fans_equal,
    in_support,
    make_fan,
    star_subdivision,
    walls,
)
from .circuits import WallRelation, classify, defect, wall_relation
from .pairs import (
    ToricPair,
    is_canonical,
    is_nef,
    is_terminal,
    k_compare,
    k_equivalent,
    make_pair,
    min_discrepancy_witness,
    pl_eval,
    psi_heights,
)
from .mmp import (
    ExtractionStep,
    FlopStep,
    MmpStep,
    ample_heights,
    bistellar_flip,
    divisorial_contract,
    flop_decompose,
    regular_triangulation,
    relative_mmp,
    terminalize,
)
from .mckay import (
    GroupData,
    LedgerEntry,
    McKayReport,
    boundary_divisor_pair,
    case_a_components,
    group_lattice,
    group_order,
    hj_resolution,
    is_sl,
    make_group,
    mckay_pipeline,
    quotient_pair,
    stack_rank,
)
from .jsonio import (
    dumps,
    fan_from_json,
    fan_to_json,
    group_from_json,
    group_to_json,
    pair_from_json,
    pair_to_json,
    to_jsonable,
)

"""Exact generalized lantern relations from real line arrangements.

The pipeline: exact rational arrangement -> intersection combinatorics ->
braid monodromy -> a relation between boundary Dehn twists and conjugated
interior twists on a holed sphere -> algebraic verification in a framed
pure-braid model whose word problem is decided by the Artin action on the
free group.
"""

from .braids import (
    BraidWord,
    FreeWord,
    Permutation,
    StrandCountMismatch,
    artin_image,
    boundary_word_image,
    braids_equal,
    exponent_sum,
    free_reduce,
    full_twist_block,
    half_twist_block,
    is_pure,
    permutation,
)
from .families import (
    DoubledDaisyCheck,
    FamilyCheck,
    MalformedOrdering,
    PairOrdering,
    Unrealized,
    check_daisy,
    check_daisy_arrangement,
    check_doubled_daisy,
    extract_pair_ordering,
    make_daisy,
    make_doubled_daisy,
    make_pencil,
    realize_ordering,
    realize_wajnryb,
    validate_ordering,
)
from .files import (
    ArrangementFileError,
    arrangement_to_json,
    load_arrangement,
    parse_arrangement,
    save_arrangement,
)
from .framed import (
    FramedElement,
    InconsistentDescriptor,
    NotPure,
    TwistDescriptor,
    boundary_label,
    compose,
    compose_all,
    conjugated_twist,
    elements_equal,
    identity_element,
    inner_boundary_twist,
    outer_boundary_twist,
    to_braid,
    twist_label,
    twist_product,
)
from .geometry import (
    Arrangement,
    DuplicateSlope,
    IntersectionPoint,
    InvariantViolation,
    Line,
    NonGenericX,
    OrderProfile,
    Rational,
    as_rational,
    intersections,
    line_multiplicities,
    order_profiles,
    shear_to_generic,
    validate_arrangement,
)
from .monodromy import (
    MonodromyData,
    PointTwist,
    braid_monodromy,
    lantern_relation,
    total_monodromy,
    verified_relation,
    verify_relation,
)
from .relation import (
    Relation,
    UnknownFormat,
    VerificationReport,
    Witness,
    export_relation,
    parse_relation,
    relation_to_dict,
    relation_to_v3_dict,
)
from .svgplot import render_arrangement_svg

__version__ = "0.1.0"

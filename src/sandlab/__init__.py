"""Exact simulation and bounded verification for sand automata.

Configurations are bi-infinite columns of grains (integer heights plus
two symbolic infinities) represented exactly as a finite core with
ultimately affine-periodic tails. Rule tables read saturated height
differences within a radius and move grains accordingly; the toolkit
simulates them exactly, measures the natural ultrametric, and runs
bounded injectivity / surjectivity / nilpotency checks with re-verified
witnesses.
"""

from .analysis import (
    BOUND_EXCEEDED,
    EXHAUSTED_NO_WITNESS,
    WITNESS_FOUND,
    WitnessReport,
    check_injective_bounded,
    check_nilpotent_bounded,
    check_preimage_bounded,
    verify_right_inverse,
    verify_witness_pair,
)
from .automaton import (
    NEG,
    POS,
    SandAutomaton,
    WILDCARD,
    apply,
    apply_window,
    image_height,
    iterate,
    local_delta,
    validate_rule,
)
from .config import (
    Configuration,
    Tail,
    equals,
    first_difference,
    is_finite_class,
    sum_grains,
    support_radius,
)
from .errors import (
    CoreBoundExceeded,
    DomainError,
    InternalConsistencyError,
    ParseError,
    RuleError,
    SandlabError,
)
from .formats import (
    emit_config_file,
    emit_dump,
    emit_rule_file,
    parse_config_file,
    parse_dump,
    parse_rule_file,
    render_ascii,
)
from .heights import MINUS_INF, PLUS_INF, Height, Infinity, is_finite
from .metric import DifferenceVector, Distance, beta, diff_vector, distance
from .rng import Lcg64, sample_configuration
from .zoo import (
    build_L_preimage,
    crown_lift,
    make,
    make_L,
    make_S,
    make_Sr,
    make_X,
    make_Y,
    periodic_splice,
    splice_match_indices,
)

__version__ = "0.1.0"

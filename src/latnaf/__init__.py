"""Window non-adjacent digit systems over lattices with an expanding base.

The package builds digit sets for an expanding endomorphism of Z^n (or an
algebraic integer given by its minimal polynomial), computes width-w
non-adjacent expansions, decides whether every lattice point has one, and
checks the expansions' Hamming weight against an independent oracle.
"""

from .digitset import (
    FAMILY_CUSTOM,
    FAMILY_INTERVAL,
    FAMILY_MINIMAL_NORM,
    DigitSet,
    NormContext,
    build_minimal_norm,
    build_rational_interval,
    digit_count,
    from_digits,
    geometry,
)
from .errors import (
    BallSizeError,
    ConsistencyError,
    InstanceError,
    LatnafError,
    MalformedDigitSetError,
    NormCapError,
    NotExpandingError,
    PrecisionCapError,
)
from .expansion import (
    CycleReport,
    Expansion,
    digit_of,
    expand,
    is_window_form,
    is_wnaf,
    step,
    value,
    word_weight,
)
from .lattice import LatticeInstance, char_poly, is_expanding, residue_system
from .nadscheck import (
    CERT_MINIMAL_NORM,
    CERT_TILING,
    STATUS_CERTIFIED,
    STATUS_COUNTEREXAMPLE,
    STATUS_SEARCH,
    NadsVerdict,
    certify,
    decide,
    invariant_ball_bound,
    search,
)
from .numberfield import (
    NumberFieldInstance,
    build,
    embedding_moduli_sq,
    is_expanding_base,
)
from .optimality import (
    OptimalityCertificate,
    VerifyReport,
    check_hypotheses,
    min_weight_oracle,
    verify_empirically,
)

__all__ = [
    "BallSizeError",
    "CERT_MINIMAL_NORM",
    "CERT_TILING",
    "ConsistencyError",
    "CycleReport",
    "DigitSet",
    "Expansion",
    "FAMILY_CUSTOM",
    "FAMILY_INTERVAL",
    "FAMILY_MINIMAL_NORM",
    "InstanceError",
    "LatnafError",
    "LatticeInstance",
    "MalformedDigitSetError",
    "NadsVerdict",
    "NormCapError",
    "NormContext",
    "NotExpandingError",
    "NumberFieldInstance",
    "OptimalityCertificate",
    "PrecisionCapError",
    "STATUS_CERTIFIED",
    "STATUS_COUNTEREXAMPLE",
    "STATUS_SEARCH",
    "VerifyReport",
    "build",
    "build_minimal_norm",
    "build_rational_interval",
    "certify",
    "char_poly",
    "check_hypotheses",
    "decide",
    "digit_count",
    "digit_of",
    "embedding_moduli_sq",
    "expand",
    "from_digits",
    "geometry",
    "invariant_ball_bound",
    "is_expanding",
    "is_expanding_base",
    "is_window_form",
    "is_wnaf",
    "min_weight_oracle",
    "residue_system",
    "search",
    "step",
    "value",
    "verify_empirically",
    "word_weight",
]

__version__ = "0.1.0"

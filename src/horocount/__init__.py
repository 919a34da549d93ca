"""horocount: exact counting of rational geodesics and Ford horoballs for
the modular orbifold and the Bianchi orbifolds, with the analytic constants
(Dedekind zeta at 2, class number, residue) needed for the asymptotics."""

from .field import (
    FieldSpec,
    InvalidFieldError,
    RingElement,
    UnsupportedFieldError,
    class_number,
    ideal_count_coefficients,
    kronecker_character,
    make_field,
    norm,
    residue_K,
    units,
    zeta_K_2,
)
from .ideals import (
    InvalidDenominatorError,
    LatticeIdeal,
    ZeroIdealError,
    enumerate_norm_le,
    factor_ideal,
    hnf_from_generators,
    is_coprime,
    mobius_ideal,
    ring_totient,
)
from .counting import (
    CountSample,
    S_count,
    T_sum,
    exponent_estimate,
    phi_asymptotic,
    phi_bruteforce,
    phi_mobius,
)
from .geodesics import (
    RationalGeodesic,
    SeriesPartialSum,
    check_disjoint,
    convergence_verdict,
    depth_counting,
    growth_rate,
    horoball_of,
    make_geodesic,
    parabolic_poincare_partial,
    relative_poincare_partial,
)

__version__ = "0.1.0"

"""Exact computer algebra for genus-2 spectral curves.

Everything here works over exact domains (arbitrary-precision
rationals, multivariate polynomials, truncated Laurent series, prime
fields, first-order jets mod the prime 2^61 - 1); no floating point
enters any verdict. The package mechanizes three computations about
Jacobians of spectral curves of 4-dimensional integrable flows:

* the identity between the Laurent divisor data of the rank-9/2 flow
  and its spectral quintic (`verify_painleve_divisor_gar92`),
* algebraic independence of the absolute Igusa invariants along each
  catalog family, certified by a rank mod 2^61 - 1 that bounds the
  rank over Q from below (`independence_rank`),
* two-prime endomorphism-triviality certificates from point counts
  over F_p and F_{p^2} (`certify_endomorphisms`).
"""
from .curve_catalog import (
    CurveFamily,
    HyperellipticCurve,
    PlaneSpectralCurve,
    catalog_entries,
    catalog_get,
    catalog_ids,
    gar92_hamiltonian_frame,
    gar92_lax,
    gar92_spectral_identity,
    lax_spectral_curve,
    load_curve_file,
    mat_i_quartic,
    mat_i_weierstrass_family,
    mat_iii_quartic,
    quadratic_resolvent_curve,
    reduce_mod_p,
    GAR52_32,
    GAR92,
    KFS,
    KSS,
    MAT_I,
    MAT_III,
)
from .endo_pipeline import (
    EndoCertificate,
    DivisorIdentityReport,
    certify_endomorphisms,
    frobenius_verdict,
    resolve_curve,
    verify_painleve_divisor_gar92,
    INCONCLUSIVE,
    TRIVIAL_END,
    TRIVIAL_GEOMETRIC_END,
)
from .errors import (
    AlignmentError,
    BadReductionError,
    BlockedOnDataError,
    DegenerateCurveError,
    DegreeBoundError,
    ExactDivisionError,
    InconclusiveError,
    InconsistentCountsError,
    PolyParseError,
    ReducibleQuarticError,
    SpectralTorelliError,
    StructureError,
    TruncationError,
    UndefinedChartError,
    UnknownFamilyError,
)
from .exact_algebra import (
    Jet1,
    MultiPoly,
    UniPoly,
    discriminant,
    jet_eval,
    jet_point,
    rational_matrix_rank,
    resultant,
)
from .finite_arithmetic import (
    Fp2,
    PointCount,
    WeilPolynomial,
    count_points,
    is_prime,
    point_counts,
    quadratic_character,
    smallest_nonresidue,
    weil_polynomial,
    zeta_rational_form,
)
from .galois_certificates import (
    QuadraticSubfield,
    QuarticAnalysis,
    RootRatioReport,
    cyclotomic,
    euler_phi,
    factor_quartic,
    galois_group,
    quadratic_subfield,
    resolvent_cubic,
    root_ratio_orders,
    squarefree_part,
    tate_condition,
)
from .igusa_invariants import (
    DEFAULT_SEED,
    IgusaInvariants,
    RankReport,
    binary_sextic_discriminant,
    frozen_rank_witnesses,
    igusa,
    independence_rank,
    rank_at_point,
    transvectant,
)
from .series_kernel import (
    LaurentSolution,
    TruncatedSeries,
    garnier92_hamiltonian_values,
    garnier92_hamiltonians,
    garnier92_solution,
    substitute_hamiltonian,
    verify_hamilton_flow,
)

__version__ = "0.1.0"

"""Exact-arithmetic invariants of Hankel determinantal hypersurfaces and
secant varieties of rational normal curves.

Modules by theme:

* exactalg     -- rationals, sparse multivariate polynomials, localization,
                  and determinants of matrices given as rows;
* hankel       -- Hankel matrices and the block-reduction coordinate change;
* compositions -- ordered partitions, Moebius and totient counting;
* linalg       -- exact sparse pivots and dense determinants by
                  fraction-free elimination over Z;
* strata       -- composition-indexed torus strata and unimodular monomial
                  normal forms;
* hodge        -- Hodge polynomials and Milnor-fiber Betti tables;
* cohomtables  -- intersection-cohomology tables, monodromy eigenvalues,
                  nearby/vanishing-cycle decompositions;
* drk          -- de Rham-Koszul complex and explicit eigenvectors;
* cli          -- deterministic JSON / table / LaTeX command line.

All public values are immutable after construction and every operation is
a pure function of its arguments, so callers may parallelize freely.
"""

from .compositions import (
    Composition,
    count_coprime,
    count_coprime_by_length,
    enumerate_compositions,
    euler_phi,
    mobius,
)
from .exactalg import (
    DimensionError,
    LocalizedPoly,
    MultiPoly,
    poly_det,
)
from .hankel import (
    BlockReduction,
    block_reduce,
    factorization_identity,
    hankel_matrix,
    verify_block_reduction,
)
from .hodge import (
    BettiTable,
    gbundle_hodge,
    milnor_betti,
    milnor_hodge_bruteforce,
    milnor_hodge_closed,
    quotient_hodge,
)
from .strata import (
    StratumDescriptor,
    UnimodularChange,
    stratify,
    torus_normal_form,
)
from .cohomtables import (
    NearbyCycleSummand,
    RootOfUnity,
    ih_betti,
    monodromy_eigentable,
    nearby_vanishing_decomposition,
    sec2_singular_betti,
    sym_power_betti,
)
from .drk import (
    ExtForm,
    GradedClass,
    TruncatedDims,
    connecting_map,
    d_f,
    homogeneous_class,
    n2_eigenvectors,
    truncated_drk_dims,
    univariate_drk_cohomology,
)

__version__ = "0.1.0"

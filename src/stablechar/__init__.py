"""Exact-arithmetic engine for the stable character rings of the classical
groups: Schur / symplectic / orthogonal expansions, the kernel-built
embedding family, and Kirillov-Reshetikhin rectangle decompositions."""

from .bcd import bcd_multiply
from .embeddings import (
    Decomposition,
    EmbeddingTable,
    image_by_skewing,
    image_from_table,
    parity_coefficient,
    table_from_series,
    verify_constant_identity,
    verify_linear_identity,
)
from .kr import (
    domino_removals,
    kr_decomposition,
    quadratic_identity_check,
    rectangle_check,
    weight_notation,
)
from .partitions import (
    EMPTY,
    Partition,
    leq_extended,
    partitions_of,
)
from .schur import (
    FormalSum,
    dual_jacobi_trudi,
    omega,
    schur_multiply,
    skew_expand,
)
from .series import (
    KappaExpansion,
    Series,
    dual,
    is_kappa_positive,
    is_product_s_positive,
    kappa_expansion,
    product_expansion,
    quadratic_scan,
    real_negative_roots,
)

__version__ = "0.1.0"

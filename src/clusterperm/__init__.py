"""Finite-sample valid permutation tests under multi-way clustered errors.

The package tests regression coefficients by permuting cluster indices
with a group of two-way permutations, projecting out both the original
and the permuted covariates, and comparing norm statistics of the
projected treatment scores.  Entry points:

* complete dyadic grids: :func:`dyadic_test`, :func:`dyadic_ci`;
* incomplete grids: :func:`biclique_decompose` + :func:`blockwise_test`;
* three-index data: :func:`threeway_test`, :func:`panel_test`,
  :func:`layout_test`, :func:`irregular_test`;
* Monte Carlo harness: :mod:`clusterperm.simulate`.
"""

__version__ = "0.1.0"

from .dyadic import (
    ConfidenceInterval,
    GridSpec,
    PreparedTest,
    TestReport,
    dyadic_ci,
    dyadic_layout,
    dyadic_test,
    invert_ci,
    median_pvalue,
    permutation_test,
    shifted_test,
    stack_blocks,
    two_way_test,
)
from .exceptions import (
    CapExceededError,
    ClusterPermError,
    DegenerateInputError,
    DimensionError,
    DuplicateCellError,
    EmptyMaskError,
    GroupError,
    InsufficientDimensionError,
    MissingDataError,
    NoEligibleCellsError,
    NonFiniteInputError,
    ParseError,
    ResolutionError,
    UnbalancedError,
    VarianceBudgetError,
)
from .io import ingest_csv, ingest_mask_csv
from .missing import (
    BicliqueCover,
    biclique_decompose,
    blockwise_test,
    max_biclique_exact,
    max_biclique_greedy,
    max_square_side,
)
from .model import (
    DyadArray,
    PermutationFamily,
    StackedDesign,
    TwoWayPermutation,
    compose,
    row_index,
)
from .multiway import (
    IrregularResult,
    MultiIndexDataset,
    irregular_test,
    layout_test,
    panel_test,
    suggest_cell_threshold,
    threeway_test,
)
from .permgroup import (
    CyclicGroup,
    block_product_group,
    build_cyclic_family,
    build_two_way_group,
    composition_law_holds,
    default_num_perms,
    fixed_point_free,
    verify_group,
)
from .projector import ResidualProjector, residual_projector
from .simulate import (
    McSummary,
    RandomEffectsSpec,
    biclique_growth_experiment,
    gen_dyadic_dataset,
    gen_mcar_mask,
    gen_random_effects,
    gen_semisynthetic_errors,
    mc_rejection_rate,
    minorization_gap_suite,
)

__all__ = [
    "__version__",
    "BicliqueCover",
    "CapExceededError",
    "ClusterPermError",
    "ConfidenceInterval",
    "CyclicGroup",
    "DegenerateInputError",
    "DimensionError",
    "DuplicateCellError",
    "DyadArray",
    "EmptyMaskError",
    "GroupError",
    "GridSpec",
    "InsufficientDimensionError",
    "IrregularResult",
    "McSummary",
    "MissingDataError",
    "MultiIndexDataset",
    "NoEligibleCellsError",
    "NonFiniteInputError",
    "ParseError",
    "PermutationFamily",
    "PreparedTest",
    "RandomEffectsSpec",
    "ResidualProjector",
    "ResolutionError",
    "StackedDesign",
    "TestReport",
    "TwoWayPermutation",
    "UnbalancedError",
    "VarianceBudgetError",
    "biclique_decompose",
    "biclique_growth_experiment",
    "block_product_group",
    "blockwise_test",
    "build_cyclic_family",
    "build_two_way_group",
    "compose",
    "composition_law_holds",
    "default_num_perms",
    "dyadic_ci",
    "dyadic_layout",
    "dyadic_test",
    "fixed_point_free",
    "gen_dyadic_dataset",
    "gen_mcar_mask",
    "gen_random_effects",
    "gen_semisynthetic_errors",
    "ingest_csv",
    "ingest_mask_csv",
    "invert_ci",
    "irregular_test",
    "layout_test",
    "max_biclique_exact",
    "max_biclique_greedy",
    "max_square_side",
    "mc_rejection_rate",
    "median_pvalue",
    "minorization_gap_suite",
    "panel_test",
    "permutation_test",
    "row_index",
    "residual_projector",
    "shifted_test",
    "stack_blocks",
    "suggest_cell_threshold",
    "threeway_test",
    "two_way_test",
    "verify_group",
]

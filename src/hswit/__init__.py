"""Entanglement witnesses and Bell operators for n-qubit states.

Everything is built on the Hilbert-Schmidt decomposition over Pauli
strings: states become coefficient tables R_s = Tr(rho sigma_s),
operators stay coefficient tables, and expectation values reduce to
coefficient dot products.  On top of that the package provides exact
classical (local hidden variable) bounds, product-state maxima for
witness offsets, and white-noise robustness thresholds, with a catalog
of reference states whose benchmark numbers are pinned by tests.
"""

from .hs import HSOperator, hs_decompose, hs_reconstruct, overlap
from .lhv_bound import BoundResult, LHVAssignment, classical_bound
from .pauli_core import CapacityError, DensityMatrix, InvalidStateError, qubit_cap
from .product_max import (
    AlphaResult,
    Ascent,
    alpha_grid_oracle,
    alpha_max,
    ascend,
)
from .states import (
    CatalogEntry,
    ProductState,
    catalog,
    cluster4,
    ghz,
    mds,
    mds_g_operator,
    mix_white_noise,
    product_state,
    w_state,
)
from .witness import (
    Witness,
    WitnessIneffectiveError,
    WitnessReport,
    analyze,
    build_witness,
    eval_witness,
    mds_entanglement_threshold,
    pcrit_bell,
    pcrit_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaResult",
    "Ascent",
    "BoundResult",
    "CapacityError",
    "CatalogEntry",
    "DensityMatrix",
    "HSOperator",
    "InvalidStateError",
    "LHVAssignment",
    "ProductState",
    "Witness",
    "WitnessIneffectiveError",
    "WitnessReport",
    "alpha_grid_oracle",
    "alpha_max",
    "analyze",
    "ascend",
    "build_witness",
    "catalog",
    "classical_bound",
    "cluster4",
    "eval_witness",
    "ghz",
    "hs_decompose",
    "hs_reconstruct",
    "mds",
    "mds_entanglement_threshold",
    "mds_g_operator",
    "mix_white_noise",
    "overlap",
    "pcrit_bell",
    "pcrit_witness",
    "product_state",
    "qubit_cap",
    "w_state",
]

"""Entanglement witnesses built from product-state maxima.

For an operator G with no all-identity term, alpha = max over pure
product states of Tr(G rho_prod) gives the witness E_W = alpha I - G:
every fully separable state has Tr(E_W rho) >= 0 by convexity, so a
negative expectation certifies entanglement.  Mixing a state with white
noise, rho_p = (1 - p)/2^n I + p rho, scales every non-identity
coefficient by p, which yields the critical noise weights

    p_crit(witness) = alpha / Tr(G rho),
    p_crit(Bell)    = beta_cl / beta_qu.

A witness threshold is not in general tight against separability; for
the three-qubit GHZ family it happens to be (the noisy state admits an
explicit separable decomposition below it), which is why its witness
number doubles as the entanglement border there.  This module records
that as a domain fact and does not decide separability itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .hs import HSOperator, _matrix_plan, _trace_on_support, _trace_plan, hs_reconstruct, overlap, require_identity_free
from .lhv_bound import BoundResult, classical_bound
from .pauli_core import Array, DensityMatrix
from .product_max import AlphaResult, alpha_max
from .states import MDS_R_LIMIT, CatalogEntry, _mds_from_g1, mds_g_operator

MDS_THRESHOLD_R_LO = 1e-6
MDS_THRESHOLD_TOL = 1e-9  # bracket width at which the bisection stops
MDS_THRESHOLD_STARTS = 16  # ascent starts of alpha(G(1)), the one ascent of a bisection


class WitnessIneffectiveError(Exception):
    """Raised when a witness cannot detect the state it was asked about."""


@dataclass(frozen=True)
class Witness:
    """E_W = alpha I - G, with the optimization record that produced alpha."""

    g: HSOperator
    alpha_result: AlphaResult

    def __post_init__(self) -> None:
        require_identity_free(self.g)
        if self.alpha_result.argmax.n != self.g.n:
            raise ValueError(
                f"optimization ran on {self.alpha_result.argmax.n} qubits, kernel has {self.g.n}"
            )

    @property
    def alpha(self) -> float:
        return self.alpha_result.alpha

    @property
    def n(self) -> int:
        return self.g.n

    @cached_property
    def _support_plan(self) -> tuple[Array, Array]:
        """G's support plan for Tr(G rho) (``hs._trace_plan``), built on the first evaluation.

        Building it reconstructs G's dense matrix once, O(n 4^n), through a
        temporary 4^n complex matrix (16 MiB at the cap); it keeps the flat
        positions of G's nonzero entries and the entries themselves, at
        most u 2^n for G's u distinct flip masks.
        """
        return _trace_plan(self.g)


def build_witness(g: HSOperator) -> Witness:
    """Witness for an identity-free operator G, with alpha from ``alpha_max`` at its defaults.

    A precomputed search on the same G goes straight to ``Witness(g, result)``.
    """
    return Witness(g, alpha_max(g))


def eval_witness(witness: Witness, rho: DensityMatrix) -> float:
    """Tr(E_W rho) = alpha - Tr(G rho); negative values certify entanglement.

    Tr(G rho) is read from rho where G's matrix is nonzero, without
    decomposing rho.  G's nonzero entries and their positions, at most
    u 2^n for the u distinct flip masks (X and Y qubits) of its strings,
    are planned once per witness, on its first evaluation, from G's dense
    matrix: O(n 4^n) and a temporary 4^n complex matrix, 16 MiB at the
    cap.  Each call is then one gather and one dot product, O(u 2^n), at
    most O(4^n).
    """
    if rho.n != witness.n:
        raise ValueError(f"state has {rho.n} qubits, witness expects {witness.n}")
    return witness.alpha - _trace_on_support(witness._support_plan, rho)


def pcrit_bell(beta_cl: float, beta_qu: float) -> float:
    """White-noise weight above which the Bell inequality is violated.

    Values >= 1 mean the inequality is never violated at any noise level.
    """
    if beta_qu <= 0:
        raise ValueError(f"beta_qu must be positive, got {beta_qu}")
    return beta_cl / beta_qu


def pcrit_witness(alpha: float, trace_g_rho: float) -> float:
    """White-noise weight above which the witness detects the state."""
    if trace_g_rho <= alpha:
        raise WitnessIneffectiveError(
            f"Tr(G rho) = {trace_g_rho} does not exceed alpha = {alpha}; "
            "the witness never detects this state"
        )
    return alpha / trace_g_rho


def mds_entanglement_threshold() -> float:
    """Mixing coefficient where the mds witness starts detecting the family.

    The witness value at r is Tr(E_W rho(r)) = alpha(G(r)) - Tr(G(r) rho(r)).
    G(r) = r G(1) exactly, so alpha(G(r)) = r alpha(G(1)), and for r > 0
    its sign is that of f(r) = alpha(G(1)) - Tr(G(1) rho(r)).  A bisection
    makes one ascent, ``alpha_max(G(1), starts=MDS_THRESHOLD_STARTS)``, and
    one ``hs_reconstruct``, of G(1), whose matrix plans G(1)'s read
    (``hs._matrix_plan``) and builds every probe's rho(r) = (I + r G(1))/8
    the way ``mds(r)`` does.  A probe reads Tr(G(1) rho(r)) at G(1)'s
    nonzero entries; it builds no operator and runs no ascent.  The bracket is
    [MDS_THRESHOLD_R_LO, MDS_R_LIMIT] and the bisection stops once it is
    MDS_THRESHOLD_TOL wide.  No closed form of the crossing is assumed.
    Values of f that do not change sign across the bracket raise
    ``ValueError``, and so does an ascent whose best value is not finite.
    """
    r_lo, r_hi = MDS_THRESHOLD_R_LO, MDS_R_LIMIT
    g1 = mds_g_operator(1.0)
    alpha1 = alpha_max(g1, starts=MDS_THRESHOLD_STARTS).alpha
    g1_matrix = hs_reconstruct(g1)
    plan = _matrix_plan(g1_matrix)

    def witness_value(r: float) -> float:
        return alpha1 - _trace_on_support(plan, _mds_from_g1(g1_matrix, r))

    lo_val = witness_value(r_lo)
    hi_val = witness_value(r_hi)
    if lo_val <= 0 or hi_val >= 0:
        raise ValueError(
            f"witness values do not bracket a crossing: f({r_lo}) = {lo_val}, f({r_hi}) = {hi_val}"
        )
    lo, hi = r_lo, r_hi
    while hi - lo > MDS_THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if witness_value(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class WitnessReport:
    """All benchmark numbers for one catalog entry.

    Bell-side fields are None when the entry carries no Bell operator.
    The report holds computed values only; ``cli.entry_rows`` grades them
    against the entry's reference values.
    """

    name: str
    n: int
    alpha: float
    trace_g_rho: float
    witness_value: float
    pcrit_witness: float
    beta_cl: float | None
    beta_qu: float | None
    pcrit_bell: float | None
    alpha_result: AlphaResult
    bound_result: BoundResult | None

    def computed(self) -> dict[str, float]:
        """Field name -> value for every quantity this report holds."""
        out = {
            "alpha": self.alpha,
            "trace_g_rho": self.trace_g_rho,
            "witness_value": self.witness_value,
            "pcrit_witness": self.pcrit_witness,
        }
        if self.beta_cl is not None:
            out["beta_cl"] = self.beta_cl
        if self.beta_qu is not None:
            out["beta_qu"] = self.beta_qu
        if self.pcrit_bell is not None:
            out["pcrit_bell"] = self.pcrit_bell
        return out


def analyze(entry: CatalogEntry) -> WitnessReport:
    """Compute every benchmark quantity one catalog entry supports."""
    witness = build_witness(entry.g_witness)
    trace_g_rho = overlap(entry.g_witness, entry.state_coeffs)
    witness_value = witness.alpha - trace_g_rho
    pc_w = pcrit_witness(witness.alpha, trace_g_rho)

    beta_cl = beta_qu = pc_b = None
    bound = None
    if entry.bell is not None:
        bound = classical_bound(entry.bell)
        beta_cl = bound.beta_cl
        beta_qu = overlap(entry.bell, entry.state_coeffs)
        pc_b = pcrit_bell(beta_cl, beta_qu)

    return WitnessReport(
        name=entry.name,
        n=entry.n,
        alpha=witness.alpha,
        trace_g_rho=trace_g_rho,
        witness_value=witness_value,
        pcrit_witness=pc_w,
        beta_cl=beta_cl,
        beta_qu=beta_qu,
        pcrit_bell=pc_b,
        alpha_result=witness.alpha_result,
        bound_result=bound,
    )

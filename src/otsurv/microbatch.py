"""Micro-batch orchestration of the transport-based co-attention.

A pathology bag is split into seeded micro-batches; each batch is matched
against the (encoded) genomic bag by an unbalanced entropic solve.  The
co-attention through the coupling and the dense comparison arm live on the
tape, in ``train.case_forward``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bags import check_fields
from .errors import ConfigError, ParameterError
from .transport import (COST_METRICS, SolverSettings, TransportPlan, build_cost,
                        normalize_cost, solve_exact_emd, sinkhorn, unbalanced_sinkhorn,
                        uniform_marginals)

# Each solver by name, called on a cost, its marginals and an
# :class:`OTSettings`.  The scaling solvers run to ``transport.MAX_ITERS`` at
# ``transport.TOLERANCE``.
SOLVERS = {
    "uot": lambda C, marg, s: unbalanced_sinkhorn(C, marg, s.epsilon, s.tau),
    "sinkhorn": lambda C, marg, s: sinkhorn(C, marg, s.epsilon),
    "emd": lambda C, marg, s: solve_exact_emd(C, marg),
}
DEFAULT_SOLVER = "uot"

# Each attention mode by name, with the solver its couplings come from;
# ``dense`` attends without transport.
ATTENTION_MODES = {"umbot": "uot", "emd": "emd", "dense": None}


@dataclass(frozen=True)
class OTSettings:
    """The transport problem of a micro-batch, declared once and checked when
    built (``bags.check_fields``, by :class:`SolverSettings`' epsilon and tau
    rules); ``ExperimentConfig`` extends it; :func:`solve_batch` takes the solver."""

    epsilon: float = 0.05
    tau: float = 0.5
    cost_metric: str = "l2"
    normalize_cost: bool = True

    CHOICES = {"cost_metric": COST_METRICS}
    LEAST = SolverSettings.LEAST
    ABOVE = SolverSettings.ABOVE

    def __post_init__(self):
        check_fields(self, ConfigError)


def sample_micro_batches(M_p: int, m: int, seed: int) -> list[np.ndarray]:
    """Seeded uniform permutation of [0, M_p) split into chunks of size m.

    The last chunk may be smaller.  When a single chunk covers the whole bag
    (m >= M_p) the natural index order is kept, so the micro-batched pipeline
    is bit-identical to an unbatched solve.
    """
    if m <= 0:
        raise ParameterError(f"micro-batch size must be >= 1, got {m}")
    if M_p < 1:
        raise ParameterError(f"bag size must be >= 1, got {M_p}")
    if m >= M_p:
        return [np.arange(M_p)]
    perm = np.random.default_rng(seed).permutation(M_p)
    return [perm[k:k + m] for k in range(0, M_p, m)]


def solve_batch(batch_features: np.ndarray, genomic_features: np.ndarray,
                settings: OTSettings, solver: str = DEFAULT_SOLVER) -> TransportPlan:
    """One ``solver`` solve between a pathology micro-batch and the genomic bag."""
    if solver not in SOLVERS:
        raise ParameterError(f"unknown solver {solver!r}")
    C = build_cost(batch_features, genomic_features, settings.cost_metric)
    if settings.normalize_cost:
        C = normalize_cost(C)
    marg = uniform_marginals(batch_features.shape[0], genomic_features.shape[0])
    return SOLVERS[solver](C, marg, settings)

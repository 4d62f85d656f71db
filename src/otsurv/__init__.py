"""Optimal-transport co-attention for multimodal multiple-instance
survival prediction: transport solvers, micro-batched co-attention, a small
manually-differentiated model stack, and survival statistics."""

from .bags import (CaseManifest, GenomicProfile, InstanceBag, SurvivalRecord,
                   discretize_times, generate_synthetic_dataset, load_bag,
                   load_manifest, save_bag)
from .config import ExperimentConfig, load_config
from .microbatch import OTSettings, sample_micro_batches
from .survival import (KMCurve, LogrankResult, c_index, km_estimate, logrank,
                       median_split, survival_from_hazard)
from .transport import (CostMatrix, Marginals, SolverSettings, TransportPlan,
                        build_cost, normalize_cost, sinkhorn, solve_exact_emd,
                        unbalanced_sinkhorn, uniform_marginals)

__version__ = "0.1.0"

__all__ = [
    "CaseManifest", "GenomicProfile", "InstanceBag", "SurvivalRecord",
    "discretize_times", "generate_synthetic_dataset", "load_bag",
    "load_manifest", "save_bag",
    "ExperimentConfig", "load_config",
    "OTSettings", "sample_micro_batches",
    "KMCurve", "LogrankResult", "c_index", "km_estimate", "logrank",
    "median_split", "survival_from_hazard",
    "CostMatrix", "Marginals", "SolverSettings", "TransportPlan", "build_cost",
    "normalize_cost", "sinkhorn", "solve_exact_emd", "unbalanced_sinkhorn",
    "uniform_marginals",
    "__version__",
]

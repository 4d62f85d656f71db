"""Solver benchmark direction and the ablation CSV."""

import time

import numpy as np
import pytest

from otsurv.bags import generate_synthetic_dataset
from otsurv.config import ExperimentConfig
from otsurv.errors import ParameterError
from otsurv.train import ablation_sweep, bench_solves, load_cases
from otsurv.transport import build_cost, solve_exact_emd, uniform_marginals


def test_bench_rows_and_linear_growth():
    rows = bench_solves([512, 1024], m=128, d=8, repeats=3)
    assert [r[0] for r in rows] == [512, 1024]
    for M, secs, ips in rows:
        assert secs > 0
        assert ips == M / secs


def test_bench_rejects_dim_or_bag_size_below_one():
    for M_values, d in (([64], 0), ([64], -1), ([64, 0], 8), ([-5], 8)):
        with pytest.raises(ParameterError, match="need d >= 1 and every M >= 1"):
            bench_solves(M_values, m=32, d=d)


def test_whole_bag_exact_solve_slower_per_instance_than_microbatched():
    """The m = M exact solve pays superlinear cost per instance; the
    micro-batched entropic path stays flat, so at larger M the micro-batched
    per-instance rate wins."""
    rng = np.random.default_rng(0)
    genomic = rng.standard_normal((6, 8))

    def emd_per_instance(M):
        bag = rng.standard_normal((M, 8))
        C = build_cost(bag, genomic, "l2")
        marg = uniform_marginals(M, 6)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            solve_exact_emd(C, marg)
            best = min(best, time.perf_counter() - t0)
        return best / M

    emd_rate = emd_per_instance(512)
    rows = bench_solves([4096], m=128, d=8, repeats=3)
    microbatched_rate = rows[0][1] / rows[0][0]
    assert microbatched_rate < emd_rate


def test_ablation_csv_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    manifest = generate_synthetic_dataset(n_cases=14, M_p=6, M_g=3, d=8,
                                          signal_fraction=0.5, noise_scale=0.2,
                                          censor_rate=0.2, seed=12,
                                          output_dir=tmp_path / "data")
    cases = load_cases(manifest)
    config = ExperimentConfig(seed=1, folds=2, epochs=1, bins=3,
                              grad_accum_steps=8)
    ablation_sweep(cases, config, [3], ["umbot"], out1)
    ablation_sweep(cases, config, [3], ["umbot"], out2)
    assert (out1 / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()

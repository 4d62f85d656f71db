"""Data model, file formats, synthetic generation, discretization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsurv.bags import (CaseManifest, GenomicProfile, InstanceBag,
                         SurvivalRecord, assign_bin, discretize_times,
                         generate_synthetic_dataset, load_bag,
                         load_genomic_profile, load_manifest, load_tensor64,
                         save_bag, save_genomic_profile, tensor64_bytes)
from otsurv.errors import DataError, FormatError, ParameterError


def test_bag_validation_rejects_nan():
    with pytest.raises(DataError):
        InstanceBag(np.array([[1.0, np.nan]]), "pathology", "x")


def test_bag_validation_rejects_empty():
    with pytest.raises(DataError):
        InstanceBag(np.zeros((0, 3)), "pathology", "x")


def test_csv_zero_bag_roundtrip(tmp_path):
    bag = InstanceBag(np.zeros((2, 3)), "pathology", "z")
    path = tmp_path / "z.csv"
    save_bag(bag, path, "csv")
    loaded = load_bag(path, "csv")
    assert loaded.features.shape == (2, 3)
    assert np.all(loaded.features == 0.0)


def test_binary_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    bag = InstanceBag(feats, "pathology", "b")
    path = tmp_path / "b.fbag"
    save_bag(bag, path, "binary")
    loaded = load_bag(path, "binary")
    assert np.array_equal(loaded.features, feats)
    # and the file itself is stable under a second round trip
    save_bag(loaded, tmp_path / "b2.fbag", "binary")
    assert (tmp_path / "b.fbag").read_bytes() == (tmp_path / "b2.fbag").read_bytes()


def test_csv_roundtrip_9_digits(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((4, 3)) * 100
    save_bag(InstanceBag(feats, "pathology", "c"), tmp_path / "c.csv", "csv")
    loaded = load_bag(tmp_path / "c.csv", "csv")
    assert np.allclose(loaded.features, feats, rtol=1e-6, atol=0)


def test_csv_ragged_rows_is_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,f2\n1,2,3\n4,5,6,7\n")
    with pytest.raises(FormatError):
        load_bag(path, "csv")


def test_binary_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.fbag"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_bag(path, "binary")
    good = tmp_path / "short.fbag"
    save_bag(InstanceBag(np.ones((3, 2)), "pathology", "s"), good, "binary")
    good.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_bag(good, "binary")


def test_binary_nan_payload_is_data_error(tmp_path):
    feats = np.ones((2, 2), dtype=np.float32)
    path = tmp_path / "nan.fbag"
    save_bag(InstanceBag(feats.astype(float), "pathology", "n"), path, "binary")
    raw = bytearray(path.read_bytes())
    raw[12:16] = np.float32("nan").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_bag(path, "binary")


def test_tensor64_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((3, 4))
    (tmp_path / "t.bin").write_bytes(tensor64_bytes(arr))
    assert np.array_equal(load_tensor64(tmp_path / "t.bin"), arr)


def test_genomic_profile_roundtrip(tmp_path):
    profile = GenomicProfile([("a", np.array([1.0, 2.0])),
                              ("b", np.array([3.0, 4.0, 5.0]))], "p")
    save_genomic_profile(profile, tmp_path / "p.csv")
    loaded = load_genomic_profile(tmp_path / "p.csv",
                                  category_spec=[("a", 2), ("b", 3)])
    assert loaded.attr_dims() == [2, 3]
    for (n0, a0), (n1, a1) in zip(profile.categories, loaded.categories):
        assert n0 == n1
        assert np.allclose(a0, a1, rtol=1e-6)


def test_genomic_profile_duplicate_names_rejected():
    with pytest.raises(DataError):
        GenomicProfile([("a", np.ones(2)), ("a", np.ones(3))])


def test_survival_record_validation():
    with pytest.raises(DataError):
        SurvivalRecord(-1.0, 0)
    with pytest.raises(DataError):
        SurvivalRecord(1.0, 2)


def test_manifest_unique_ids():
    from otsurv.bags import CaseEntry

    entry = CaseEntry("dup", "x", "y", 1.0, 0)
    with pytest.raises(DataError):
        CaseManifest([entry, entry], 4, [("a", 2)])


# ---------------------------------------------------------------------------
# Synthetic generator


def test_generator_deterministic(tmp_path):
    kwargs = dict(n_cases=12, M_p=8, M_g=3, d=8, signal_fraction=0.5,
                  noise_scale=0.3, censor_rate=0.2, seed=7)
    generate_synthetic_dataset(output_dir=tmp_path / "a", **kwargs)
    generate_synthetic_dataset(output_dir=tmp_path / "b", **kwargs)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generator_zero_noise_signal_instances_hit_prototypes(tmp_path):
    man = generate_synthetic_dataset(n_cases=10, M_p=10, M_g=2, d=6,
                                     signal_fraction=0.5, noise_scale=0.0,
                                     censor_rate=0.0, seed=3,
                                     output_dir=tmp_path)
    # 5 signal instances from 2 prototypes: feature rows must repeat exactly.
    bag = load_bag(man.resolve(man.cases[0].pathology_feature_path), "binary")
    uniq = np.unique(bag.features, axis=0)
    # 2 prototypes + 5 background rows = at most 7 distinct rows
    assert uniq.shape[0] <= 7


def test_generator_zero_noise_time_strictly_monotone_in_risk(tmp_path):
    man = generate_synthetic_dataset(n_cases=120, M_p=6, M_g=3, d=6,
                                     signal_fraction=0.5, noise_scale=0.0,
                                     censor_rate=0.0, seed=5,
                                     output_dir=tmp_path)
    latents = {}
    with open(tmp_path / "latents.csv") as fh:
        fh.readline()
        for line in fh:
            case_id, r = line.strip().split(",")
            latents[case_id] = float(r)
    risks = np.array([latents[c.case_id] for c in man.cases])
    times = np.array([c.time_months for c in man.cases])
    # Spearman rank correlation is exactly -1: time ranks invert risk ranks.
    rank_r = np.argsort(np.argsort(risks))
    rank_t = np.argsort(np.argsort(times))
    assert np.array_equal(rank_t, len(times) - 1 - rank_r)


def test_generator_censor_fraction_within_binomial_interval(tmp_path):
    # 99% two-sided binomial interval for p=0.3, n=200 computed from the
    # normal approximation: 0.3 +/- 2.576 * sqrt(0.3*0.7/200)
    man = generate_synthetic_dataset(n_cases=200, M_p=6, M_g=3, d=6,
                                     signal_fraction=0.5, noise_scale=0.2,
                                     censor_rate=0.3, seed=17,
                                     output_dir=tmp_path)
    frac = np.mean([c.censor for c in man.cases])
    half = 2.576 * math.sqrt(0.3 * 0.7 / 200)
    assert 0.3 - half <= frac <= 0.3 + half
    assert 0.22 <= frac <= 0.38


def test_generator_parameter_validation(tmp_path):
    with pytest.raises(ParameterError):
        generate_synthetic_dataset(5, 8, 3, 4, 0.5, 0.1, 0.1, 0, tmp_path)
    with pytest.raises(ParameterError):
        generate_synthetic_dataset(12, 2, 3, 4, 0.5, 0.1, 0.1, 0, tmp_path)
    with pytest.raises(ParameterError):
        generate_synthetic_dataset(12, 8, 3, 4, 1.5, 0.1, 0.1, 0, tmp_path)
    with pytest.raises(ParameterError):
        generate_synthetic_dataset(12, 8, 3, 4, 0.5, 0.1, 1.0, 0, tmp_path)


def test_manifest_roundtrip_and_validation(tmp_path):
    man = generate_synthetic_dataset(n_cases=10, M_p=6, M_g=3, d=5,
                                     signal_fraction=0.4, noise_scale=0.2,
                                     censor_rate=0.2, seed=2,
                                     output_dir=tmp_path)
    loaded = load_manifest(tmp_path / "manifest.json")
    assert loaded.feature_dim == 5
    assert [c.case_id for c in loaded.cases] == [c.case_id for c in man.cases]
    # deleting a referenced file must fail validation
    (tmp_path / man.cases[0].pathology_feature_path).unlink()
    with pytest.raises(FormatError):
        load_manifest(tmp_path / "manifest.json")


# ---------------------------------------------------------------------------
# Discretization


def test_discretize_median_split():
    records = [SurvivalRecord(t, 0) for t in (1.0, 2.0, 3.0, 4.0)]
    edges, out = discretize_times(records, 2)
    assert edges.shape == (1,)
    assert edges[0] == pytest.approx(2.5)
    assert [r.bin for r in out] == [0, 0, 1, 1]


def test_discretize_all_equal_warns():
    records = [SurvivalRecord(5.0, 0) for _ in range(6)]
    with pytest.warns(UserWarning, match="degenerate"):
        edges, out = discretize_times(records, 3)
    assert all(r.bin == 0 for r in out)


def test_discretize_requires_enough_uncensored():
    records = [SurvivalRecord(1.0, 1) for _ in range(10)]
    with pytest.raises(DataError):
        discretize_times(records, 2)


def test_discretize_matches_quantile_oracle():
    rng = np.random.default_rng(8)
    times = rng.uniform(1, 100, size=20)
    censor = (rng.uniform(size=20) < 0.3).astype(int)
    records = [SurvivalRecord(float(t), int(c)) for t, c in zip(times, censor)]
    n_bins = 4
    edges, out = discretize_times(records, n_bins)
    uncens = np.sort(times[censor == 0])
    expected_edges = [np.quantile(uncens, k / n_bins) for k in range(1, n_bins)]
    assert np.allclose(edges, expected_edges)
    for rec in out:
        assert rec.bin == sum(rec.time_months > e for e in edges)


@given(st.lists(st.floats(min_value=0, max_value=1000), min_size=6, max_size=40),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_bin_index_nondecreasing_in_time(times, n_bins):
    records = [SurvivalRecord(t, 0) for t in times]
    if len(times) < n_bins:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tied quantiles are fine here
        edges, out = discretize_times(records, n_bins)
    ordered = sorted(out, key=lambda r: r.time_months)
    bins = [r.bin for r in ordered]
    assert bins == sorted(bins)
    assert all(0 <= b < n_bins for b in bins)


def test_assign_bin_consistent_with_discretize():
    records = [SurvivalRecord(float(t), 0) for t in range(1, 13)]
    edges, out = discretize_times(records, 3)
    for rec in out:
        assert assign_bin(edges, rec.time_months) == rec.bin

"""Data model, file formats, synthetic generation, discretization."""

import dataclasses
import functools
import json
import math
import operator
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failing_writes import fail_writes_to, files_under
from otsurv.bags import (CaseEntry, CaseManifest, CategoryEntry, GenomicProfile,
                         InstanceBag, SurvivalRecord, assign_bin, discretize_times,
                         generate_synthetic_dataset, load_bag,
                         load_genomic_profile, load_manifest, read_csv, save_bag,
                         save_genomic_profile, save_manifest, write_csv)
from otsurv.config import ExperimentConfig, load_config
from otsurv.errors import ConfigError, DataError, FormatError, ParameterError
from otsurv.neural import init_params, load_checkpoint, save_checkpoint
from otsurv.train import load_cases


def test_bag_validation_rejects_nan():
    with pytest.raises(DataError):
        InstanceBag(np.array([[1.0, np.nan]]), "x")


def test_bag_validation_rejects_empty():
    with pytest.raises(DataError):
        InstanceBag(np.zeros((0, 3)), "x")


def test_csv_zero_bag_roundtrip(tmp_path):
    bag = InstanceBag(np.zeros((2, 3)), "z")
    path = tmp_path / "z.csv"
    save_bag(bag, path)
    loaded = load_bag(path)
    assert loaded.features.shape == (2, 3)
    assert np.all(loaded.features == 0.0)


def test_binary_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64)
    bag = InstanceBag(feats, "b")
    path = tmp_path / "b.fbag"
    save_bag(bag, path)
    loaded = load_bag(path)
    assert np.array_equal(loaded.features, feats)
    # and the file itself is stable under a second round trip
    save_bag(loaded, tmp_path / "b2.fbag")
    assert (tmp_path / "b.fbag").read_bytes() == (tmp_path / "b2.fbag").read_bytes()


def test_csv_roundtrip_9_digits(tmp_path):
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((4, 3)) * 100
    save_bag(InstanceBag(feats, "c"), tmp_path / "c.csv")
    loaded = load_bag(tmp_path / "c.csv")
    assert np.allclose(loaded.features, feats, rtol=1e-6, atol=0)


def test_csv_ragged_rows_is_format_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,f2\n1,2,3\n4,5,6,7\n")
    with pytest.raises(FormatError):
        load_bag(path)


@pytest.mark.parametrize("text, message", [
    ("f0,f1,f2\n1,2,3\n\n\n4,5,6,7\n", "bad.csv:5: 4 fields, header has 3"),
    ("f0,f1,f2\n\n1,2,3\n\nx,5,6\n", "bad.csv:5: could not convert"),
], ids=["ragged", "not a number"])
def test_csv_error_names_physical_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=message):
        load_bag(path)


def test_csv_cell_with_a_line_break_reads_back_whole(tmp_path):
    # Cells that str.splitlines() split: "\n" inside a quoted cell was dropped,
    # and the others made two rows out of one.
    for k, cell in enumerate(["a\nb", "a\r\nb", "a\x0bb", "a\x0cb", "a\x1cb",
                              "a\x85b", "a\u2028b"]):
        path = write_csv(tmp_path / f"cell{k}.csv", [("id", "x"), (cell, 1.5), ("z", 2.5)])
        line = 2 + cell.count("\n")  # the physical line the row ends on
        assert read_csv(path) == (["id", "x"], [(line, [cell, "1.5"]),
                                                (line + 1, ["z", "2.5"])])
    # csv.writer leaves a lone "\r" unquoted, so it cannot be read back.
    with pytest.raises(FormatError, match="lone.csv:2: 1 fields, header has 2"):
        read_csv(write_csv(tmp_path / "lone.csv", [("id", "x"), ("a\rb", 1.5)]))


def test_binary_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.fbag"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="no FBAG magic b'FBAG' \\(starts with b'NOPE'\\)"):
        load_bag(path)
    good = tmp_path / "short.fbag"
    save_bag(InstanceBag(np.ones((3, 2)), "s"), good)
    good.write_bytes(good.read_bytes()[:-4])
    with pytest.raises(FormatError):
        load_bag(good)


def test_binary_nan_payload_is_data_error(tmp_path):
    feats = np.ones((2, 2), dtype=np.float32)
    path = tmp_path / "nan.fbag"
    save_bag(InstanceBag(feats.astype(float), "n"), path)
    raw = bytearray(path.read_bytes())
    raw[12:16] = np.float32("nan").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="non-finite") as err:
        load_bag(path)
    assert str(path) in str(err.value)


def test_load_bag_reads_the_format_off_the_magic_not_the_name(tmp_path):
    feats = np.arange(6.0).reshape(3, 2)
    save_bag(InstanceBag(feats, "a"), tmp_path / "a.fbag")
    save_bag(InstanceBag(feats, "b"), tmp_path / "b.csv")
    (tmp_path / "a.fbag").rename(tmp_path / "fbag_named.csv")
    (tmp_path / "b.csv").rename(tmp_path / "csv_named.fbag")
    for name in ("fbag_named.csv", "csv_named.fbag"):
        loaded = load_bag(tmp_path / name, case_id="c")
        assert np.array_equal(loaded.features, feats)
        assert loaded.case_id == "c"


def test_save_bag_rejects_a_suffix_of_neither_format(tmp_path):
    with pytest.raises(ParameterError, match="must end in .csv or .fbag"):
        save_bag(InstanceBag(np.ones((2, 2)), "x"), tmp_path / "x.bin")
    assert files_under(tmp_path) == {}


def test_genomic_profile_roundtrip(tmp_path):
    profile = GenomicProfile([("a", np.array([1.0, 2.0])),
                              ("b", np.array([3.0, 4.0, 5.0]))], "p")
    save_genomic_profile(profile, tmp_path / "p.csv")
    loaded = load_genomic_profile(tmp_path / "p.csv",
                                  category_spec=[CategoryEntry("a", 2),
                                                 CategoryEntry("b", 3)])
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


@pytest.mark.parametrize("args, field", [
    ((True, True), "time_months"), ((True, 0), "time_months"), ((1.0, True), "censor"),
    ((1.0, 0.0), "censor"), ((math.nan, 0), "time_months"), ((math.inf, 0), "time_months"),
    ((1.0, 0, True), "bin"), ((1.0, 0, -1), "bin"), ((1.0, 0, 1.5), "bin"),
], ids=["bools", "time-bool", "censor-bool", "censor-float", "time-nan", "time-inf",
        "bin-bool", "bin-negative", "bin-fraction"])
def test_survival_record_checks_each_field_by_its_type(args, field):
    # A bool passes math.isfinite and ``in (0, 1)``; the label's fields are
    # checked by type, as a manifest row's are.
    with pytest.raises(DataError, match=field):
        SurvivalRecord(*args)


def test_survival_record_keeps_a_missing_bin_and_plain_numbers():
    record = SurvivalRecord(np.float64(2.5), np.int64(1), np.int64(3))
    assert (record.time_months, record.censor, record.bin) == (2.5, 1, 3)
    assert [type(v) for v in (record.time_months, record.censor, record.bin)] \
        == [float, int, int]
    assert SurvivalRecord(2.5, 0).bin is None


def test_manifest_unique_ids():
    entry = CaseEntry("dup", "x", "y", 1.0, 0)
    with pytest.raises(DataError):
        CaseManifest([entry, entry], 4, [CategoryEntry("a", 2)])


# ---------------------------------------------------------------------------
# Resident precision: a bag stays at the precision its file stores


@pytest.mark.parametrize("dtype, held", [(np.float32, np.float32), (np.float64, np.float64),
                                         (np.int64, np.float64), (np.float16, np.float64)])
def test_instance_bag_keeps_float32_and_float64_and_widens_the_rest(dtype, held):
    bag = InstanceBag(np.arange(6).reshape(3, 2).astype(dtype), "x")
    assert bag.features.dtype == held
    assert np.array_equal(bag.features, np.arange(6.0).reshape(3, 2))


def test_load_cases_holds_fbag_bags_at_4_bytes_per_value(tmp_path):
    M_p, d = 9, 5
    man = generate_synthetic_dataset(n_cases=10, M_p=M_p, M_g=3, d=d,
                                     signal_fraction=0.5, noise_scale=0.2,
                                     censor_rate=0.2, seed=4, output_dir=tmp_path)
    for case in load_cases(man):
        assert case.pathology_raw.dtype == np.float32
        assert case.pathology_raw.nbytes == 4 * M_p * d


def test_csv_bag_loads_as_float64(tmp_path):
    feats = np.random.default_rng(2).standard_normal((4, 3))
    save_bag(InstanceBag(feats, "c"), tmp_path / "c.csv")
    assert load_bag(tmp_path / "c.csv").features.dtype == np.float64


def test_float32_bag_and_its_float64_copy_save_the_same_csv(tmp_path):
    feats = np.random.default_rng(3).standard_normal((5, 4)).astype(np.float32)
    save_bag(InstanceBag(feats, "s"), tmp_path / "single.csv")
    save_bag(InstanceBag(feats.astype(np.float64), "d"), tmp_path / "double.csv")
    assert (tmp_path / "single.csv").read_bytes() == (tmp_path / "double.csv").read_bytes()


def test_load_bag_reads_a_csv_bag_once(tmp_path, monkeypatch):
    save_bag(InstanceBag(np.arange(6.0).reshape(3, 2), "a"), tmp_path / "a.csv")
    reads = []
    real = Path.read_bytes

    def counting(self):
        reads.append(self.name)
        return real(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    load_bag(tmp_path / "a.csv")
    assert reads == ["a.csv"]


def test_fbag_load_then_save_rewrites_the_file_byte_for_byte(tmp_path):
    man = generate_synthetic_dataset(n_cases=10, M_p=7, M_g=2, d=4,
                                     signal_fraction=0.5, noise_scale=0.2,
                                     censor_rate=0.2, seed=8, output_dir=tmp_path)
    for entry in man.cases:
        path = man.resolve(entry.pathology_feature_path)
        save_bag(load_bag(path), tmp_path / "again.fbag")
        assert (tmp_path / "again.fbag").read_bytes() == path.read_bytes()


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
    bag = load_bag(man.resolve(man.cases[0].pathology_feature_path))
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


def test_generator_rejects_dim_below_one(tmp_path):
    for d in (0, -2):
        with pytest.raises(ParameterError, match="d must be >= 1"):
            generate_synthetic_dataset(12, 8, 3, d, 0.5, 0.1, 0.1, 0, tmp_path)
    assert files_under(tmp_path) == {}


def test_manifest_roundtrip_and_validation(tmp_path):
    man = generate_synthetic_dataset(n_cases=10, M_p=6, M_g=3, d=5,
                                     signal_fraction=0.4, noise_scale=0.2,
                                     censor_rate=0.2, seed=2,
                                     output_dir=tmp_path)
    loaded = load_manifest(tmp_path / "manifest.json")
    assert loaded.feature_dim == 5
    assert [c.case_id for c in loaded.cases] == [c.case_id for c in man.cases]
    # deleting a referenced file must fail when the cases are read
    (tmp_path / man.cases[0].pathology_feature_path).unlink()
    with pytest.raises(FormatError):
        load_cases(load_manifest(tmp_path / "manifest.json"))


@pytest.mark.parametrize("field, value", [(None, None), ("dim", "abc"),
                                          ("time_months", "soon")],
                         ids=["not utf-8", "dim", "time_months"])
def test_manifest_malformed_is_format_error_naming_file(tmp_path, field, value):
    generate_synthetic_dataset(n_cases=10, M_p=6, M_g=3, d=5, signal_fraction=0.4,
                               noise_scale=0.2, censor_rate=0.2, seed=2,
                               output_dir=tmp_path)
    path = tmp_path / "manifest.json"
    if field is None:
        path.write_bytes(b"\xff\xfe{}")
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        entry = doc["category_spec"][0] if field == "dim" else doc["cases"][0]
        entry[field] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(FormatError, match="manifest.json"):
        load_manifest(path)


def test_manifest_save_load_rewrites_a_generated_manifest_byte_for_byte(tmp_path):
    generate_synthetic_dataset(n_cases=10, M_p=6, M_g=3, d=5, signal_fraction=0.4,
                               noise_scale=0.2, censor_rate=0.2, seed=2,
                               output_dir=tmp_path)
    path = tmp_path / "manifest.json"
    saved = save_manifest(load_manifest(path), tmp_path / "again.json")
    assert saved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("field, value", [
    ("feature_dim", 4.9), ("feature_dim", True), ("feature_dim", "64"),
    ("feature_dim", 0), ("feature_dim", -3),
    ("dim", True), ("dim", 1.5), ("dim", 0),
], ids=["feature-dim-fraction", "feature-dim-bool", "feature-dim-str", "feature-dim-0",
        "feature-dim-negative", "dim-bool", "dim-fraction", "dim-0"])
def test_manifest_header_of_the_wrong_type_is_format_error(tmp_path, field, value):
    # int() read a feature_dim of 4.9 as 4 and a category dim of true as 1.
    path = save_manifest(CaseManifest([CaseEntry("c0", "p.fbag", "g.csv", 12.5, 1)], 4,
                                      [CategoryEntry("a", 2)]), tmp_path / "manifest.json")
    doc = json.loads(path.read_text())
    (doc["category_spec"][0] if field == "dim" else doc)[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"manifest.json.*{field}"):
        load_manifest(path)


@pytest.mark.parametrize("value", [5, "ab", {}], ids=["int", "str", "object"])
@pytest.mark.parametrize("key", ["cases", "category_spec"])
def test_manifest_row_list_that_is_not_a_list_is_format_error(tmp_path, key, value):
    # 5 failed as "'int' object is not iterable", "ab" was read one character
    # at a time, and {} loaded as no rows: none of them named the key.
    path = save_manifest(CaseManifest([CaseEntry("c0", "p.fbag", "g.csv", 12.5, 1)], 4,
                                      [CategoryEntry("a", 2)]), tmp_path / "manifest.json")
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"manifest.json: {key} must be a JSON list, "
                                          f"got {type(value).__name__}$"):
        load_manifest(path)


def test_manifest_writes_numpy_scalars_as_python_numbers(tmp_path):
    spec = [CategoryEntry("a", 2)]
    plain = CaseManifest([CaseEntry("c0", "p.fbag", "g.csv", 12.5, 1)], 4, spec)
    scalars = CaseManifest([CaseEntry("c0", "p.fbag", "g.csv", np.float64(12.5),
                                      np.int64(1))], 4, spec)
    save_manifest(plain, tmp_path / "plain.json")
    save_manifest(scalars, tmp_path / "scalars.json")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "scalars.json").read_bytes()
    assert load_manifest(tmp_path / "scalars.json").cases == plain.cases
    assert [type(v) for v in (scalars.cases[0].time_months, scalars.cases[0].censor)] \
        == [float, int]


def test_case_entry_rejects_a_time_that_is_not_a_number():
    with pytest.raises(DataError, match="time_months"):
        CaseEntry("c0", "p.fbag", "g.csv", "soon", 0)


@pytest.mark.parametrize("key, value", [
    ("censor", 0.7), ("censor", True), ("censor", 7),
    ("time_months", True), ("time_months", "12.5"), ("time_months", -1.0),
])
def test_case_entry_built_in_code_checks_rather_than_converts(key, value):
    # int() and float() used to turn a censor of 0.7 into an observed death,
    # and save_manifest wrote a censor of 7 that load_manifest then rejected.
    row = {"time_months": 12.5, "censor": 1, key: value}
    with pytest.raises(DataError, match=key):
        CaseEntry("c0", "p.fbag", "g.csv", **row)


@pytest.mark.parametrize("key, value", [
    ("censor", 0.7), ("censor", 1.0), ("censor", True), ("censor", "1"), ("censor", 2),
    ("time_months", True), ("time_months", "12.5"), ("case_id", 7),
], ids=["censor-fraction", "censor-float", "censor-bool", "censor-str", "censor-2",
        "time-bool", "time-str", "case-id-int"])
def test_manifest_row_of_the_wrong_type_is_format_error(tmp_path, key, value):
    # int() and float() would read 0.7 as an observed death and true as 1.0
    # months; a bool is not a number here, as in a config file.
    path = save_manifest(CaseManifest([CaseEntry("c0", "p.fbag", "g.csv", 12.5, 1)], 4,
                                      [CategoryEntry("a", 2)]), tmp_path / "manifest.json")
    doc = json.loads(path.read_text())
    doc["cases"][0][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"manifest.json.*{key}"):
        load_manifest(path)


def test_failed_manifest_write_keeps_previous_file(tmp_path, monkeypatch):
    man = generate_synthetic_dataset(n_cases=10, M_p=6, M_g=3, d=5,
                                     signal_fraction=0.4, noise_scale=0.2,
                                     censor_rate=0.2, seed=2, output_dir=tmp_path)
    before = files_under(tmp_path)
    target = tmp_path / "manifest.json"
    fail_writes_to(monkeypatch, target)
    with pytest.raises(OSError, match="No space left"):
        save_manifest(CaseManifest(man.cases[:5], man.feature_dim, man.category_spec),
                      target)
    monkeypatch.undo()
    assert files_under(tmp_path) == before
    assert len(load_manifest(target).cases) == 10


@pytest.mark.parametrize("text", [None, "[1, 2]", "null"],
                         ids=["missing", "list", "null"])
@pytest.mark.parametrize("load, name, error", [
    (load_manifest, "manifest.json", FormatError),
    (load_config, "config.json", ConfigError),
    (lambda path: load_checkpoint(path.parent), "checkpoint.json", FormatError),
], ids=["manifest", "config", "checkpoint"])
def test_json_inputs_must_be_objects_naming_file(tmp_path, load, name, error, text):
    path = tmp_path / name
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(error, match=name):
        load(path)


def _saved_input(tmp_path, kind):
    """A valid manifest, config or checkpoint file, its reader and its error."""
    if kind == "manifest":
        path = save_manifest(CaseManifest([CaseEntry("c0", "p.fbag", "g.csv", 12.5, 1)], 4,
                                          [CategoryEntry("a", 2)]), tmp_path / "manifest.json")
        return path, load_manifest, FormatError
    if kind == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(ExperimentConfig())), encoding="utf-8")
        return path, load_config, ConfigError
    save_checkpoint(init_params(8, 8, [3], 4, seed=0), tmp_path)
    return tmp_path / "checkpoint.json", lambda path: load_checkpoint(path.parent), FormatError


@pytest.mark.parametrize("kind, where, problem, key", [
    ("manifest", (), "unknown", "feature_dims"),
    ("manifest", (), "unknown", "root"),
    ("manifest", ("category_spec", 0), "unknown", "dims"),
    ("manifest", ("cases", 0), "unknown", "censored"),
    ("checkpoint", (), "unknown", "stepp"),
    ("config", (), "repeated", "seed"),
    ("manifest", ("cases", 0), "repeated", "censor"),
    ("checkpoint", (), "repeated", "n_heads"),
    ("checkpoint", ("tensors", "proj.w"), "repeated", "shape"),
    ("manifest", ("cases", 0), "missing", "censor"),
    ("checkpoint", (), "missing", "step"),
])
def test_json_inputs_reject_unknown_repeated_and_missing_keys(tmp_path, kind, where,
                                                              problem, key):
    # json.load keeps the last of a repeated key, and the manifest and
    # checkpoint readers ignored a key that names no field ("root" is the
    # manifest's folder, never a key).
    path, load, error = _saved_input(tmp_path, kind)
    doc = json.loads(path.read_text(encoding="utf-8"))
    obj = functools.reduce(operator.getitem, where, doc)
    if problem == "unknown":
        obj[key] = 1
    elif problem == "repeated":
        obj["\0"] = obj[key]  # renamed to a second ``key`` below
    else:
        del obj[key]
    path.write_text(json.dumps(doc).replace(json.dumps("\0"), json.dumps(key)),
                    encoding="utf-8")
    with pytest.raises(error, match=f"{path.name}: .*'{key}'"):
        load(path)


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
    # No records: label_arrays' death mask is still bool, so indexing the
    # empty times with it selects nothing rather than raising IndexError.
    with pytest.raises(DataError):
        discretize_times([], 2)


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

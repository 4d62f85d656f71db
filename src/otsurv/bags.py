"""Bag data model, on-disk formats, manifests, and synthetic data generation.

A "bag" is an M x d matrix of instance feature vectors: patch embeddings for
the pathology side, per-category embeddings for the genomic side.  Two file
formats are supported for bags:

* CSV: header row ``f0,f1,...``, one instance per row, 9 significant digits.
* binary "FBAG": magic ``FBAG``, row count and column count as unsigned
  32-bit little-endian integers, then row-major 32-bit floats.

Raw genomic attributes are stored per case in a single CSV with columns
``category,value`` (attribute lengths may differ per category).  A dataset
manifest is a JSON file binding case ids to feature files and survival
labels.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError

FBAG_MAGIC = b"FBAG"
# 64-bit variant used for checkpoint tensors, where bit-exact float64
# round-trips are required.  Same layout, different payload width.
FBAG64_MAGIC = b"FBG8"

CSV_FLOAT_FMT = "%.9g"

DEFAULT_CATEGORY_NAMES = (
    "tumor_suppression",
    "oncogenesis",
    "protein_kinases",
    "cellular_differentiation",
    "transcription",
    "cytokines_and_growth",
)


@dataclass(frozen=True)
class InstanceBag:
    """An M x d matrix of instance features plus provenance metadata."""

    features: np.ndarray
    modality: str  # "pathology" | "genomic"
    case_id: str

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError(f"bag must be a 2-D matrix with M,d >= 1, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise DataError(f"bag {self.case_id!r} contains non-finite entries")
        if self.modality not in ("pathology", "genomic"):
            raise ParameterError(f"unknown modality {self.modality!r}")
        object.__setattr__(self, "features", feats)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GenomicProfile:
    """Raw per-category genomic attributes; lengths may differ per category."""

    categories: list[tuple[str, np.ndarray]]
    case_id: str = ""

    def __post_init__(self):
        names = [name for name, _ in self.categories]
        if len(set(names)) != len(names):
            raise DataError("category names must be unique")
        cats = []
        for name, attrs in self.categories:
            attrs = np.asarray(attrs, dtype=np.float64).ravel()
            if attrs.size < 1:
                raise DataError(f"category {name!r} has no attributes")
            if not np.all(np.isfinite(attrs)):
                raise DataError(f"category {name!r} contains non-finite attributes")
            cats.append((name, attrs))
        object.__setattr__(self, "categories", cats)

    def attr_dims(self) -> list[int]:
        return [attrs.size for _, attrs in self.categories]


@dataclass(frozen=True)
class SurvivalRecord:
    """Observed time in months, censor flag, and (optional) discrete bin.

    censor == 0 means the death event was observed, censor == 1 means the
    case is right-censored.  ``bin`` is None until discretization assigns it.
    """

    time_months: float
    censor: int
    bin: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.time_months) and self.time_months >= 0):
            raise DataError(f"time_months must be finite and >= 0, got {self.time_months}")
        if self.censor not in (0, 1):
            raise DataError(f"censor must be 0 or 1, got {self.censor}")


@dataclass(frozen=True)
class CaseEntry:
    case_id: str
    pathology_feature_path: str
    genomic_profile_path: str
    time_months: float
    censor: int


@dataclass(frozen=True)
class CaseManifest:
    """Dataset index binding case ids to feature files and survival labels."""

    cases: list[CaseEntry]
    feature_dim: int
    category_spec: list[tuple[str, int]]
    root: Path = field(default_factory=Path)

    def __post_init__(self):
        ids = [c.case_id for c in self.cases]
        if len(set(ids)) != len(ids):
            raise DataError("case ids must be unique")

    def records(self) -> list[SurvivalRecord]:
        return [SurvivalRecord(c.time_months, c.censor) for c in self.cases]

    def resolve(self, rel: str) -> Path:
        return self.root / rel


# ---------------------------------------------------------------------------
# Bag file formats


def save_bag(bag: InstanceBag, path, fmt: str = "binary") -> None:
    """Write a bag to disk in CSV or FBAG binary form.

    Binary payloads are 32-bit floats; matrices are cast on write, so binary
    is exact only for float32-representable values (all generated datasets
    qualify by construction).
    """
    path = Path(path)
    if fmt == "csv":
        header = ",".join(f"f{j}" for j in range(bag.dim))
        np.savetxt(path, bag.features, delimiter=",", header=header,
                   comments="", fmt=CSV_FLOAT_FMT)
    elif fmt == "binary":
        m, d = bag.features.shape
        with open(path, "wb") as fh:
            fh.write(FBAG_MAGIC)
            fh.write(struct.pack("<II", m, d))
            fh.write(np.ascontiguousarray(bag.features, dtype="<f4").tobytes())
    else:
        raise ParameterError(f"unknown bag format {fmt!r}")


def load_bag(path, fmt: str = "binary", modality: str = "pathology",
             case_id: str = "") -> InstanceBag:
    """Load a bag from disk; validates shape and finiteness."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"bag file does not exist: {path}")
    if fmt == "csv":
        feats = _load_csv_matrix(path)
    elif fmt == "binary":
        feats = _load_fbag(path)
    else:
        raise ParameterError(f"unknown bag format {fmt!r}")
    if not np.all(np.isfinite(feats)):
        raise DataError(f"bag file {path} contains NaN/Inf entries")
    return InstanceBag(feats, modality=modality, case_id=case_id or path.stem)


def _load_csv_matrix(path: Path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise FormatError(f"{path}: expected a header row and at least one data row")
    d = len(lines[0].split(","))
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != d:
            raise FormatError(f"{path}: row {k} has {len(parts)} fields, header has {d}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise FormatError(f"{path}: row {k}: {exc}") from exc
    return np.asarray(rows, dtype=np.float64)


def _load_fbag(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < 12 or raw[:4] != FBAG_MAGIC:
        raise FormatError(f"{path}: missing FBAG magic")
    m, d = struct.unpack("<II", raw[4:12])
    expected = 12 + 4 * m * d
    if m < 1 or d < 1 or len(raw) != expected:
        raise FormatError(f"{path}: header says {m}x{d} but file has {len(raw)} bytes "
                          f"(expected {expected})")
    data = np.frombuffer(raw, dtype="<f4", offset=12)
    return data.reshape(m, d).astype(np.float64)


def tensor64_bytes(array: np.ndarray) -> bytes:
    """Encode a float64 matrix in the 64-bit FBAG-layout variant (checkpoints)."""
    arr = np.atleast_2d(np.asarray(array, dtype=np.float64))
    m, d = arr.shape
    return (FBAG64_MAGIC + struct.pack("<II", m, d)
            + np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_tensor64(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != FBAG64_MAGIC:
        raise FormatError(f"{path}: missing FBG8 magic")
    m, d = struct.unpack("<II", raw[4:12])
    if len(raw) != 12 + 8 * m * d:
        raise FormatError(f"{path}: truncated tensor blob")
    return np.frombuffer(raw, dtype="<f8", offset=12).reshape(m, d).copy()


@contextmanager
def atomic_writer(path, mode="w", newline=None):
    """Open a file (UTF-8 text, or bytes for ``mode="wb"``) that replaces
    ``path`` only once fully written.

    The data goes to a temp file beside ``path``, which is synced and moved
    over ``path`` with ``os.replace`` on success and removed on failure, so
    a reader finds the previous file or the new one, never a partial one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": newline}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Genomic profile files


def save_genomic_profile(profile: GenomicProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("category,value\n")
        for name, attrs in profile.categories:
            for v in attrs:
                fh.write(f"{name},{CSV_FLOAT_FMT % v}\n")


def load_genomic_profile(path, category_spec: list[tuple[str, int]] | None = None,
                         case_id: str = "") -> GenomicProfile:
    path = Path(path)
    if not path.exists():
        raise FormatError(f"genomic profile does not exist: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "category,value":
        raise FormatError(f"{path}: expected header 'category,value'")
    order: list[str] = []
    values: dict[str, list[float]] = {}
    for k, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}: row {k} must have exactly 2 fields")
        name, val = parts
        if name not in values:
            order.append(name)
            values[name] = []
        try:
            values[name].append(float(val))
        except ValueError as exc:
            raise FormatError(f"{path}: row {k}: {exc}") from exc
    cats = [(name, np.asarray(values[name])) for name in order]
    profile = GenomicProfile(cats, case_id=case_id or path.stem)
    if category_spec is not None:
        got = [(n, a.size) for n, a in profile.categories]
        if got != [(n, int(d)) for n, d in category_spec]:
            raise DataError(f"{path}: categories {got} do not match manifest spec {category_spec}")
    return profile


# ---------------------------------------------------------------------------
# Manifest


def save_manifest(manifest: CaseManifest, path) -> Path:
    path = Path(path)
    doc = {
        "feature_dim": int(manifest.feature_dim),
        "category_spec": [{"name": n, "dim": int(d)} for n, d in manifest.category_spec],
        "cases": [
            {
                "case_id": c.case_id,
                "pathology_feature_path": c.pathology_feature_path,
                "genomic_profile_path": c.genomic_profile_path,
                "time_months": float(c.time_months),
                "censor": int(c.censor),
            }
            for c in manifest.cases
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest(path, validate: bool = True) -> CaseManifest:
    """Load a manifest; with validate=True every referenced file must exist and parse."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"manifest does not exist: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        spec = [(c["name"], int(c["dim"])) for c in doc["category_spec"]]
        cases = [
            CaseEntry(
                case_id=c["case_id"],
                pathology_feature_path=c["pathology_feature_path"],
                genomic_profile_path=c["genomic_profile_path"],
                time_months=float(c["time_months"]),
                censor=int(c["censor"]),
            )
            for c in doc["cases"]
        ]
        manifest = CaseManifest(cases, int(doc["feature_dim"]), spec, root=path.parent)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: missing or malformed field: {exc}") from exc
    if validate:
        for c in manifest.cases:
            bag = load_bag(manifest.resolve(c.pathology_feature_path), "binary",
                           modality="pathology", case_id=c.case_id)
            if bag.dim != manifest.feature_dim:
                raise DataError(f"{c.case_id}: pathology dim {bag.dim} != manifest "
                                f"feature_dim {manifest.feature_dim}")
            load_genomic_profile(manifest.resolve(c.genomic_profile_path), spec, c.case_id)
    return manifest


# ---------------------------------------------------------------------------
# Synthetic data


def generate_synthetic_dataset(
    n_cases: int,
    M_p: int,
    M_g: int,
    d: int,
    signal_fraction: float,
    noise_scale: float,
    censor_rate: float,
    seed: int,
    output_dir,
    category_names: tuple[str, ...] | None = None,
) -> CaseManifest:
    """Generate a planted-structure multimodal dataset and write it to disk.

    Per case a latent risk r ~ U(0,1) is drawn.  M_g prototype directions are
    fixed per dataset; a case's prototype for category j is that direction
    scaled by (0.5 + 2.5 r) plus a case-level heterogeneity offset, so the
    magnitude along the planted direction encodes risk while an untrained
    readout sees mostly heterogeneity.  The raw genomic attributes carry the
    same structure in attribute space.  The pathology bag holds
    ceil(signal_fraction * M_p) instances sampled at prototypes (plus
    noise_scale-scaled jitter) and background noise instances.  Event time
    decreases in r; censored cases get a time drawn uniformly below their
    event time.  Byte-identical output for a fixed seed.
    """
    if n_cases < 10:
        raise ParameterError(f"n_cases must be >= 10, got {n_cases}")
    if not (M_p >= M_g >= 2):
        raise ParameterError(f"need M_p >= M_g >= 2, got M_p={M_p}, M_g={M_g}")
    if not (0.0 < signal_fraction < 1.0):
        raise ParameterError(f"signal_fraction must be in (0,1), got {signal_fraction}")
    if not (0.0 <= censor_rate < 1.0):
        raise ParameterError(f"censor_rate must be in [0,1), got {censor_rate}")
    if noise_scale < 0:
        raise ParameterError(f"noise_scale must be >= 0, got {noise_scale}")

    names = list(category_names or DEFAULT_CATEGORY_NAMES)
    if len(names) < M_g:
        names = names + [f"category_{j}" for j in range(len(names), M_g)]
    names = names[:M_g]
    attr_dims = [8 + 2 * (j % 4) for j in range(M_g)]

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    # Per-dataset structure: unit prototype directions (d) and per-category
    # unit attribute patterns (d_j).
    proto_dirs = rng.standard_normal((M_g, d))
    proto_dirs /= np.linalg.norm(proto_dirs, axis=1, keepdims=True)
    attr_dirs = []
    for dj in attr_dims:
        v = rng.standard_normal(dj)
        attr_dirs.append(v / np.linalg.norm(v))

    n_signal = math.ceil(signal_fraction * M_p)
    # Case-level heterogeneity: large enough that a random readout ranks
    # near chance, small enough that the planted direction stays learnable.
    heterogeneity = 0.4
    cases: list[CaseEntry] = []
    latents: list[tuple[str, float]] = []
    for i in range(n_cases):
        case_id = f"case_{i:04d}"
        r = rng.uniform()
        scale = 0.5 + 2.5 * r
        prototypes = (scale * proto_dirs
                      + heterogeneity * rng.standard_normal((M_g, d)))

        feats = np.empty((M_p, d))
        assign = np.arange(n_signal) % M_g
        feats[:n_signal] = (prototypes[assign]
                            + noise_scale * 0.15 * rng.standard_normal((n_signal, d)))
        feats[n_signal:] = rng.standard_normal((M_p - n_signal, d))
        perm = rng.permutation(M_p)
        feats = feats[perm]

        profile = GenomicProfile(
            [(names[j], scale * attr_dirs[j]
              + heterogeneity * rng.standard_normal(attr_dims[j])
              + noise_scale * 0.05 * rng.standard_normal(attr_dims[j]))
             for j in range(M_g)],
            case_id=case_id,
        )

        t_event = 2.0 + 118.0 * (1.0 - r) + noise_scale * 6.0 * rng.standard_normal()
        t_event = max(t_event, 0.5)
        censored = bool(rng.uniform() < censor_rate)
        t_obs = rng.uniform() * t_event if censored else t_event

        bag_rel = f"{case_id}_path.fbag"
        gen_rel = f"{case_id}_genomic.csv"
        save_bag(InstanceBag(feats, "pathology", case_id), out / bag_rel, "binary")
        save_genomic_profile(profile, out / gen_rel)
        cases.append(CaseEntry(case_id, bag_rel, gen_rel, float(t_obs), int(censored)))
        latents.append((case_id, r))

    # Diagnostic sidecar: the planted risk per case (not part of the manifest).
    with open(out / "latents.csv", "w", encoding="utf-8") as fh:
        fh.write("case_id,latent_risk\n")
        for case_id, r in latents:
            fh.write(f"{case_id},{CSV_FLOAT_FMT % r}\n")

    manifest = CaseManifest(cases, d, list(zip(names, attr_dims)), root=out)
    save_manifest(manifest, out / "manifest.json")
    return manifest


# ---------------------------------------------------------------------------
# Time discretization


def discretize_times(records: list[SurvivalRecord], n_bins: int
                     ) -> tuple[np.ndarray, list[SurvivalRecord]]:
    """Assign quantile bins over uncensored event times.

    Edges are the interior quantiles (k/n_bins for k=1..n_bins-1) of the
    uncensored times; a record's bin is the count of edges strictly below its
    time, so the last bin is right-open to +inf.  Returns (edges, new
    records); inputs are not mutated.
    """
    if n_bins < 2:
        raise ParameterError(f"n_bins must be >= 2, got {n_bins}")
    uncensored = np.asarray([r.time_months for r in records if r.censor == 0])
    if uncensored.size < n_bins:
        raise DataError(f"need at least {n_bins} uncensored cases, got {uncensored.size}")
    qs = np.arange(1, n_bins) / n_bins
    edges = np.quantile(uncensored, qs)
    if np.unique(edges).size < edges.size:
        warnings.warn("degenerate bin edges: tied quantiles collapse some bins",
                      stacklevel=2)
    out = [replace(r, bin=int(np.searchsorted(edges, r.time_months, side="left")))
           for r in records]
    return edges, out


def assign_bin(edges: np.ndarray, time_months: float) -> int:
    """Bin index for a time under previously computed edges."""
    return int(np.searchsorted(np.asarray(edges), time_months, side="left"))

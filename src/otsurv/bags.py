"""Bag data model, on-disk formats, manifests, and synthetic data generation.

A "bag" is an M x d matrix of instance feature vectors: patch embeddings for
the pathology side, per-category embeddings for the genomic side.  Two file
formats are supported for bags; :func:`save_bag` picks one by the path's
suffix, ``.csv`` or ``.fbag``, and :func:`load_bag` by the file's first bytes:

* CSV: header row ``f0,f1,...``, one instance per row, 9 significant digits.
* binary "FBAG": magic ``FBAG``, row count and column count as unsigned
  32-bit little-endian integers, then row-major 32-bit floats.

Raw genomic attributes are stored per case in a single CSV with columns
``category,value`` (attribute lengths may differ per category).  A dataset
manifest is a JSON file binding case ids to feature files and survival
labels.  Every CSV file is written by :func:`write_csv`, read by :func:`read_csv`.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, ParameterError

FBAG_MAGIC = b"FBAG"
# Magic, row count, column count; the float32 payload follows.
FBAG_HEADER = struct.Struct("<4sII")

# Every float cell of every CSV file that write_csv is given.
CSV_FLOAT_FMT = "%.9g"

CATEGORY_NAMES = (
    "tumor_suppression",
    "oncogenesis",
    "protein_kinases",
    "cellular_differentiation",
    "transcription",
    "cytokines_and_growth",
)


@dataclass(frozen=True)
class InstanceBag:
    """An M x d matrix of instance features and the case it belongs to.

    ``features`` keeps a float32 or float64 matrix at its own precision and
    widens any other type to float64, so an FBAG bag stays float32 (4 bytes
    per value) and a CSV bag float64; arithmetic widens where it starts.
    """

    features: np.ndarray
    case_id: str

    def __post_init__(self):
        feats = np.asarray(self.features)
        if feats.dtype not in (np.float32, np.float64):
            feats = feats.astype(np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise DataError(f"bag must be a 2-D matrix with M,d >= 1, got shape {feats.shape}")
        check_values(feats, f"bag {self.case_id!r}", DataError)
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
            check_values(attrs, f"category {name!r}", DataError)
            cats.append((name, attrs))
        object.__setattr__(self, "categories", cats)

    def attr_dims(self) -> list[int]:
        return [attrs.size for _, attrs in self.categories]


@dataclass(frozen=True)
class SurvivalRecord:
    """Observed time in months, censor flag, and (optional) discrete bin,
    checked when built like a :class:`CaseEntry`.  censor == 0 means the death
    was observed, 1 that the case is right-censored; ``bin`` is None until
    discretization assigns it."""

    time_months: float
    censor: int
    bin: int | None = None

    CHOICES = {"censor": (0, 1)}
    LEAST = {"time_months": 0, "bin": 0}

    def __post_init__(self):
        check_fields(self, DataError)


def label_arrays(records: list[SurvivalRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The records' times as float64 and their observed deaths (censor == 0)
    as bool, in record order; both arrays are empty for no records."""
    return (np.array([r.time_months for r in records], dtype=np.float64),
            np.array([r.censor == 0 for r in records], dtype=bool))


@dataclass(frozen=True)
class CaseEntry:
    """One manifest row; its fields are the row's keys, checked when built
    (:func:`check_fields`, by :class:`SurvivalRecord`'s tables; a wrong value
    is a :class:`DataError`)."""

    case_id: str
    pathology_feature_path: str
    genomic_profile_path: str
    time_months: float
    censor: int

    CHOICES = SurvivalRecord.CHOICES
    LEAST = SurvivalRecord.LEAST

    def __post_init__(self):
        check_fields(self, DataError)


@dataclass(frozen=True)
class CategoryEntry:
    """A manifest's ``category_spec`` entry, checked like a :class:`CaseEntry`."""

    name: str
    dim: int

    LEAST = {"dim": 1}

    def __post_init__(self):
        check_fields(self, DataError)


@dataclass(frozen=True)
class CaseManifest:
    """Dataset index binding case ids to feature files and survival labels."""

    cases: list[CaseEntry]
    feature_dim: int
    category_spec: list[CategoryEntry]
    root: Path = field(default_factory=Path)

    LEAST = {"feature_dim": 1}

    def __post_init__(self):
        check_fields(self, DataError)
        ids = [c.case_id for c in self.cases]
        if len(set(ids)) != len(ids):
            raise DataError("case ids must be unique")

    def records(self) -> list[SurvivalRecord]:
        return [SurvivalRecord(c.time_months, c.censor) for c in self.cases]

    def resolve(self, rel: str) -> Path:
        return self.root / rel


# ---------------------------------------------------------------------------
# Bag file formats


def save_bag(bag: InstanceBag, path) -> None:
    """Write a bag as CSV to a ``.csv`` path and as FBAG to a ``.fbag`` path.

    Binary payloads are 32-bit floats.  A float32 bag, as :func:`load_bag`
    returns for an FBAG file, is written back byte for byte; a float64 bag is
    rounded to the nearest float32 on write (as the generated datasets are).
    """
    suffix = Path(path).suffix
    if suffix == ".csv":
        write_csv(path, [[f"f{j}" for j in range(bag.dim)], *bag.features])
    elif suffix == ".fbag":
        with atomic_writer(path, "wb") as fh:
            fh.write(FBAG_HEADER.pack(FBAG_MAGIC, *bag.features.shape))
            fh.write(np.ascontiguousarray(bag.features, dtype="<f4").tobytes())
    else:
        raise ParameterError(f"bag path {path} must end in .csv or .fbag")


def load_bag(path, case_id: str = "") -> InstanceBag:
    """Load a bag from disk, as FBAG if the file starts with the FBAG magic
    and as CSV otherwise; validates shape and finiteness.  A ``.fbag`` file
    that is neither names the missing magic in its :class:`FormatError`.

    The features keep the file's precision: an FBAG bag is a read-only
    float32 view of the file's bytes, a CSV bag float64 (9 significant
    digits are not float32-exact)."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"bag file does not exist: {path}")
    raw = path.read_bytes()
    if raw[:4] == FBAG_MAGIC:
        feats = _load_fbag(path, raw)
    else:
        try:
            feats = _load_csv_matrix(path, raw)
        except FormatError as exc:
            if path.suffix != ".fbag":
                raise
            raise FormatError(f"{path}: no FBAG magic {FBAG_MAGIC!r} (starts with "
                              f"{raw[:4]!r}) and not a CSV bag: {exc}") from exc
    try:
        return InstanceBag(feats, case_id=case_id or path.stem)
    except DataError as exc:
        raise DataError(f"bag file {path}: {exc}") from exc


def _load_csv_matrix(path: Path, raw: bytes) -> np.ndarray:
    _, rows = read_csv(path, raw)
    if not rows:
        raise FormatError(f"{path}: expected at least one data row")
    matrix = []
    for line, cells in rows:
        try:
            matrix.append([float(v) for v in cells])
        except ValueError as exc:
            raise FormatError(f"{path}:{line}: {exc}") from exc
    return np.asarray(matrix, dtype=np.float64)


def _load_fbag(path: Path, raw: bytes) -> np.ndarray:
    if len(raw) < FBAG_HEADER.size:
        raise FormatError(f"{path}: FBAG header is {len(raw)} bytes, "
                          f"expected {FBAG_HEADER.size}")
    _, m, d = FBAG_HEADER.unpack_from(raw)
    expected = FBAG_HEADER.size + 4 * m * d
    if m < 1 or d < 1 or len(raw) != expected:
        raise FormatError(f"{path}: header says {m}x{d} but file has {len(raw)} bytes "
                          f"(expected {expected})")
    return np.frombuffer(raw, dtype="<f4", offset=FBAG_HEADER.size).reshape(m, d)


@contextmanager
def atomic_writer(path, mode="w"):
    """Open a file (UTF-8 text with no line-end translation, or bytes for
    ``mode="wb"``) that replaces ``path`` only once fully written; the only
    way otsurv writes a file.

    The parent directory is created if needed.  The data goes to a temp file
    beside ``path``, which is synced and moved over ``path`` with
    ``os.replace`` on success and removed on failure, so a reader finds the
    previous file or the new one, never a partial one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> Path:
    """Write ``doc`` as UTF-8 JSON (indent 1, sorted keys, trailing newline)
    through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return Path(path)


def read_json(path, error: type[Exception]) -> dict:
    """Load a JSON object from ``path``; a missing file, a file that is not
    UTF-8 JSON, a key repeated within one object, or a document that is not
    an object raises ``error`` naming the file."""
    path = Path(path)
    if not path.exists():
        raise error(f"file does not exist: {path}")

    def unique_keys(pairs):
        if len(doc := dict(pairs)) < len(pairs):
            repeated = next(key for key, _ in pairs if sum(k == key for k, _ in pairs) > 1)
            raise error(f"{path}: key {repeated!r} appears more than once in one object")
        return doc
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    return doc


# The JSON value types a field annotated int, float, str, bool, dict or list
# accepts.  A bool is an int to Python, but true in a number field is a mistake.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
               "dict": (dict,), "list": (list,)}


def json_type_ok(value, kind: str) -> bool:
    """Whether ``value`` has a type that a field annotated ``kind`` accepts."""
    return (isinstance(value, _JSON_TYPES[kind])
            and (kind == "bool" or not isinstance(value, bool)))


@functools.cache
def _field_rules(cls) -> tuple[tuple, ...]:
    """(name, kind, optional, choices, least, above) of each field of ``cls``,
    read once; ``optional`` if its annotation ends in ``| None``."""
    tables = [getattr(cls, table, {}) for table in ("CHOICES", "LEAST", "ABOVE")]
    return tuple((f.name, f.type.removesuffix(" | None"), f.type.endswith(" | None"),
                  *(table.get(f.name) for table in tables)) for f in fields(cls))


def read_record(cls, doc, error: type[Exception], **given):
    """The one place a parsed JSON object, ``doc``, becomes a record: ``cls`` built
    from its keys and from ``given``, fields no key may set.  A non-object, or a
    key that is unknown, given or missing, raises ``error`` naming it."""
    if not isinstance(doc, dict):
        raise error(f"{cls.__name__} must be a JSON object, got {type(doc).__name__}")
    try:
        return cls(**doc, **given)
    except TypeError as exc:  # the call names the unknown, repeated or missing key
        raise error(f"unknown or missing key: {exc}") from exc


def check_fields(record, error: type[Exception]) -> None:
    """Check each field of the dataclass ``record`` by its annotation
    (:func:`json_type_ok`) and its class's tables, if any: ``CHOICES`` (the
    allowed values), ``LEAST`` (finite, >= the value), ``ABOVE`` (finite, >).
    A numpy scalar becomes the Python value it holds.  A field annotated
    ``X | None`` may be None; one whose type is not a JSON value is left to
    its class.  The first field that fails raises ``error`` naming it."""
    for name, kind, optional, choices, least, above in _field_rules(type(record)):
        value = getattr(record, name)
        if kind not in _JSON_TYPES or (optional and value is None):
            continue
        if isinstance(value, np.generic):
            value = value.item()
            object.__setattr__(record, name, value)
        if not json_type_ok(value, kind):
            raise error(f"{name} must be {kind}, got {value!r}")
        if choices is not None and value not in choices:
            raise error(f"{name} must be one of {choices}, got {value!r}")
        if least is not None and not least <= value < math.inf:
            raise error(f"{name} must be finite and >= {least}, got {value!r}")
        if above is not None and not above < value < math.inf:
            raise error(f"{name} must be finite and > {above}, got {value!r}")


def check_values(values: np.ndarray, name: str, error: type[Exception],
                 least: float = -math.inf, most: float = math.inf) -> None:
    """Require every entry of the array ``values`` to be finite and within
    [``least``, ``most``], else raise ``error`` naming the array ``name``.  Reads
    only the min and max (NaN carries through both); an empty array passes."""
    if values.size:
        lo, hi = values.min(), values.max()
        if not -math.inf < lo <= hi < math.inf:
            raise error(f"{name} contains non-finite entries")
        if not least <= lo <= hi <= most:
            raise error(f"{name} has entries outside [{least}, {most}]: min {lo}, max {hi}")


def write_csv(path, rows) -> Path:
    """Write each of ``rows`` as one CSV line through :func:`atomic_writer`:
    UTF-8, LF line ends, a field quoted only where it must be.  A float cell
    (``float`` or ``np.floating``) is written at :data:`CSV_FLOAT_FMT`; any
    other cell as ``str`` gives it, so a caller wanting another precision
    passes text."""
    with atomic_writer(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [CSV_FLOAT_FMT % v if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows)
    return Path(path)


def read_csv(path, raw: bytes | None = None
             ) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and the ``(physical line, fields)`` rows of a CSV file,
    blank lines skipped; a missing or non-UTF-8 file, no header, or a row not
    as wide as the header raises :class:`FormatError` naming the file.
    ``raw`` is the file's bytes where the caller has read them already."""
    path = Path(path)
    if raw is None:
        if not path.exists():
            raise FormatError(f"file does not exist: {path}")
        raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = [(reader.line_num, cells) for cells in reader if cells]
    if not rows:
        raise FormatError(f"{path}: no header row")
    (_, header), rows = rows[0], rows[1:]
    width = len(header)
    for line, cells in rows:
        if len(cells) != width:
            raise FormatError(f"{path}:{line}: {len(cells)} fields, header has {width}")
    return header, rows


# ---------------------------------------------------------------------------
# Genomic profile files


def save_genomic_profile(profile: GenomicProfile, path) -> None:
    write_csv(path, [("category", "value"),
                     *((name, v) for name, attrs in profile.categories for v in attrs)])


def load_genomic_profile(path, category_spec: list[CategoryEntry] | None = None,
                         case_id: str = "") -> GenomicProfile:
    path = Path(path)
    header, rows = read_csv(path)
    if header != ["category", "value"]:
        raise FormatError(f"{path}: expected header 'category,value'")
    values: dict[str, list[float]] = {}
    for line, (name, val) in rows:
        try:
            values.setdefault(name, []).append(float(val))
        except ValueError as exc:
            raise FormatError(f"{path}:{line}: {exc}") from exc
    cats = [(name, np.asarray(attrs)) for name, attrs in values.items()]
    profile = GenomicProfile(cats, case_id=case_id or path.stem)
    if category_spec is not None:
        got = [(n, a.size) for n, a in profile.categories]
        if got != [(c.name, c.dim) for c in category_spec]:
            raise DataError(f"{path}: categories {got} do not match manifest spec {category_spec}")
    return profile


# ---------------------------------------------------------------------------
# Manifest


def save_manifest(manifest: CaseManifest, path) -> Path:
    return write_json(path, {"feature_dim": manifest.feature_dim,
                             "category_spec": [asdict(c) for c in manifest.category_spec],
                             "cases": [asdict(c) for c in manifest.cases]})


def load_manifest(path) -> CaseManifest:
    """Load a manifest; ``train.load_cases`` reads the files it names, relative
    to its folder (``root``).  Its header and rows go through :func:`read_record`:
    a key or a value they reject (a censor of 0.7), or a ``cases`` or
    ``category_spec`` that is not a list, is a :class:`FormatError`."""
    path = Path(path)
    doc = read_json(path, FormatError)
    rows = {"cases": CaseEntry, "category_spec": CategoryEntry}

    def records(key, value):
        if not isinstance(value, list):
            raise DataError(f"{key} must be a JSON list, got {type(value).__name__}")
        return [read_record(rows[key], row, DataError) for row in value]
    try:
        header = {key: records(key, value) if key in rows else value
                  for key, value in doc.items()}
        return read_record(CaseManifest, header, DataError, root=path.parent)
    except DataError as exc:
        raise FormatError(f"{path}: {exc}") from exc


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
) -> CaseManifest:
    """Generate a planted-structure multimodal dataset and write it to disk.

    The M_g categories take the names of ``CATEGORY_NAMES``, then
    ``category_<j>``.  Per case a latent risk r ~ U(0,1) is drawn.  M_g
    prototype directions are fixed per dataset; a case's prototype for
    category j is that direction scaled by (0.5 + 2.5 r) plus a case-level
    heterogeneity offset, so the magnitude along the planted direction
    encodes risk while an untrained readout sees mostly heterogeneity.  The
    raw genomic attributes carry the same structure in attribute space.
    The pathology bag holds ceil(signal_fraction * M_p) instances sampled at
    prototypes (plus noise_scale-scaled jitter) and background noise
    instances.  Event time decreases in r; censored cases get a time drawn
    uniformly below their event time.  Byte-identical output for a fixed seed.
    """
    if n_cases < 10:
        raise ParameterError(f"n_cases must be >= 10, got {n_cases}")
    if not (M_p >= M_g >= 2):
        raise ParameterError(f"need M_p >= M_g >= 2, got M_p={M_p}, M_g={M_g}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if not (0.0 < signal_fraction < 1.0):
        raise ParameterError(f"signal_fraction must be in (0,1), got {signal_fraction}")
    if not (0.0 <= censor_rate < 1.0):
        raise ParameterError(f"censor_rate must be in [0,1), got {censor_rate}")
    if noise_scale < 0:
        raise ParameterError(f"noise_scale must be >= 0, got {noise_scale}")

    names = [*CATEGORY_NAMES,
             *(f"category_{j}" for j in range(len(CATEGORY_NAMES), M_g))][:M_g]
    attr_dims = [8 + 2 * (j % 4) for j in range(M_g)]

    out = Path(output_dir)

    rng = np.random.default_rng(seed)
    # Per-dataset structure: unit prototype directions (d) and per-category
    # unit attribute patterns (d_j).
    proto_dirs = rng.standard_normal((M_g, d))
    proto_dirs /= np.linalg.norm(proto_dirs, axis=1, keepdims=True)
    attr_dirs = [v / np.linalg.norm(v) for v in map(rng.standard_normal, attr_dims)]

    n_signal = math.ceil(signal_fraction * M_p)
    # Case-level heterogeneity: large enough that a random readout ranks
    # near chance, small enough that the planted direction stays learnable.
    heterogeneity = 0.4
    cases: list[CaseEntry] = []
    latents = [("case_id", "latent_risk")]
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
        feats = feats[rng.permutation(M_p)]

        profile = GenomicProfile(
            [(names[j], scale * attr_dirs[j]
              + heterogeneity * rng.standard_normal(attr_dims[j])
              + noise_scale * 0.05 * rng.standard_normal(attr_dims[j]))
             for j in range(M_g)],
            case_id=case_id,
        )

        t_event = max(2.0 + 118.0 * (1.0 - r) + noise_scale * 6.0 * rng.standard_normal(), 0.5)
        censored = int(rng.uniform() < censor_rate)
        t_obs = rng.uniform() * t_event if censored else t_event

        bag_rel, gen_rel = f"{case_id}_path.fbag", f"{case_id}_genomic.csv"
        save_bag(InstanceBag(feats, case_id), out / bag_rel)
        save_genomic_profile(profile, out / gen_rel)
        cases.append(CaseEntry(case_id, bag_rel, gen_rel, t_obs, censored))
        latents.append((case_id, r))

    # Diagnostic sidecar: the planted risk per case (not part of the manifest).
    write_csv(out / "latents.csv", latents)

    manifest = CaseManifest(cases, d, [CategoryEntry(*c) for c in zip(names, attr_dims)], out)
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
    times, events = label_arrays(records)
    uncensored = times[events]
    if uncensored.size < n_bins:
        raise DataError(f"need at least {n_bins} uncensored cases, got {uncensored.size}")
    edges = np.quantile(uncensored, np.arange(1, n_bins) / n_bins)
    if np.unique(edges).size < edges.size:
        warnings.warn("degenerate bin edges: tied quantiles collapse some bins",
                      stacklevel=2)
    return edges, [replace(r, bin=assign_bin(edges, r.time_months)) for r in records]


def assign_bin(edges: np.ndarray, time_months: float) -> int:
    """Bin index for a time under previously computed edges."""
    return int(np.searchsorted(np.asarray(edges), time_months, side="left"))

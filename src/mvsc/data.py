"""Dataset representation, the CSV format, normalization, and synthetic data.

Every CSV the package writes goes through ``write_csv`` (comma-separated,
``%.17g`` by default, so float64 reads back exactly), and every CSV it
reads goes through one parser, which reports bad input at ``path:line``.

On disk a dataset is a directory of ``view_1.csv .. view_k.csv`` (rows =
samples, columns = features, no header) plus an optional ``labels.csv``
with one int64 label per row, taken verbatim. In memory each view is stored
transposed as a d_v x n matrix so samples are columns, which keeps the
solver algebra in its natural orientation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

NormalizationScheme = ("none", "unit_l2_per_sample", "minmax_per_feature")

_VIEW_FILE = re.compile(r"^view_(\d+)\.csv$")


class DatasetFormatError(ValueError):
    """Raised when a dataset directory or file violates the expected layout."""


@dataclass(frozen=True)
class ViewMatrix:
    """One view of the data: a d_v x n matrix with samples as columns."""

    values: np.ndarray
    view_index: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"view {self.view_index}: expected a 2-d matrix")
        d, n = values.shape
        if d < 1 or n < 2:
            raise ValueError(f"view {self.view_index}: need d >= 1 and n >= 2, got {d} x {n}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"view {self.view_index}: non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MultiViewDataset:
    """An ordered collection of views over the same samples, plus optional labels.

    Labels are kept verbatim as loaded; they are never renumbered, and the
    cluster count is simply the number of distinct values.
    """

    views: tuple[ViewMatrix, ...]
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        views = tuple(self.views)
        if not views:
            raise ValueError("dataset needs at least one view")
        n = views[0].n_samples
        for position, v in enumerate(views):
            if v.view_index != position:  # save_dataset names view files by it
                raise ValueError(f"view at position {position} has view_index "
                                 f"{v.view_index}; views must be indexed 0, 1, ... in order")
            if v.n_samples != n:
                raise ValueError(
                    f"view {v.view_index} has {v.n_samples} samples, expected {n}"
                )
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels)
            if labels.ndim != 1:
                raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
            if labels.dtype.kind not in "bi":  # the CSV reader's rule, not truncation
                labels = np.array([_label(str(value)) for value in labels.tolist()])
            labels = labels.astype(int, copy=False)
            if labels.size != n:
                raise ValueError(f"labels length {labels.size} does not match n={n}")
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "labels", labels)

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_samples(self) -> int:
        return self.views[0].n_samples

    @property
    def dims(self) -> list[int]:
        return [v.n_features for v in self.views]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic multi-view Gaussian-blob dataset.

    ``between_cluster_separation`` is the ratio of the minimum centroid
    distance to ``within_cluster_std``. ``noise_feature_counts`` appends
    that many label-independent features per view, drawn with standard
    deviation separation/2 * within_cluster_std so they rival the
    informative spread instead of vanishing against it.
    """

    clusters: int
    samples_per_cluster: int
    view_dims: tuple[int, ...]
    within_cluster_std: float = 1.0
    between_cluster_separation: float = 5.0
    noise_feature_counts: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "view_dims", tuple(int(d) for d in self.view_dims))
        noise = self.noise_feature_counts or (0,) * len(self.view_dims)
        object.__setattr__(self, "noise_feature_counts", tuple(int(m) for m in noise))
        if self.clusters < 2:
            raise ValueError("need at least 2 clusters")
        if self.samples_per_cluster < 2:
            raise ValueError("need at least 2 samples per cluster")
        if self.between_cluster_separation <= 0:
            raise ValueError("separation must be positive")
        if self.within_cluster_std <= 0:
            raise ValueError("within-cluster std must be positive")
        if len(self.noise_feature_counts) != len(self.view_dims):
            raise ValueError("noise_feature_counts must match view_dims in length")
        if any(d < 1 for d in self.view_dims) or any(m < 0 for m in self.noise_feature_counts):
            raise ValueError("view dims must be >= 1 and noise counts >= 0")


def write_csv(path: str | Path, rows, fmt: str | list[str] = "%.17g", header: str = "") -> None:
    """Write ``rows`` as comma-separated lines, after ``header`` when it is not empty.

    The default ``%.17g`` keeps 17 significant digits, so float64 reads back
    exactly; ``fmt`` may also be a sequence of one format per column.
    """
    np.savetxt(path, rows, fmt=fmt, delimiter=",", header=header, comments="")


def _parse_numeric_csv(path: Path, convert=float, width: int | None = None) -> np.ndarray:
    """Read comma-separated rows, skipping blank lines, with ``convert`` applied to
    each cell; every row must have ``width`` cells, or as many as the first row."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            row = []
            for col, cell in enumerate(cells, start=1):
                try:
                    row.append(convert(cell))
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}:{lineno}: column {col}: {exc}") from None
            width = width or len(row)
            if len(row) != width:
                raise DatasetFormatError(
                    f"{path}:{lineno}: ragged row with {len(row)} cells, expected {width}"
                )
            rows.append(row)
    if not rows:
        raise DatasetFormatError(f"{path}: file is empty")
    return np.array(rows)


def _label(cell: str) -> int:
    """An int64 label: an integer literal taken exactly, or an integral float such as 1e3."""
    try:
        value = int(cell)
    except ValueError:
        value = float(cell)
        if not value.is_integer():
            raise ValueError(f"label {cell!r} is not an integer") from None
        value = int(value)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"label {cell!r} is outside int64")
    return value


def parse_labels_csv(path: str | Path) -> np.ndarray:
    """Read one int64 label per non-blank line, kept verbatim."""
    return _parse_numeric_csv(Path(path), _label, width=1).ravel()


def load_dataset(directory_path: str | Path) -> MultiViewDataset:
    """Load ``view_1.csv .. view_k.csv`` (and ``labels.csv`` if present).

    CSV rows are samples; views are transposed to the internal d_v x n
    layout. All views must agree on the sample count. A name save_dataset does
    not write, such as ``view_02.csv``, is refused: it could not be written back.
    """
    directory = Path(directory_path)
    if not directory.is_dir():
        raise DatasetFormatError(f"{directory}: not a directory")

    indexed = sorted(
        (int(m.group(1)), p)
        for p in directory.iterdir()
        if (m := _VIEW_FILE.match(p.name))
    )
    for idx, path in indexed:
        if path.name != f"view_{idx}.csv":  # the only name save_dataset writes for view idx
            raise DatasetFormatError(f"{path}: view files are named view_{idx}.csv")
    if not indexed:
        raise DatasetFormatError(f"{directory}: no view_<i>.csv files found")
    expected = list(range(1, len(indexed) + 1))
    if [i for i, _ in indexed] != expected:
        raise DatasetFormatError(
            f"{directory}: view indices {[i for i, _ in indexed]} are not contiguous from 1"
        )

    views = []
    n = None
    for idx, path in indexed:
        samples_by_rows = _parse_numeric_csv(path)
        if n is None:
            n = samples_by_rows.shape[0]
        elif samples_by_rows.shape[0] != n:
            raise DatasetFormatError(
                f"{path}: {samples_by_rows.shape[0]} samples, but view_1.csv has {n}"
            )
        views.append(ViewMatrix(values=samples_by_rows.T, view_index=idx - 1))

    labels = None
    labels_path = directory / "labels.csv"
    if labels_path.exists():
        labels = parse_labels_csv(labels_path)
        if labels.size != n:
            raise DatasetFormatError(f"{labels_path}: {labels.size} labels for {n} samples")

    return MultiViewDataset(views=tuple(views), labels=labels)


def save_dataset(dataset: MultiViewDataset, directory_path: str | Path) -> None:
    """Write the dataset in the on-disk layout (samples as CSV rows).

    Values are written with 17 significant digits so a load round-trips
    float64 exactly. A directory holding a view file this dataset does not
    write, or a ``labels.csv`` when it has no labels, is refused before
    anything is written, since a load would read those files back.
    """
    directory = Path(directory_path)
    directory.mkdir(parents=True, exist_ok=True)
    names = [f"view_{view.view_index + 1}.csv" for view in dataset.views]
    stale = sorted(p.name for p in directory.iterdir()
                   if _VIEW_FILE.match(p.name) and p.name not in names
                   or p.name == "labels.csv" and dataset.labels is None)
    if stale:
        raise DatasetFormatError(f"{directory}: holds {', '.join(stale)} of another dataset")
    for name, view in zip(names, dataset.views):
        write_csv(directory / name, view.values.T)
    if dataset.labels is not None:
        write_csv(directory / "labels.csv", dataset.labels, fmt="%d")


def normalize(dataset: MultiViewDataset, scheme: str) -> MultiViewDataset:
    """Return a normalized copy of the dataset.

    none: identity. unit_l2_per_sample: scale each sample column of each
    view to unit 2-norm (zero columns untouched). minmax_per_feature: map
    each feature row affinely onto [0, 1] (constant rows map to 0).
    """
    if scheme not in NormalizationScheme:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {NormalizationScheme}")
    if scheme == "none":
        return dataset

    views = []
    for view in dataset.views:
        X = view.values.copy()
        if scheme == "unit_l2_per_sample":
            norms = np.linalg.norm(X, axis=0)
            nz = norms > 0
            X[:, nz] /= norms[nz]
        else:  # minmax_per_feature
            lo = X.min(axis=1, keepdims=True)
            hi = X.max(axis=1, keepdims=True)
            span = hi - lo
            constant = (span == 0).ravel()
            span[constant] = 1.0
            X = (X - lo) / span
            X[constant, :] = 0.0
        views.append(replace(view, values=X))
    return replace(dataset, views=tuple(views))


def generate_synthetic(spec: SynthSpec) -> MultiViewDataset:
    """Sample a labeled multi-view Gaussian-blob dataset; pure in the spec.

    Each view draws its own centroids, rescaled so the minimum pairwise
    centroid distance equals separation * within_cluster_std, then adds
    isotropic within-cluster noise. Noise features are appended after the
    informative block and never consult the labels.
    """
    rng = np.random.default_rng(spec.seed)
    c = spec.clusters
    n = c * spec.samples_per_cluster
    labels = np.repeat(np.arange(c), spec.samples_per_cluster)
    std = spec.within_cluster_std
    target_gap = spec.between_cluster_separation * std
    noise_std = 0.5 * spec.between_cluster_separation * std

    views = []
    for v, (d, m_noise) in enumerate(zip(spec.view_dims, spec.noise_feature_counts)):
        centroids = rng.standard_normal((d, c))
        gaps = [
            np.linalg.norm(centroids[:, i] - centroids[:, j])
            for i in range(c)
            for j in range(i + 1, c)
        ]
        centroids *= target_gap / min(gaps)
        X = centroids[:, labels] + std * rng.standard_normal((d, n))
        if m_noise:
            X = np.vstack([X, noise_std * rng.standard_normal((m_noise, n))])
        views.append(ViewMatrix(values=X, view_index=v))

    return MultiViewDataset(views=tuple(views), labels=labels)

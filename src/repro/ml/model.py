"""Dependency-light QoS predictors over exported datasets.

Two predictor kinds live behind the ``predictors`` registry:

``ridge``
    Multi-target linear ridge regression (closed-form normal-equation
    solve) over standardized numeric features plus one-hot categorical
    coordinates.
``knn``
    k-nearest-neighbour lookup in the same encoded feature space
    (stable-sorted distances, mean of the k nearest targets).

Both fit in one numpy call with no iteration, no random initialisation
and no data-order dependence beyond the dataset's canonical row order —
so fitting the same dataset twice yields bit-identical weights, and a
:class:`QoSModel` round-trips exactly through JSON. The ``seed``
argument is recorded for provenance and reserved for future stochastic
kinds; the built-in kinds are deterministic without it.

numpy is required for fitting and prediction but is imported lazily:
every other part of the package (serialisation, the registry, the CLI's
error message) works without it.

:meth:`QoSModel.predict_knee` is the sweep-facing surface: it scans the
adaptive sweep's load grid with the model's delivered-throughput
predictions and returns the first load where delivery saturates — the
same knee definition :func:`repro.experiments.knee.adaptive_knee_sweep`
probes for, so a good model's seed lands the binary search next to its
answer.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.base import Registry
from repro.ml.dataset import Dataset

#: Numeric feature columns, standardized before fitting.
NUMERIC_FEATURES: Tuple[str, ...] = (
    "load_fraction",
    "burstiness",
    "hotspot_mobility",
    "fault_density",
    "rule_activity",
)

#: Categorical feature columns, one-hot encoded over the categories
#: observed at fit time. ``scenario`` participates so the model can
#: learn per-scenario curve shapes beyond the coverage dimensions.
CATEGORICAL_FEATURES: Tuple[str, ...] = (
    "arch",
    "bw_set_index",
    "pattern",
    "scenario",
)

#: Bump when the serialised model schema changes.
MODEL_VERSION = 1

#: Ridge regularisation strength (fixed: part of the model identity).
RIDGE_LAMBDA = 1e-3

#: Registry of ``kind -> fit(dataset, seed) -> QoSModel`` (exposed
#: through :mod:`repro.api.registry` like every other plugin table).
predictors = Registry("predictor", error=ValueError)


def _numpy():
    """Import numpy lazily, with an actionable error when absent."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            "repro.ml predictors need numpy (install it, or skip the "
            "--model path: every other subsystem works without it)"
        ) from None
    return numpy


def _encode_categories(dataset: Dataset) -> Dict[str, List[str]]:
    """Sorted category vocabulary per categorical feature."""
    return {
        feature: sorted({str(row[feature]) for row in dataset.rows})
        for feature in CATEGORICAL_FEATURES
    }


def _row_vector(
    row: Dict[str, object],
    categories: Dict[str, List[str]],
    means: Sequence[float],
    scales: Sequence[float],
) -> Optional[List[float]]:
    """Encode one row: standardized numerics, one-hots, bias.

    ``None`` when the row names a category the model never saw — the
    caller treats that as "no prediction" rather than extrapolating
    from an all-zero block.
    """
    vector: List[float] = []
    for i, feature in enumerate(NUMERIC_FEATURES):
        vector.append((float(row[feature]) - means[i]) / scales[i])
    for feature in CATEGORICAL_FEATURES:
        vocabulary = categories[feature]
        value = str(row[feature])
        if value not in vocabulary:
            return None
        vector.extend(1.0 if value == v else 0.0 for v in vocabulary)
    vector.append(1.0)  # bias
    return vector


def _design_matrix(dataset: Dataset):
    """(X, Y, categories, means, scales) for a whole dataset."""
    np = _numpy()
    if not dataset.rows:
        raise ValueError("cannot fit a predictor on an empty dataset")
    categories = _encode_categories(dataset)
    raw = np.array(
        [[float(row[f]) for f in NUMERIC_FEATURES] for row in dataset.rows],
        dtype=np.float64,
    )
    means = raw.mean(axis=0)
    scales = raw.std(axis=0)
    scales[scales == 0.0] = 1.0
    rows = [
        _row_vector(row, categories, means.tolist(), scales.tolist())
        for row in dataset.rows
    ]
    X = np.array(rows, dtype=np.float64)
    Y = np.array(
        [[float(row[t]) for t in dataset.targets] for row in dataset.rows],
        dtype=np.float64,
    )
    return X, Y, categories, means.tolist(), scales.tolist()


class QoSModel:
    """A fitted predictor: encoded feature space + per-kind parameters.

    ``params`` holds the kind-specific payload — ridge keeps its weight
    matrix, knn keeps the encoded training table — as nested lists of
    floats, so the whole model serialises losslessly to JSON
    (``repr``-exact floats via the standard JSON float round-trip).
    """

    def __init__(
        self,
        kind: str,
        targets: Tuple[str, ...],
        categories: Dict[str, List[str]],
        means: List[float],
        scales: List[float],
        params: Dict[str, object],
        seed: int = 0,
        dataset_digest: str = "",
        n_rows: int = 0,
    ) -> None:
        if kind not in predictors:
            raise ValueError(
                f"unknown predictor kind {kind!r}; registered: "
                f"{', '.join(predictors.names())}"
            )
        self.kind = kind
        self.targets = tuple(targets)
        self.categories = {k: list(v) for k, v in categories.items()}
        self.means = list(means)
        self.scales = list(scales)
        self.params = params
        self.seed = seed
        self.dataset_digest = dataset_digest
        self.n_rows = n_rows

    # -- prediction ---------------------------------------------------------
    def predict_row(self, row: Dict[str, object]) -> Optional[Dict[str, float]]:
        """Predict every target for one feature row.

        ``None`` when the row names a category outside the training
        vocabulary (callers fall back to their non-model path).
        """
        vector = _row_vector(row, self.categories, self.means, self.scales)
        if vector is None:
            return None
        np = _numpy()
        x = np.array(vector, dtype=np.float64)
        if self.kind == "ridge":
            weights = np.array(self.params["weights"], dtype=np.float64)
            values = x @ weights
        else:  # knn
            X = np.array(self.params["train_x"], dtype=np.float64)
            Y = np.array(self.params["train_y"], dtype=np.float64)
            k = min(int(self.params["k"]), len(X))
            distances = ((X - x) ** 2).sum(axis=1)
            nearest = np.argsort(distances, kind="stable")[:k]
            values = Y[nearest].mean(axis=0)
        return {t: float(v) for t, v in zip(self.targets, values)}

    def predict_knee(
        self,
        arch: str,
        bw_set_index: int,
        pattern: str,
        scenario: Optional[str] = None,
        *,
        resolution: float,
        max_fraction: float,
        total_cycles: int,
        plateau_margin: float = 0.10,
    ) -> Optional[float]:
        """Predicted knee load in Gb/s for one sweep curve.

        Scans the adaptive sweep's own load grid (multiples of
        *resolution* up to *max_fraction*) with the model's
        delivered-throughput predictions and returns the first offered
        load whose prediction reaches ``(1 - plateau_margin)`` of the
        predicted plateau — the same saturation definition the sweep's
        binary search probes with real simulations. ``None`` (caller
        falls back to the analytic seed) when the curve's coordinates
        are outside the training vocabulary, or the model never learned
        a positive delivery plateau.
        """
        if "delivered_gbps" not in self.targets:
            return None
        from repro.ml.dataset import _scenario_dimensions
        from repro.traffic.bandwidth_sets import bandwidth_set_by_index

        aggregate = bandwidth_set_by_index(bw_set_index).aggregate_gbps
        if aggregate <= 0:
            return None
        dims = _scenario_dimensions(scenario or "", total_cycles)
        n = max(1, int(max_fraction / resolution + 1e-9))
        curve: List[Tuple[float, float]] = []
        for i in range(1, n + 1):
            fraction = round(i * resolution, 9)
            row: Dict[str, object] = {
                "arch": arch,
                "bw_set_index": bw_set_index,
                "pattern": pattern,
                "scenario": scenario or "",
                "load_fraction": fraction,
                "offered_gbps": fraction * aggregate,
            }
            row.update(dims)
            predicted = self.predict_row(row)
            if predicted is None:
                return None
            curve.append((fraction, predicted["delivered_gbps"]))
        plateau = max(delivered for _, delivered in curve)
        if plateau <= 0:
            return None
        for fraction, delivered in curve:
            if delivered >= (1.0 - plateau_margin) * plateau:
                return fraction * aggregate
        return curve[-1][0] * aggregate

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": MODEL_VERSION,
            "kind": self.kind,
            "targets": list(self.targets),
            "categories": {k: list(v) for k, v in self.categories.items()},
            "means": list(self.means),
            "scales": list(self.scales),
            "params": self.params,
            "seed": self.seed,
            "dataset_digest": self.dataset_digest,
            "n_rows": self.n_rows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QoSModel":
        if not isinstance(data, dict):
            raise ValueError(f"model must be a JSON object, not {data!r}")
        known = {
            "version", "kind", "targets", "categories", "means", "scales",
            "params", "seed", "dataset_digest", "n_rows",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown model fields {sorted(unknown)}")
        return cls(
            kind=str(data["kind"]),
            targets=tuple(data["targets"]),
            categories=data["categories"],
            means=data["means"],
            scales=data["scales"],
            params=data["params"],
            seed=int(data.get("seed", 0)),
            dataset_digest=str(data.get("dataset_digest", "")),
            n_rows=int(data.get("n_rows", 0)),
        )

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys — byte-deterministic)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QoSModel":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "QoSModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def describe(self) -> str:
        return (
            f"{self.kind} predictor over {self.n_rows} rows "
            f"(targets: {', '.join(self.targets)}; dataset "
            f"{self.dataset_digest or 'unknown'}; seed {self.seed})"
        )


@predictors.register("ridge")
def _fit_ridge(dataset: Dataset, seed: int = 0) -> QoSModel:
    """Closed-form multi-target ridge regression."""
    np = _numpy()
    X, Y, categories, means, scales = _design_matrix(dataset)
    gram = X.T @ X + RIDGE_LAMBDA * np.eye(X.shape[1])
    weights = np.linalg.solve(gram, X.T @ Y)
    return QoSModel(
        kind="ridge",
        targets=dataset.targets,
        categories=categories,
        means=means,
        scales=scales,
        params={"weights": weights.tolist()},
        seed=seed,
        dataset_digest=dataset.digest(),
        n_rows=len(dataset),
    )


@predictors.register("knn")
def _fit_knn(dataset: Dataset, seed: int = 0, k: int = 5) -> QoSModel:
    """k-nearest-neighbour table over the encoded feature space."""
    X, Y, categories, means, scales = _design_matrix(dataset)
    return QoSModel(
        kind="knn",
        targets=dataset.targets,
        categories=categories,
        means=means,
        scales=scales,
        params={"train_x": X.tolist(), "train_y": Y.tolist(), "k": int(k)},
        seed=seed,
        dataset_digest=dataset.digest(),
        n_rows=len(dataset),
    )


def fit_model(dataset: Dataset, kind: str = "ridge", seed: int = 0) -> QoSModel:
    """Fit a predictor of *kind* on *dataset* (registry dispatch).

    Deterministic: the built-in kinds have no stochastic step, so the
    same dataset and seed always produce bit-identical weights.
    """
    return predictors.get(kind)(dataset, seed=seed)


def load_model(path: str) -> QoSModel:
    """Read a fitted model from a JSON file (CLI/spec helper)."""
    return QoSModel.load(path)

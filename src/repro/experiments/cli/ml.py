"""``ml export`` / ``ml fit``: the learned-QoS-predictor tooling (see
docs/ml.md)."""

from __future__ import annotations

from repro.api.registry import predictors
from repro.experiments.cli.options import CliError, add_seed, add_store_options


def register(sub) -> None:
    ml = sub.add_parser(
        "ml",
        help="learned QoS predictor: export a result store as a "
        "training dataset, fit a deterministic model (see docs/ml.md)",
    )
    ml_sub = ml.add_subparsers(dest="ml_command", required=True)

    export = ml_sub.add_parser(
        "export",
        help="flatten a result store into a tidy feature/target table "
        "(deterministic: same store -> byte-identical dataset)",
    )
    add_store_options(export)
    export.add_argument("--out", required=True, metavar="DATASET.json")
    export.set_defaults(handler=_export)

    fit = ml_sub.add_parser(
        "fit",
        help="fit a QoS model on an exported dataset (deterministic: "
        "same dataset + seed -> byte-identical model)",
    )
    fit.add_argument("dataset", metavar="DATASET.json")
    fit.add_argument("--out", required=True, metavar="MODEL.json")
    fit.add_argument(
        "--kind", default="ridge", choices=sorted(predictors.names()),
        help="predictor family (default: ridge)",
    )
    add_seed(fit, default=0, help="fit seed, recorded in the model (default: 0)")
    fit.set_defaults(handler=_fit)


def _export(args) -> None:
    from repro.experiments.store import open_store
    from repro.ml.dataset import export_dataset

    dataset = export_dataset(open_store(args.store, args.store_backend))
    if not dataset.rows:
        raise CliError(
            f"dhetpnoc-repro ml: error: store {args.store!r} holds "
            "no results to export (run a sweep with --store first)"
        )
    dataset.save(args.out)
    print(f"dataset written to {args.out}: {len(dataset.rows)} row(s) "
          f"x {len(dataset.features)} feature(s), "
          f"digest {dataset.digest()}")


def _fit(args) -> None:
    from repro.ml.dataset import Dataset
    from repro.ml.model import fit_model

    try:
        dataset = Dataset.load(args.dataset)
    except (OSError, KeyError, ValueError) as exc:
        raise CliError(
            f"dhetpnoc-repro ml: error: bad dataset {args.dataset!r}: {exc}"
        )
    try:
        model = fit_model(dataset, kind=args.kind, seed=args.seed)
    except RuntimeError as exc:  # numpy unavailable
        raise CliError(f"dhetpnoc-repro ml: error: {exc}")
    model.save(args.out)
    print(f"model written to {args.out}: {model.describe()}")

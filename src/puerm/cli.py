"""Command-line interface.

Subcommands: ``synth`` (generate the synthetic benchmark), ``sample``
(corrupt a labeled CSV into a PU CSV), ``train`` (one training run),
``grid`` (the full experiment cross product), ``report`` (one table of
matched-minus-mismatched estimator gaps, both scenarios), and ``check``
(run the built-in oracle suite). Every subcommand supports ``--help``.
Exit codes: 0 on success, 1 on a reported failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace

from .datasets import SCENARIOS, gaussian_mixture, load_csv, load_pu_csv, save_csv
from .errors import PuermError
from .harness import (
    REPORT_METRICS,
    GridSpec,
    default_grid_spec,
    emit_report,
    load_grid_config,
    run_grid,
    run_self_checks,
)
from .model import ACTIVATIONS, init, save_model
from .numerics import Rng
from .risk import LOSSES
from .sampling import corrupt
from .trainer import METHODS, OPTIMIZERS, TrainerConfig, evaluate, save_trace, train


def _list_of(kind):
    """argparse type for a comma-separated list of ``kind`` values."""

    def parse(text: str) -> list:
        return [kind(v.strip()) for v in text.split(",") if v.strip() != ""]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puerm",
        description=(
            "Positive-unlabeled risk minimization with scenario-aware "
            "estimators (single-sample and case-control)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the two-Gaussian synthetic benchmark")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--pi", type=float, required=True, help="positive-class prior")
    p.add_argument("--mu-pos", type=float, default=2.0)
    p.add_argument("--mu-neg", type=float, default=-2.0)
    p.add_argument("--sd", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("sample", help="corrupt a labeled CSV into a PU CSV")
    p.add_argument("--scenario", choices=SCENARIOS, required=True)
    p.add_argument("--c", type=float, required=True, help="label frequency")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="inp", required=True, help="labeled CSV (needs y)")
    p.add_argument("--out", required=True, help="output PU CSV path")
    p.add_argument(
        "--n",
        type=int,
        default=None,
        help="sample budget (default: all input rows)",
    )
    p.add_argument(
        "--pi",
        type=float,
        default=None,
        help="known class prior (default: empirical fraction of y=+1)",
    )

    p = sub.add_parser("train", help="one training run on a PU CSV")
    # every TrainerConfig field is a flag of the same name and default
    p.set_defaults(**asdict(TrainerConfig()))
    p.add_argument("--in", dest="inp", required=True, help="PU CSV (needs s)")
    p.add_argument("--method", choices=METHODS)
    p.add_argument(
        "--pi",
        type=float,
        default=None,
        help="known class prior (default: empirical from the y column)",
    )
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, help="clamped to the number of rows")
    p.add_argument("--eta", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--loss", choices=sorted(LOSSES))
    p.add_argument("--seed", type=int, help="seeds the shuffling and the initialization")
    p.add_argument(
        "--hidden", type=_list_of(int), default=[32, 32, 32, 32], help="comma-separated"
    )
    p.add_argument("--activation", choices=ACTIVATIONS, default="relu")
    p.add_argument("--test", default=None, help="labeled CSV to evaluate on")
    p.add_argument("--trace", default=None, help="write per-epoch trace CSV here")
    p.add_argument("--model-out", default=None, help="write model checkpoint here")

    p = sub.add_parser("grid", help="run the experiment cross product")
    p.add_argument("--config", default=None, help="JSON grid config file")
    p.add_argument("--out", default=None, help="results CSV (appended, resumable)")
    p.add_argument("--trace-dir", default=None)
    p.add_argument("--seeds", type=_list_of(int), default=None, help="comma-separated")
    p.add_argument("--c-values", type=_list_of(float), default=None, help="comma-separated")
    p.add_argument("--methods", type=_list_of(str), default=None, help="comma-separated")
    p.add_argument("--scenarios", type=_list_of(str), default=None, help="comma-separated")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="training budget per cell")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p = sub.add_parser("report", help="one table of estimator gaps, both scenarios")
    p.add_argument("--results", required=True)
    p.add_argument("--metric", choices=REPORT_METRICS, default="accuracy")

    sub.add_parser("check", help="run the built-in oracle suite")
    return parser


def _cmd_synth(args) -> int:
    data = gaussian_mixture(
        args.n, args.pi, args.mu_pos, args.mu_neg, args.sd, args.dim, Rng(args.seed)
    )
    save_csv(data, args.out)
    print(f"wrote {data.n} rows ({data.dim} features) to {args.out}")
    return 0


def _cmd_sample(args) -> int:
    source = load_csv(args.inp, args.pi)
    budget = args.n if args.n is not None else source.n
    pu = corrupt(source, args.scenario, args.c, budget, Rng(args.seed))
    save_csv(pu, args.out)
    print(
        f"wrote {pu.n} rows ({pu.n_labeled} labeled) to {args.out} "
        f"[scenario={pu.scenario}, c={args.c}, pi={pu.pi:.6g}]"
    )
    return 0


def _cmd_train(args) -> int:
    cfg = TrainerConfig(**{f.name: getattr(args, f.name) for f in fields(TrainerConfig)})
    pu = load_pu_csv(args.inp, args.pi, cfg.mode)
    if pu.pi_is_empirical:
        print(f"note: using empirical prior pi={pu.pi:.6g} from the y column")
    test = load_csv(args.test) if args.test else None
    cfg = replace(cfg, batch_size=min(cfg.batch_size, pu.n))
    # child stream 2, as in a grid cell: train shuffles with the seed's own stream
    model = init([pu.x.shape[1]] + args.hidden + [1], args.activation, Rng(cfg.seed).child(2))
    model, traces = train(pu, cfg, model, test)
    if traces:
        last = traces[-1]
        print(
            f"epoch {last.epoch}: objective={last.objective:.6f} "
            f"truncation_fraction={last.truncation_fraction:.3f}"
        )
    if test is not None:
        acc, prec, rec, f1 = evaluate(model, test)
        print(
            f"test: accuracy={acc:.2f} precision={prec:.2f} "
            f"recall={rec:.2f} f1={f1:.2f}"
        )
    if args.trace:
        save_trace(traces, args.trace)
        print(f"trace written to {args.trace}")
    if args.model_out:
        save_model(model, args.model_out)
        print(f"model written to {args.model_out}")
    return 0


def _cmd_grid(args) -> int:
    spec = load_grid_config(args.config) if args.config else default_grid_spec()
    # each grid flag but --epochs is named after the GridSpec field it overrides
    overrides = {f.name: getattr(args, f.name, None) for f in fields(GridSpec)}
    if args.epochs is not None:
        overrides["trainer"] = replace(spec.trainer, epochs=args.epochs)
    # replace() builds new objects, so __post_init__ validates the overrides
    spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    log = None if args.quiet else sys.stderr
    results = run_grid(spec, log=log)
    print(f"{len(results)} new results appended to {spec.out}")
    return 0


def _cmd_report(args) -> int:
    print(emit_report(args.results, metric=args.metric), end="")
    return 0


def _cmd_check(args) -> int:
    checks = run_self_checks()
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        failed += not ok
        print(f"{status}  {name}: {detail}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


_HANDLERS = {
    "synth": _cmd_synth,
    "sample": _cmd_sample,
    "train": _cmd_train,
    "grid": _cmd_grid,
    "report": _cmd_report,
    "check": _cmd_check,
}


def cli_dispatch(argv) -> int:
    """Parse ``argv`` (no program name) and run the subcommand.

    Returns the process exit code instead of exiting, so it is callable
    from tests: 0 success, 1 failure, 2 usage error.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (PuermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Batch command-line front end: run, compare, train."""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional

from . import engine, metrics, pipeline
from .config import ScenarioConfig, load_scenario, with_overrides
from .core import _atomic_write
from .errors import EmptyTrainingSet, SimError


def _out_path(base: str, suffix: str, fmt: str) -> str:
    stem, ext = os.path.splitext(base)
    if not ext:
        ext = "." + fmt
    return f"{stem}{suffix}{ext}"


def _load(args) -> ScenarioConfig:
    return with_overrides(load_scenario(args.scenario), seed=args.seed,
                          rounds=args.rounds, mode=getattr(args, "mode", None))


def _load_model(args) -> Optional[pipeline.ClassifierModel]:
    if args.model:
        return pipeline.load_model(args.model)
    return None


def _summary(report: metrics.MetricsReport) -> str:
    sel = ("undefined" if report.selectivity is None
           else f"{report.selectivity:.4f}")
    return (f"mode={report.mode} rounds={report.rounds_completed} "
            f"generated={report.readings_generated} "
            f"delivered={report.readings_delivered_to_sink} "
            f"selectivity={sel} bits={report.total_bits_transmitted} "
            f"energy={report.total_energy_consumed_j:.6g}J "
            f"first_death={report.first_node_death_round}")


def cmd_run(args) -> int:
    sc = _load(args)
    result = engine.run(sc, model=_load_model(args))
    out = _out_path(args.out, "", args.format)
    _atomic_write(out, metrics.serialize(result.report, args.format))
    if not args.quiet:
        print(_summary(result.report))
        print(f"report written to {out}")
    return 0


def _ratio(fw, bl):
    if fw is None or bl is None or bl == 0:
        return None
    return fw / bl


def cmd_compare(args) -> int:
    sc = _load(args)
    model = _load_model(args)
    baseline = engine.run(dataclasses.replace(sc, mode="baseline")).report
    framework = engine.run(dataclasses.replace(sc, mode="framework"),
                           model=model).report

    for rep, suffix in ((baseline, "_baseline"), (framework, "_framework")):
        _atomic_write(_out_path(args.out, suffix, args.format),
                      metrics.serialize(rep, args.format))

    rows = [("metric", "baseline", "framework", "ratio")]
    for name in ("total_bits_transmitted", "total_energy_consumed_j",
                 "readings_delivered_to_sink", "first_node_death_round",
                 "network_death_round"):
        b, f = getattr(baseline, name), getattr(framework, name)
        r = _ratio(f, b)
        rows.append((name,
                     "none" if b is None else str(b),
                     "none" if f is None else str(f),
                     "undefined" if r is None else repr(r)))
    table_csv = "\n".join(",".join(row) for row in rows) + "\n"
    _atomic_write(os.path.splitext(args.out)[0] + "_compare.csv", table_csv)
    if not args.quiet:
        width = [max(len(row[i]) for row in rows) for i in range(4)]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, width)))
    return 0


def cmd_train(args) -> int:
    sc = _load(args)
    examples = engine.collect_training_examples(sc)
    if not examples:
        raise EmptyTrainingSet(
            "warm-up run produced no candidate readings to train on")
    model = pipeline.train_classifier(examples)
    accuracy = pipeline.training_accuracy(model, examples)
    pipeline.save_model(model, args.out)
    if not args.quiet:
        print(f"trained on {len(examples)} examples, "
              f"training accuracy {accuracy:.4f}")
        print(f"model written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iirsim",
        description="Round-based WSN simulator comparing forward-everything "
                    "against in-network staircase filtering.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument("--out", default="report", help="output path or stem")
        p.add_argument("--quiet", action="store_true")

    def report_and_model(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--model", default=None,
                       help="path to a trained classifier model file")

    p_run = sub.add_parser("run", help="run one simulation")
    common(p_run)
    report_and_model(p_run)
    p_run.add_argument("--mode", choices=("baseline", "framework"),
                       default=None)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run baseline and framework on the same seed")
    common(p_cmp)
    report_and_model(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_train = sub.add_parser("train", help="train the sentiment classifier")
    common(p_train)
    p_train.set_defaults(func=cmd_train, out="model.txt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

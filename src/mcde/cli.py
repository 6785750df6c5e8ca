"""Command-line entry point.

Subcommands: gen-data, train, estimate, bench.  Exit statuses are a
stable contract: 0 success, 2 usage error (bad flags or config file),
1 runtime error (bad data, divergence, I/O failures).

Each subcommand accepts ``--config FILE`` naming a JSON object.  A key
is the name of one of the subcommand's flags with ``_`` for ``-``
(``noise_std`` for ``--noise-std``), and its value is checked exactly
like that flag given on the command line: a string or a number, or a
list of strings for ``--models``.  Required flags may come from the
file, and explicit flags override config values.

A flag that sets a config field has the field's name as its dest, so
``bench.fill`` builds the config from the parsed flags and ``_defaults``
gives the flags the config's defaults.  All randomness flows from
``--seed``; derived sub-seeds are stable hashes of (seed, purpose), so
every run is reproducible from its echoed configuration alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from mcde import datagen, fusion
from mcde._check import check_int, check_real
from mcde.bench import BenchConfig, TrainableSpec, crossval, fill, stats, train_member, write_report
from mcde.color import METRICS, apply_von_kries
from mcde.datagen import MAX_SIDE, POOLS, DatasetFormatError, GenConfig
from mcde.mc import MAX_NU
from mcde.nn import ModelFormatError, load_network, save_network
from mcde.nn.archs import ARCHITECTURES, MAX_CHANNELS
from mcde.nn.training import MAX_LEARNING_RATE
from mcde.seeding import MAX_SEED, derive_seed

__all__ = ["main"]

_RUNTIME_ERRORS = (
    ValueError,
    KeyError,
    IndexError,
    OSError,
    DatasetFormatError,
    ModelFormatError,
    RuntimeError,  # includes TrainingError, NumericError and failed folds
)


def _span(text: str) -> tuple[int, int]:
    """Parse a half-open scene range written as ``start:stop``."""
    try:
        start_text, stop_text = text.split(":")
        start, stop = int(start_text), int(stop_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop, got {text!r}"
        ) from None
    if start < 0 or stop <= start:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return start, stop


def _flag(check, *bounds):
    """A flag type: the text as ``check``'s kind of number, within ``bounds``."""
    convert, kind = (int, "an integer") if check is check_int else (float, "a number")

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None
        try:
            check("value", value, *bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """Flag tokens equivalent to the config file at ``path``.

    Each key names one of ``parser``'s flags, with ``_`` for ``-``; the
    tokens go through the same parser, so they get the same type, range
    and choices checks as typed flags.
    """
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:  # bad JSON, bad UTF-8 or an over-long integer
        parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(values, dict):
        parser.error("config file must hold a JSON object")
    actions = {
        action.option_strings[0].removeprefix("--").replace("-", "_"): action
        for action in parser._actions
        if action.dest not in ("help", "config")
    }
    tokens = []
    for key, value in values.items():
        action = actions.get(key)
        if action is None:
            parser.error(f"unknown config key {key!r} (allowed: {sorted(actions)})")
        # JSON kinds argparse cannot see: a flag without a numeric type
        # takes only a string, and only a multi-value flag takes a list.
        multi = action.nargs == "+" and isinstance(value, list)
        items = value if multi else [value]
        kinds = str if action.type is None else (str, int, float)
        if not items or any(
            isinstance(item, bool) or not isinstance(item, kinds) for item in items
        ):
            parser.error(f"config key {key!r}: unexpected value {value!r}")
        option = action.option_strings[0]
        if multi:
            tokens += [option, *items]
        else:
            tokens.append(f"{option}={value}")
    return tokens


# ---------------------------------------------------------------------------
# Subcommand bodies.


def _cmd_gen_data(args) -> None:
    config = fill(GenConfig, args)
    scenes = (datagen.gen_scene(config, i) for i in range(config.n_scenes))
    datagen.save(datagen.Dataset(scenes, config), args.out)
    spec = POOLS[args.pool]
    print(f"wrote {config.n_scenes} scenes to {args.out}")
    print(
        f"illuminant pool {args.pool}: azimuth {spec.phi_deg[0]:g}-{spec.phi_deg[1]:g} deg, "
        f"inclination {spec.varphi_deg[0]:g}-{spec.varphi_deg[1]:g} deg"
    )


def _read_span(path, start: int, stop: int, what: str) -> list:
    """Scenes ``start`` to ``stop - 1`` of the dataset at ``path``, read
    without any other scene file; a span past the end is refused naming
    ``what``."""
    reader = datagen.DatasetReader(path)
    n_scenes = reader.config.n_scenes
    if stop > n_scenes:
        raise IndexError(f"{what} out of range (dataset has {n_scenes} scenes)")
    return reader.scenes(start, stop)


def _cmd_train(args) -> None:
    subset = args.subset
    if subset is None:
        scenes = datagen.load(args.data).scenes
    else:
        start, stop = subset
        scenes = _read_span(args.data, start, stop, f"scene range {start}:{stop}")
    spec = fill(TrainableSpec, args, name=args.arch)
    net, trace = train_member(
        spec,
        scenes,
        init_seed=derive_seed("init", args.base_seed, args.arch),
        train_seed=derive_seed("train", args.base_seed, args.arch),
    )
    training_meta = {
        **asdict(spec),
        "seed": args.base_seed,
        "data": str(args.data),
        "subset": list(subset) if subset is not None else None,
        "n_scenes": len(scenes),
    }
    save_network(net, args.out, training=training_meta, loss_trace=trace)
    print(f"trained {args.arch} on {len(scenes)} scenes for {args.epochs} epochs")
    if trace:
        print(f"final epoch mean loss {trace[-1]:.6g}")
    print(f"saved model to {args.out}")


def _cmd_estimate(args) -> None:
    nets = []
    for path in args.models:
        try:
            nets.append(load_network(path))
        except ModelFormatError as exc:
            raise ModelFormatError(f"{path}: {exc}") from exc
    index = args.index
    (scene,) = _read_span(args.data, index, index + 1, f"scene index {index}")
    result = fusion.mcde(
        nets, scene.pixels, nu=args.nu, base_seed=args.base_seed, variant=args.variant
    )
    record = {
        "config": {
            "models": [str(p) for p in args.models],
            "data": str(args.data),
            "index": args.index,
            "nu": args.nu,
            "seed": args.base_seed,
            "variant": args.variant,
        },
        "fused": [float(v) for v in result.fused],
        "weights": [float(w) for w in result.weights],
        "raw_scores": [float(s) for s in result.raw_scores],
        "per_model": [
            {
                "mean": [float(v) for v in est.mean],
                "sigma": [float(v) for v in est.sigma],
                "mu": float(est.mu),
            }
            for est in result.estimates
        ],
        "ground_truth": [float(v) for v in scene.label],
        "errors": {
            f"{name}_deg": float(error(scene.label, result.fused))
            for name, error in METRICS.items()
        },
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.save_corrected is not None:
        corrected = apply_von_kries(scene.pixels, result.fused)
        Path(args.save_corrected).write_bytes(
            np.ascontiguousarray(corrected, dtype="<f4").tobytes()
        )


def _cmd_bench(args) -> None:
    dataset = datagen.load(args.data)
    n_scenes = len(dataset.scenes)
    trainables = tuple(fill(TrainableSpec, args, name=arch, arch=arch) for arch in ARCHITECTURES)
    report = crossval(dataset, fill(BenchConfig, args, trainables=trainables))
    del dataset  # the report holds no scene: write_report runs without them
    write_report(report, args.out)
    print(f"benchmark: {n_scenes} scenes, {args.folds} folds, nu={args.nu}")
    print(f"{'method':>16}  {'mean':>6} {'med':>6} {'tri':>6} {'b25':>6} {'w25':>6}  (recovery, deg)")
    for (method, metric), errors in report.errors.items():
        if metric == "recovery":
            s = stats(errors)
            print(
                f"{method:>16}  {s.mean:6.1f} {s.median:6.1f} {s.trimean:6.1f} "
                f"{s.best25_mean:6.1f} {s.worst25_mean:6.1f}"
            )
    print(f"report written to {args.out}")


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON file with flag defaults (flags override)")
    parser.add_argument("--seed", type=_flag(check_int, 0, MAX_SEED), default=0,
                        dest="base_seed", metavar="SEED", help="master seed")


def _defaults(parser: argparse.ArgumentParser, config_class) -> None:
    """Default each of ``parser``'s flags whose dest is a field of
    ``config_class`` to that field's default."""
    dests = {action.dest for action in parser._actions}
    parser.set_defaults(**{
        field.name: field.default
        for field in fields(config_class)
        if field.name in dests and field.default is not MISSING
    })


def _add_training(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=_flag(check_int, 0))
    parser.add_argument("--lr", type=_flag(check_real, 0.0, MAX_LEARNING_RATE),
                        dest="learning_rate", metavar="LR")
    parser.add_argument("--batch-size", type=_flag(check_int, 1))
    parser.add_argument("--channels", type=_flag(check_int, 1, MAX_CHANNELS))
    parser.add_argument("--dropout", type=_flag(check_real, 0.0, 1.0),
                        dest="dropout_rate", metavar="DROPOUT")
    _defaults(parser, TrainableSpec)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mcde",
        description="Monte Carlo dropout ensembles for illuminant estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("gen-data", help="generate a synthetic scene dataset")
    p.add_argument("--scenes", type=_flag(check_int, 1), required=True, dest="n_scenes",
                   metavar="SCENES", help="number of scenes")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--width", type=_flag(check_int, 8, MAX_SIDE))
    p.add_argument("--height", type=_flag(check_int, 8, MAX_SIDE))
    p.add_argument("--patches", type=_flag(check_int, 1), dest="n_patches", metavar="PATCHES")
    p.add_argument("--pool", choices=sorted(POOLS), help="illuminant pool to draw labels from")
    p.add_argument("--noise-std", type=_flag(check_real, 0.0, 1.0))
    _add_common(p)
    _defaults(p, GenConfig)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one stock architecture")
    p.add_argument("--arch", choices=sorted(ARCHITECTURES), required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output model path")
    _add_training(p)
    p.add_argument("--subset", type=_span, default=None, metavar="START:STOP",
                   help="train on a half-open scene range")
    _add_common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("estimate", help="fused illuminant estimate for one scene")
    p.add_argument("--models", nargs="+", required=True, help="model paths")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--index", type=_flag(check_int, 0), default=0, help="scene index")
    p.add_argument("--nu", type=_flag(check_int, 1, MAX_NU), default=30,
                   help=f"MC passes per model, at most {MAX_NU}")
    p.add_argument("--variant", choices=tuple(fusion.VARIANTS), default="log")
    p.add_argument("--save-corrected", default=None, metavar="FILE",
                   help="write the corrected scene as little-endian float32")
    _add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bench", help="cross-validated benchmark report")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output report directory")
    p.add_argument("--k", type=_flag(check_int, 2), dest="folds", metavar="K",
                   help="number of folds")
    p.add_argument("--nu", type=_flag(check_int, 1, MAX_NU))
    _add_training(p)
    p.add_argument("--sog-p", type=_flag(check_real, 1.0),
                   help="Minkowski norm for the shades-of-grey baseline")
    p.add_argument("--workers", type=_flag(check_int, 1),
                   help="parallel fold workers (does not change results)")
    _add_common(p)
    _defaults(p, BenchConfig)
    p.set_defaults(func=_cmd_bench)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        if argv and argv[0] in subparsers:
            # With all of the subcommand's flags, an abbreviation resolves, or
            # fails as ambiguous, as in the subcommand's parser.  A --config
            # without a value reads as None; the subcommand's parser reports it.
            pre = argparse.ArgumentParser(add_help=False)
            pre.error = subparsers[argv[0]].error
            for action in subparsers[argv[0]]._actions:
                pre.add_argument(*action.option_strings, nargs="?")
            config_path = pre.parse_known_args(argv[1:])[0].config
            if config_path is not None:
                # Ahead of the typed flags, so that an explicit flag wins.
                argv[1:1] = _config_tokens(subparsers[argv[0]], config_path)
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 2 after a usage error, 0 after --help
        return int(exc.code or 0)
    try:
        args.func(args)
    except _RUNTIME_ERRORS as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

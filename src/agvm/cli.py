"""Command-line entry points.

Subcommands: train (one experiment), ablate (all ablation arms),
variance-trace (observation only, no updates), grad-check (finite-difference
validation of the model's gradients), oracle-check (analytic variance
estimate vs the brute-force oracle).

Any config key can be overridden with ``--key=value``; unknown keys are a
hard error. The AGVM_SEED environment variable overrides the config seed
(explicit --seed=... flags still win).
"""

from __future__ import annotations

import argparse
import sys

from .harness import (_coerce, ablation_suite, emit_csv, load_config, oracle_check,
                      run_experiment, summary_text, variance_trace)
from .models import ConfigError, SyntheticModel, make_dataset
from .tensor import grad_check


def _split_overrides(extras):
    overrides = {}
    for token in extras:
        if not token.startswith("--") or "=" not in token:
            raise ConfigError(f"unrecognized argument {token!r}; overrides look like --key=value")
        key, value = token[2:].split("=", 1)
        overrides[key] = value
    return overrides


def _build_parser():
    parser = argparse.ArgumentParser(prog="agvm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="trace CSV path")

    common(sub.add_parser("train", help="run one experiment"))
    ab = sub.add_parser("ablate", help="run the ablation arms with identical seeds")
    ab.add_argument("--config", help="flat key = value config file")
    common(sub.add_parser("variance-trace", help="trace per-module variance without updates"))
    gc = sub.add_parser("grad-check", help="finite-difference check of model gradients")
    gc.add_argument("--config", help="flat key = value config file")
    # integer flags are parsed in _dispatch, so a bad value is a ConfigError
    gc.add_argument("--probes", default="20")
    oc = sub.add_parser("oracle-check", help="variance estimate vs brute-force oracle")
    oc.add_argument("--seed", default="0")
    oc.add_argument("--resamples", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    try:
        return _dispatch(args, extras)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, extras) -> int:
    if args.command == "oracle-check":
        if extras:
            raise ConfigError(f"unrecognized arguments: {' '.join(extras)}")
        resamples = None if args.resamples is None else _coerce("resamples", int, args.resamples)
        report = oracle_check(seed=_coerce("seed", int, args.seed), resamples=resamples)
        print(summary_text(report))
        return 0

    overrides = _split_overrides(extras)

    if args.command == "grad-check":
        probes = _coerce("probes", int, args.probes)
        if probes < 1:
            raise ConfigError(f"probes must be >= 1, got {probes}")
        config = load_config(args.config, overrides)
        model = SyntheticModel(config.model_config(), seed=config.seed)
        inputs, targets = make_dataset(config.n_samples, config.input_dim,
                                       config.output_dim, config.noise_std,
                                       config.dataset_seed)
        batch = min(8, config.n_samples)
        try:
            err = grad_check(lambda: model.loss(inputs[:batch], targets[:batch], mask_seed=0),
                             model.params, probe_count=probes, seed=config.seed)
        except ValueError as exc:   # the config's model has a non-finite loss
            raise ConfigError(str(exc)) from None
        # grad_check probes each coordinate at most once
        coords = sum(p.size for p in model.params if p.requires_grad)
        print(summary_text({"max_rel_err": err, "probes": min(probes, coords)}))
        return 0

    if args.command == "ablate":
        config = load_config(args.config, overrides)
        results = ablation_suite(config)
        for arm, summary in results.items():
            print(f"[{arm}]")
            print(summary_text(summary))
            print()
        return 0

    config = load_config(args.config, overrides)
    result = variance_trace(config) if args.command == "variance-trace" else run_experiment(config)
    if args.out:
        emit_csv(result.trace, args.out)
    print(summary_text(result.summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

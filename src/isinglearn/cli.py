"""Command-line front end.

Subcommands: gen-model, sample, fit, learn, verify, nmin, error-curve.
Exit codes: 0 success, 2 input error (bad arguments, malformed files,
dimension mismatches), 3 capability error (e.g. exact enumeration
above its size guard), 4 when a fit ran but was flagged as not
converged (outputs are still written), 1 when verify ran but an oracle
failed (the report is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .errors import CapabilityError, InputError
from .estimator import (_check_threshold, edges_from_estimates,
                        fit_all_nodes, fit_node, lambda_schedule,
                        report_fields, result_to_json)
from .experiments import (ExperimentManifest, manifest_from_dict,
                          run_error_curve, run_nmin_search)
from .model import (load_model, make_grid_model, make_random_model,
                    save_model)
from .sampler import (_MAGIC, RNG_ALGORITHM, GlauberConfig,
                      read_samples_binary, read_samples_text, sample_exact,
                      sample_glauber, write_samples_binary, write_samples_text)
from .solver import SolverConfig
from .theory import verification_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_NOT_CONVERGED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isinglearn",
        description="Learn zero-field Ising model structure from samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-model", help="write a model JSON file")
    kind = gen.add_mutually_exclusive_group()
    kind.add_argument("--ferro", action="store_true",
                      help="uniform +beta couplings (default)")
    kind.add_argument("--spin-glass", action="store_true",
                      help="random coupling signs (needs --seed)")
    gen.add_argument("--grid", type=int, metavar="SIDE",
                     help="periodic SIDE x SIDE grid")
    gen.add_argument("--random", type=int, metavar="P",
                     help="random graph on P vertices")
    gen.add_argument("--edge-prob", type=float, default=0.2,
                     help="edge probability for --random (default 0.2)")
    gen.add_argument("--alpha", type=float, default=0.4,
                     help="min coupling magnitude for --random (default 0.4)")
    gen.add_argument("--beta", type=float, default=0.7,
                     help="coupling magnitude (default 0.7)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    smp = sub.add_parser("sample", help="draw configurations from a model")
    smp.add_argument("--model", required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--seed", type=int, required=True)
    how = smp.add_mutually_exclusive_group()
    how.add_argument("--exact", action="store_true",
                     help="inverse-CDF over the enumerated distribution (default)")
    how.add_argument("--glauber", action="store_true",
                     help="heat-bath chain, one colour class at a time")
    smp.add_argument("--burn-in", type=int, default=1000)
    smp.add_argument("--thin", type=int, default=10)
    smp.add_argument("--binary", action="store_true",
                     help="write the packed binary format instead of text")
    smp.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="penalized fit of one vertex")
    fit.add_argument("--samples", required=True)
    fit.add_argument("--node", type=int, required=True)
    fit.add_argument("--lambda", dest="lam", type=float, required=True)
    fit.add_argument("--kkt-tol", type=float, default=1e-7)
    fit.add_argument("--out", default=None, help="default: stdout")

    lrn = sub.add_parser("learn", help="recover the full edge set")
    lrn.add_argument("--samples", required=True)
    lrn.add_argument("--epsilon", type=float, default=0.05,
                     help="confidence for the penalty schedule (default 0.05)")
    lrn.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="override the schedule")
    lrn.add_argument("--threshold", type=float, required=True,
                     help="edge threshold on |theta_ij + theta_ji|")
    lrn.add_argument("--kkt-tol", type=float, default=1e-7)
    lrn.add_argument("--out", default=None, help="default: stdout")

    ver = sub.add_parser("verify", help="run the oracle suite on a model")
    ver.add_argument("--model", required=True)
    ver.add_argument("--seed", type=int, required=True)
    ver.add_argument("--n", type=int, default=10000)
    ver.add_argument("--sets", type=int, default=200)
    ver.add_argument("--trials", type=int, default=200,
                     help="cone directions for the curvature oracle")
    ver.add_argument("--epsilon", type=float, default=0.1)
    ver.add_argument("--out", default=None, help="default: stdout")

    for name, what in (("nmin", "minimal sample size search"),
                       ("error-curve", "coupling error vs sample size")):
        exp = sub.add_parser(name, help=what)
        exp.add_argument("--manifest", required=True,
                         help="JSON file of ExperimentManifest fields")
        exp.add_argument("--out", default=None, help="override manifest.out")
        exp.add_argument("--trials", type=int, default=None,
                         help="override manifest.trials")

    return parser


_PARSER = _build_parser()


def _read_samples(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MAGIC:
        return read_samples_binary(path)
    return read_samples_text(path)


def _cmd_gen_model(args) -> int:
    if (args.grid is None) == (args.random is None):
        raise InputError("choose exactly one of --grid or --random")
    if args.grid is not None:
        kind = "spin_glass" if args.spin_glass else "ferromagnet"
        model = make_grid_model(args.grid, args.beta, kind, seed=args.seed)
    else:
        model = make_random_model(args.random, args.edge_prob, args.alpha,
                                  args.beta, args.seed)
    save_model(model, args.out)
    print(f"wrote {args.out}: p={model.p}, edges={len(model.couplings)}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    if args.glauber:
        cfg = GlauberConfig(seed=args.seed, burn_in_sweeps=args.burn_in,
                            thinning_sweeps=args.thin)
        samples = sample_glauber(model, args.n, cfg)
        how = "glauber"
    else:
        samples = sample_exact(model, args.n, args.seed)
        how = "exact"
    if args.binary:
        write_samples_binary(samples, args.out)
    else:
        write_samples_text(samples, args.out)
    print(f"wrote {args.out}: {samples.n} samples of p={samples.p} "
          f"({how}, rng={RNG_ALGORITHM}, seed={args.seed})")
    return EXIT_OK


def _emit(text: str, out: str | None):
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _cmd_fit(args) -> int:
    samples = _read_samples(args.samples)
    config = SolverConfig(kkt_tolerance=args.kkt_tol)
    est = fit_node(samples, args.node, args.lam, config)
    payload = {
        "u": est.u,
        "lambda": est.lambda_used,
        "others": [int(v) for v in np.delete(np.arange(samples.p), est.u)],
        "theta_hat": [float(v) for v in est.theta_hat],
        **report_fields(est.report),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK if est.report.converged else EXIT_NOT_CONVERGED


def _cmd_learn(args) -> int:
    _check_threshold(args.threshold)
    start = time.perf_counter()
    samples = _read_samples(args.samples)
    read = time.perf_counter()
    distinct = samples.tally.spins.shape[1]
    tally = time.perf_counter()
    lam = args.lam
    if lam is None:
        lam = lambda_schedule(samples.p, samples.n, args.epsilon,
                              mode="structure")
    config = SolverConfig(kkt_tolerance=args.kkt_tol)
    estimates = fit_all_nodes(samples, lam, config)
    solve = time.perf_counter()
    edge_set = edges_from_estimates(estimates, args.threshold, samples.p)
    threshold = time.perf_counter()
    run = {"stages": {"read_s": read - start, "tally_s": tally - read,
                      "solve_s": solve - tally,
                      "threshold_s": threshold - solve},
           "distinct_configurations": distinct,
           "compression": samples.n / distinct}
    _emit(result_to_json(lam, args.threshold, edge_set, estimates, run),
          args.out)
    if all(est.report.converged for est in estimates):
        return EXIT_OK
    return EXIT_NOT_CONVERGED


def _cmd_verify(args) -> int:
    model = load_model(args.model)
    report = verification_report(model, args.seed, n=args.n, sets=args.sets,
                                 rsc_trials=args.trials, epsilon=args.epsilon)
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK if report["all_passed"] else 1


def _load_manifest(args) -> ExperimentManifest:
    with open(args.manifest, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"manifest is not ASCII: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise InputError(f"malformed manifest JSON: {exc}") from exc
    # Overrides go through the constructor, so they are validated too.
    overrides = {"out": args.out, "trials": args.trials}
    return dataclasses.replace(
        manifest_from_dict(obj),
        **{k: v for k, v in overrides.items() if v is not None})


def _cmd_experiment(args) -> int:
    if args.command == "nmin":
        run, line = run_nmin_search, ("param={param:g} n_min={n_min} "
                                      "resolved={success}")
    else:
        run, line = run_error_curve, "n={n} mean_error={mean_error:.6g}"
    for r in run(_load_manifest(args)):
        print(line.format(**r), f"wall={r['wall_seconds']:.1f}s")
    return EXIT_OK


_COMMANDS = {
    "gen-model": _cmd_gen_model,
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "learn": _cmd_learn,
    "verify": _cmd_verify,
    "nmin": _cmd_experiment,
    "error-curve": _cmd_experiment,
}


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())

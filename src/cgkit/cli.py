"""Command-line front end.

Subcommands::

    cgkit solve     run the solver, write a trace, print a summary
    cgkit verify    solve, then run every identity check; write the report
    cgkit compare   recompute both stepsize formulas from one run's trace
    cgkit generate  emit a builtin problem as MatrixMarket + b-vector file

Exit codes: 0 success / all checks pass; 1 file, parse or SPD errors;
2 iteration cap reached (solve); 3 breakdown (solve); 4 failed identity
(verify, compare).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .cg import QuadraticProblem, SolverConfig, TerminationReason, solve
from .errors import CgKitError
from .linalg import SpectrumSpec
from .problems_io import (
    BUILTIN_FAMILIES,
    BuiltinProblemSpec,
    TraceDocument,
    builtin_problem,
    read_matrix_market,
    read_vector_file,
    report_to_dict,
    write_matrix_market,
    write_trace,
    write_vector_file,
)
from .verify import check_stepsize_equivalence, run_all_checks

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ITERATION_CAP = 2
EXIT_BREAKDOWN = 3
EXIT_FAILED_CHECK = 4


def _add_problem_arguments(parser: argparse.ArgumentParser) -> None:
    src = parser.add_argument_group("problem source (exactly one)")
    src.add_argument("--matrix", metavar="PATH",
                     help="MatrixMarket file holding the SPD matrix")
    src.add_argument("--builtin", choices=BUILTIN_FAMILIES,
                     help="generated problem family")
    opts = parser.add_argument_group("problem options")
    opts.add_argument("--n", type=int, default=None, help="problem dimension")
    opts.add_argument("--eigs", metavar="V1,V2,...",
                      help="diagonal entries (family: diagonal)")
    opts.add_argument("--cond", type=float, default=None,
                      help="condition number for random_spd (spectrum in [1, cond])")
    opts.add_argument("--dist", choices=("loguniform", "linear", "clustered"),
                      default="loguniform", help="random_spd spectrum layout")
    opts.add_argument("--clusters", type=int, default=2,
                      help="cluster count for --dist clustered")
    opts.add_argument("--seed", type=int, default=0,
                      help="matrix seed for random_spd")
    opts.add_argument("--b", choices=("ones", "random"), default="ones",
                      help="linear-term mode for builtin problems")
    opts.add_argument("--b-seed", type=int, default=0,
                      help="seed for --b random")
    opts.add_argument("--b-file", metavar="PATH",
                      help="vector file for the linear term (with --matrix)")
    opts.add_argument("--known-solution", metavar="V1,V2,...",
                      help="plant this minimizer (sets b = -A x*)")


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("solver options")
    grp.add_argument("--stepsize", choices=("exact", "orthogonal"),
                     default="exact", help="stepsize rule")
    grp.add_argument("--beta", choices=("fr", "hs", "prp", "dy"), default="fr",
                     help="direction-coupling rule")
    grp.add_argument("--grad-update", choices=("recurrence", "explicit"),
                     default="recurrence", help="gradient update mode")
    grp.add_argument("--tol", type=float, default=None,
                     help="gradient tolerance (default: 1e-12 * ||g_0||)")
    grp.add_argument("--max-iters", type=int, default=None,
                     help="iteration cap (default: problem dimension)")


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as err:
        raise CgKitError(f"{flag} expects comma-separated numbers: {err}") from None


def _build_problem(args) -> tuple[QuadraticProblem, dict]:
    if (args.matrix is None) == (args.builtin is None):
        raise CgKitError("give exactly one problem source: --matrix or --builtin")
    if args.matrix is not None:
        a = read_matrix_market(args.matrix)
        if args.b_file is not None:
            b = read_vector_file(args.b_file)
        elif args.known_solution is not None:
            x_star = np.asarray(_parse_floats(args.known_solution, "--known-solution"))
            b = -a.matvec(x_star)
        elif args.b == "random":
            b = np.random.default_rng(args.b_seed).standard_normal(a.n)
        else:
            b = np.ones(a.n)
        problem = QuadraticProblem(a, b)
        description = {"matrix": args.matrix, "n": a.n, "storage": a.storage}
        return problem, description

    family = args.builtin
    eigenvalues = None
    spectrum = None
    n = args.n
    if family == "diagonal":
        if args.eigs is None:
            raise CgKitError("--builtin diagonal requires --eigs")
        eigenvalues = _parse_floats(args.eigs, "--eigs")
        n = len(eigenvalues) if n is None else n
    elif family == "random_spd":
        if n is None:
            raise CgKitError("--builtin random_spd requires --n")
        cond = args.cond if args.cond is not None else 10.0
        spectrum = SpectrumSpec(lam_min=1.0, lam_max=cond,
                                distribution=args.dist, clusters=args.clusters)
    elif n is None:
        raise CgKitError(f"--builtin {family} requires --n")

    b_mode = "ones"
    known = None
    if args.known_solution is not None:
        b_mode = "from_known_solution"
        known = _parse_floats(args.known_solution, "--known-solution")
    elif args.b == "random":
        b_mode = "random"
    spec = BuiltinProblemSpec(family=family, n=n, eigenvalues=eigenvalues,
                              spectrum=spectrum, seed=args.seed, b_mode=b_mode,
                              b_seed=args.b_seed, known_solution=known)
    return builtin_problem(spec), spec.describe()


def _solver_config(args) -> SolverConfig:
    return SolverConfig(stepsize_rule=args.stepsize, beta_rule=args.beta,
                        gradient_update=args.grad_update,
                        grad_tolerance=args.tol, max_iterations=args.max_iters)


def _solve_exit_code(reason: TerminationReason) -> int:
    if reason == TerminationReason.GRADIENT_BELOW_TOLERANCE:
        return EXIT_OK
    if reason == TerminationReason.ITERATION_CAP:
        return EXIT_ITERATION_CAP
    return EXIT_BREAKDOWN


def _cmd_solve(args) -> int:
    problem, description = _build_problem(args)
    # the printed summary needs no trace: only a trace file records one
    config = replace(_solver_config(args), record_trace=bool(args.output))
    x, trace = solve(problem, config=config)
    if args.output:
        doc = TraceDocument.from_solve(problem, config, trace,
                                       problem_description=description,
                                       include_vectors=args.include_vectors,
                                       timestamp=not args.no_timestamp)
        write_trace(doc, args.output, fmt=args.format)
        print(f"trace written to {args.output}")
    print(f"iterations: {trace.terminated_at}")
    print(f"termination: {trace.termination_reason.value}")
    print(f"final ||g||: {trace.final_grad_norm():.6e}")
    print(f"f(x): {problem.objective(x):.17g}")
    if trace.breakdown:
        print(f"breakdown: {trace.breakdown}", file=sys.stderr)
    return _solve_exit_code(trace.termination_reason)


def _cmd_verify(args) -> int:
    problem, description = _build_problem(args)
    config = _solver_config(args)
    x, trace = solve(problem, config=config)
    report = run_all_checks(trace, problem, tolerance=args.check_tol)
    if args.output:
        doc = TraceDocument.from_solve(problem, config, trace,
                                       problem_description=description,
                                       report=report,
                                       include_vectors=args.include_vectors,
                                       timestamp=not args.no_timestamp)
        write_trace(doc, args.output, fmt="structured")
        print(f"report written to {args.output}")
    print(f"iterations: {trace.terminated_at} "
          f"({trace.termination_reason.value})")
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


def _cmd_compare(args) -> int:
    problem, _ = _build_problem(args)
    config = _solver_config(args)
    _, trace = solve(problem, config=config)
    if not trace.records:
        print("no iterations taken; nothing to compare")
        return EXIT_OK
    report = check_stepsize_equivalence(trace, tolerance=args.tolerance)
    result = report.checks[0]
    print(f"iterations: {trace.terminated_at}")
    print(f"max relative stepsize discrepancy: {result.worst:.6e} "
          f"(tolerance {result.tolerance:.0e})")
    print("the two stepsize formulas agree" if result.passed
          else "stepsize formulas disagree beyond tolerance")
    return EXIT_OK if result.passed else EXIT_FAILED_CHECK


def _cmd_generate(args) -> int:
    problem, description = _build_problem(args)
    if args.matrix is not None:
        raise CgKitError("generate works with --builtin sources")
    write_matrix_market(problem.A, args.out_matrix, fmt=args.mtx_format)
    write_vector_file(problem.b, args.out_b)
    print(f"matrix written to {args.out_matrix}")
    print(f"b vector written to {args.out_b}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgkit",
        description="Conjugate-gradient solver and identity verifier for "
                    "SPD quadratic minimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver and write a trace")
    _add_problem_arguments(p_solve)
    _add_solver_arguments(p_solve)
    p_solve.add_argument("--output", metavar="PATH", help="trace file to write")
    p_solve.add_argument("--format", choices=("structured", "tabular"),
                         default="structured", help="trace file format")
    p_solve.add_argument("--include-vectors", action="store_true",
                         help="embed per-iteration vectors in the trace")
    p_solve.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp for byte-reproducible output")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify",
                              help="solve, then certify every identity")
    _add_problem_arguments(p_verify)
    _add_solver_arguments(p_verify)
    p_verify.add_argument("--check-tol", type=float, default=None,
                          help="normalized identity tolerance "
                               "(default: 1e-8, relaxed above condition 1e4)")
    p_verify.add_argument("--output", metavar="PATH", help="report file to write")
    p_verify.add_argument("--include-vectors", action="store_true",
                          help="embed per-iteration vectors in the report")
    p_verify.add_argument("--no-timestamp", action="store_true",
                          help="omit the timestamp for byte-reproducible output")
    p_verify.set_defaults(func=_cmd_verify)

    p_compare = sub.add_parser(
        "compare", help="compare the two stepsize formulas on one run")
    _add_problem_arguments(p_compare)
    _add_solver_arguments(p_compare)
    p_compare.add_argument("--tolerance", type=float, default=1e-12,
                           help="relative discrepancy tolerance")
    p_compare.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("generate",
                           help="emit a builtin problem as files")
    _add_problem_arguments(p_gen)
    p_gen.add_argument("--out-matrix", required=True, metavar="PATH",
                       help="MatrixMarket output path")
    p_gen.add_argument("--out-b", required=True, metavar="PATH",
                       help="b-vector output path (one decimal per line)")
    p_gen.add_argument("--mtx-format", choices=("coordinate", "array"),
                       default=None, help="force a MatrixMarket format")
    p_gen.set_defaults(func=_cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CgKitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:  # console-script shim
    sys.exit(main())

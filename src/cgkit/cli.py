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
import io
import sys

from .cg import (DEFAULT_RELATIVE_TOLERANCE, QuadraticProblem, SolverConfig,
                 TerminationReason, solve)
from .errors import CgKitError, IncompleteTraceError
from .linalg import SpectrumSpec
from .problems_io import (
    BUILTIN_FAMILIES,
    MTX_FORMATS,
    TRACE_FORMATS,
    BuiltinProblemSpec,
    TraceDocument,
    _linear_term,
    _read_matrix,
    builtin_problem,
    read_vector_file,
    report_to_dict,
    write_matrix_market,
    write_trace,
    write_vector_file,
)
from .verify import (CONDITION_RELAX_THRESHOLD, DEFAULT_CHECK_TOLERANCE, STEPSIZE_TOLERANCE,
                     check_stepsize_equivalence, run_all_checks)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ITERATION_CAP = 2
EXIT_BREAKDOWN = 3
EXIT_FAILED_CHECK = 4

# the format of a document written without --format: write_trace's own
_DEFAULT_FORMAT = write_trace.__kwdefaults__["fmt"]


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
    opts.add_argument("--dist", choices=SpectrumSpec._DISTRIBUTIONS, help=(
        f"random_spd spectrum layout (default: {SpectrumSpec.distribution})"))
    opts.add_argument("--clusters", type=int, help=(
        f"cluster count for --dist clustered (default: {SpectrumSpec.clusters})"))
    opts.add_argument("--seed", type=int, help=(
        f"matrix seed for random_spd (default: {BuiltinProblemSpec.seed})"))
    opts.add_argument("--b", choices=("ones", "random"), default=None,
                      help=f"linear-term mode (default: {BuiltinProblemSpec.b_mode})")
    opts.add_argument("--b-seed", type=int, help=(
        f"seed for --b random (default: {BuiltinProblemSpec.b_seed})"))
    opts.add_argument("--b-file", metavar="PATH",
                      help="vector file for the linear term (with --matrix)")
    opts.add_argument("--known-solution", metavar="V1,V2,...",
                      help="plant this minimizer (sets b = -A x*)")


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    grp = parser.add_argument_group("solver options")
    # each rule flag takes the values of its SolverConfig field's enum and
    # that field's default
    for flag, field, text in (("--stepsize", "stepsize_rule", "stepsize rule"),
                              ("--beta", "beta_rule", "direction-coupling rule"),
                              ("--grad-update", "gradient_update", "gradient update mode")):
        default = getattr(SolverConfig, field)
        grp.add_argument(flag, choices=[rule.value for rule in type(default)],
                         default=default.value, help=text)
    grp.add_argument("--tol", type=float, default=None, help=(
        f"gradient tolerance (default: {DEFAULT_RELATIVE_TOLERANCE:g} * ||g_0||)"))
    grp.add_argument("--max-iters", type=int, default=None,
                     help="iteration cap (default: problem dimension)")


def _add_output_arguments(parser: argparse.ArgumentParser, what: str) -> None:
    """The document options of ``solve`` (``what="trace"``, which also takes
    ``--format``) and ``verify`` (``what="report"``)."""
    parser.add_argument("--output", metavar="PATH", help=f"{what} file to write")
    if what == "trace":
        parser.add_argument("--format", choices=TRACE_FORMATS, help="trace file format")
    parser.add_argument("--include-vectors", action="store_true",
                        help=f"embed per-iteration vectors in the {what}")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-reproducible output")


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list, read as a vector file of one
    field a line.  A field that ``float`` refuses, a blank one too, is
    refused in ``float``'s words; any other outside the vector file's
    syntax (``1_0``, ``+2``, a non-ASCII digit) in the reader's."""
    fields = text.split(",")
    try:
        for field in fields:
            float(field)
        return tuple(read_vector_file(io.StringIO("\n".join(fields))).tolist())
    except ValueError as err:  # MatrixMarketError is a ValueError
        raise CgKitError(f"{flag} expects comma-separated numbers: {err}") from None


# An option the command would not read is refused, not dropped.  Each row
# names an option, what it works with and the test on the parsed arguments
# that it holds; the first option given whose test fails is refused.
_WORKS_WITH = (
    ("--b-file", "--matrix sources", lambda args: args.matrix is not None),
    ("--n", "--builtin sources", lambda args: args.builtin is not None),
    ("--eigs", "--builtin diagonal", lambda args: args.builtin == "diagonal"),
    *((flag, "--builtin random_spd", lambda args: args.builtin == "random_spd")
      for flag in ("--cond", "--dist", "--clusters", "--seed")),
    ("--clusters", "--dist clustered", lambda args: args.dist == "clustered"),
    ("--b-seed", "--b random", lambda args: args.b == "random"),
    *((flag, "--output", lambda args: args.output is not None)
      for flag in ("--include-vectors", "--format", "--no-timestamp")),
    ("--include-vectors", f"--format {_DEFAULT_FORMAT}",
     lambda args: getattr(args, "format", None) in (None, _DEFAULT_FORMAT)),
)


def _build_problem(args) -> tuple[QuadraticProblem, dict]:
    if (args.matrix is None) == (args.builtin is None):
        raise CgKitError("give exactly one problem source: --matrix or --builtin")
    for flag, needs, holds in _WORKS_WITH:
        # a row whose option this command lacks reads None
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value is not False and not holds(args):
            raise CgKitError(f"{flag} works with {needs}")
    given = [flag for flag, value in (("--b", args.b), ("--b-file", args.b_file),
                                      ("--known-solution", args.known_solution))
             if value is not None]
    if len(given) > 1:
        raise CgKitError(f"give at most one linear term, not {' and '.join(given)}")
    b_mode, known = "ones", None
    if args.known_solution is not None:
        b_mode = "from_known_solution"
        known = _parse_floats(args.known_solution, "--known-solution")
    elif args.b == "random":
        b_mode = "random"
    if args.matrix is not None:
        a = _read_matrix(args.matrix)  # QuadraticProblem below certifies it
        b = (read_vector_file(args.b_file) if args.b_file is not None
             else _linear_term(a, b_mode, args.b_seed or 0, known))
        description = {"matrix": args.matrix, "n": a.n, "storage": a.storage}
        return QuadraticProblem(a, b), description

    family = args.builtin
    required = "--eigs" if family == "diagonal" else "--n"
    if getattr(args, required[2:]) is None:
        raise CgKitError(f"--builtin {family} requires {required}")
    eigenvalues = None
    spectrum = None
    n = args.n
    if family == "diagonal":
        eigenvalues = _parse_floats(args.eigs, "--eigs")
        n = len(eigenvalues) if n is None else n
    elif family == "random_spd":
        cond = args.cond if args.cond is not None else 10.0
        spectrum = SpectrumSpec(
            lam_min=1.0, lam_max=cond, distribution=args.dist or SpectrumSpec.distribution,
            clusters=SpectrumSpec.clusters if args.clusters is None else args.clusters)

    spec = BuiltinProblemSpec(family=family, n=n, eigenvalues=eigenvalues,
                              spectrum=spectrum, seed=args.seed or 0, b_mode=b_mode,
                              b_seed=args.b_seed or 0, known_solution=known)
    return builtin_problem(spec), spec.describe()


def _run(args, record_trace: bool = True):
    """The problem, its description, the solver configuration and the
    trace of the solve that ``args`` ask for."""
    problem, description = _build_problem(args)
    config = SolverConfig(stepsize_rule=args.stepsize, beta_rule=args.beta,
                          gradient_update=args.grad_update, grad_tolerance=args.tol,
                          max_iterations=args.max_iters, record_trace=record_trace)
    _, trace = solve(problem, config=config)
    return problem, description, config, trace


def _solve_exit_code(reason: TerminationReason) -> int:
    if reason == TerminationReason.GRADIENT_BELOW_TOLERANCE:
        return EXIT_OK
    if reason == TerminationReason.ITERATION_CAP:
        return EXIT_ITERATION_CAP
    return EXIT_BREAKDOWN


def _write_document(args, problem, config, trace, description, report=None) -> None:
    doc = TraceDocument.from_solve(problem, config, trace,
                                   problem_description=description, report=report,
                                   include_vectors=args.include_vectors,
                                   timestamp=not args.no_timestamp)
    write_trace(doc, args.output, fmt=getattr(args, "format", None) or _DEFAULT_FORMAT)
    print(f"{'trace' if report is None else 'report'} written to {args.output}")


def _cmd_solve(args) -> int:
    # the printed summary needs no trace: only a trace file records one
    problem, description, config, trace = _run(args, record_trace=bool(args.output))
    if args.output:
        _write_document(args, problem, config, trace, description)
    print(f"iterations: {trace.terminated_at}")
    print(f"termination: {trace.termination_reason.value}")
    print(f"final ||g||: {trace.final_grad_norm():.6e}")
    print(f"f(x): {problem.objective(trace.final_x):.17g}")
    if trace.breakdown:
        print(f"breakdown: {trace.breakdown}", file=sys.stderr)
    return _solve_exit_code(trace.termination_reason)


def _cmd_verify(args) -> int:
    problem, description, config, trace = _run(args)
    report = run_all_checks(trace, problem, tolerance=args.check_tol)
    if args.output:
        _write_document(args, problem, config, trace, description, report)
    print(f"iterations: {trace.terminated_at} "
          f"({trace.termination_reason.value})")
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


def _cmd_compare(args) -> int:
    trace = _run(args)[3]
    try:  # the tolerance is checked first, with or without iterations
        report = check_stepsize_equivalence(trace, tolerance=args.tolerance)
    except IncompleteTraceError:
        print("no iterations taken; nothing to compare")
        return EXIT_OK
    result = report.checks[0]
    print(f"iterations: {trace.terminated_at}")
    print(f"max relative stepsize discrepancy: {result.worst:.6e} "
          f"(tolerance {result.tolerance:.0e})")
    print("the two stepsize formulas agree" if result.passed
          else "stepsize formulas disagree beyond tolerance")
    return EXIT_OK if result.passed else EXIT_FAILED_CHECK


def _cmd_generate(args) -> int:
    if args.matrix is not None:  # refused before the file is read
        raise CgKitError("generate works with --builtin sources")
    problem, _ = _build_problem(args)
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
    _add_output_arguments(p_solve, "trace")
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify",
                              help="solve, then certify every identity")
    _add_problem_arguments(p_verify)
    _add_solver_arguments(p_verify)
    p_verify.add_argument("--check-tol", type=float, default=None,
                          help=f"normalized identity tolerance (default: "
                               f"{DEFAULT_CHECK_TOLERANCE:.0e}, relaxed above "
                               f"condition {CONDITION_RELAX_THRESHOLD:.0e})")
    _add_output_arguments(p_verify, "report")
    p_verify.set_defaults(func=_cmd_verify)

    p_compare = sub.add_parser(
        "compare", help="compare the two stepsize formulas on one run")
    _add_problem_arguments(p_compare)
    _add_solver_arguments(p_compare)
    p_compare.add_argument("--tolerance", type=float, default=STEPSIZE_TOLERANCE,
                           help="relative discrepancy tolerance")
    p_compare.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("generate",
                           help="emit a builtin problem as files")
    _add_problem_arguments(p_gen)
    p_gen.add_argument("--out-matrix", required=True, metavar="PATH",
                       help="MatrixMarket output path")
    p_gen.add_argument("--out-b", required=True, metavar="PATH",
                       help="b-vector output path (one decimal per line)")
    p_gen.add_argument("--mtx-format", choices=MTX_FORMATS,
                       help="force a MatrixMarket format")
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

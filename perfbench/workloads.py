"""The three workloads, run inside one child process per workload.

Each workload builds its inputs from the seed (``setup``), computes its
references with NumPy/SciPy, then runs rounds in a closed loop: one client,
and the next operation starts only when the previous one has finished.  A
round runs every input of the workload once; reference checks run between
operations, outside the timed regions.

Why these workloads (the layers each one stresses):

* ``sparse-solve``: CSR matvecs and per-iteration vector work, with the
  trace off and on; verify does nothing here.
* ``certify``: verify and the JSON report on small dense problems, with
  spectra that PASS and spectra that genuinely degrade and FAIL, where the
  matvec barely registers; and a sparse problem above the 2000 densify cap,
  for the CSR gradient-conjugacy path and the oracle's refusal to densify.
* ``cli``: interpreter start-up, imports and MatrixMarket I/O, paid once
  per CLI subprocess.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from cgkit import (
    BuiltinProblemSpec,
    SolverConfig,
    SpectrumSpec,
    TraceDocument,
    builtin_problem,
    check_beta_agreement,
    check_classical_identities,
    check_finite_termination,
    check_gradient_conjugacy,
    check_stepsize_equivalence,
    estimate_condition,
    generate_spd,
    matvec,
    read_matrix_market,
    run_all_checks,
    solve,
    spd_validate,
    write_matrix_market,
)

import reference
from proc import run_child, run_launched
from tracing import Tracer

now = time.perf_counter

SETUP_REPEATS = 8
SETUP_SHARE = 0.1  # of an untraced run's time, spent repeating the set-up
MIN_ROUNDS = 3  # per untraced run; each half of a traced run needs only 2
CLI_CODE = "from cgkit.cli import entrypoint; entrypoint()"
# work done per round, computed from iteration counts and array sizes
COUNTS = ("cg.iterations", "cg.matvecs_computed", "cg.trace_mb_computed",
          "verify.residuals", "problems_io.output_mb")


class Recorder:
    """End-to-end samples, per-round counts and operation outcomes."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = dict.fromkeys(COUNTS, 0.0)
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = defaultdict(int)
        self.known = 0
        self.known_defects: dict[str, int] = defaultdict(int)
        self.verdicts: dict[str, int] = defaultdict(int)

    def outcome(self, label: str, problems: list[str], known: list[str] = ()) -> None:
        """An operation with disagreements fails; one whose only disagreement
        is a known defect of cgkit is counted apart, in ``known``."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for msg in problems:
                self.failures[f"{label}: {msg}"] += 1
        elif known:
            self.known += 1
            for msg in known:
                self.known_defects[f"{label}: {msg}"] += 1


def laplacian(n: int) -> sp.csr_matrix:
    off = -np.ones(n - 1)
    return sp.diags([off, 2.0 * np.ones(n), off], (-1, 0, 1), format="csr")


class Case:
    """One input: the validated cgkit problem plus its own references."""

    def __init__(self, label, problem, a_ref, spec):
        self.label = label
        self.problem = problem
        self.a_ref = a_ref
        self.spec = spec
        self.b = np.asarray(problem.b)
        self.x_ref = None
        self.seen: dict = {}  # the last serialized report that passed its check


def certify(case: Case, tracer: Tracer, rec: Recorder, primary: bool):
    """Problem to serialized certificate, as ``cgkit verify --output`` does."""
    config = SolverConfig()
    t0 = now()
    with tracer.span("op.certify"):
        with tracer.span("cg.solve"):
            _, trace = solve(case.problem, config=config)
        t1 = now()
        with tracer.span("verify.run_all_checks"):
            report = run_all_checks(trace, case.problem)
        with tracer.span("problems_io.document"):
            doc = TraceDocument.from_solve(case.problem, config, trace, report=report)
        with tracer.span("problems_io.serialize"):
            text = doc.to_json()
    t2 = now()
    del doc  # the checks below should not raise the workload's peak RSS
    rec.samples["solve_s"].append(t1 - t0)
    rec.samples["certify_s"].append(t2 - t0)
    K = trace.terminated_at
    if primary:
        rec.samples["cg.per_iter_us"].append((t1 - t0) / K * 1e6)
    rec.counts["cg.iterations"] += K
    rec.counts["cg.matvecs_computed"] += K + 1
    rec.counts["cg.trace_mb_computed"] += 4 * len(trace.records) * case.problem.n * 8 / 1e6
    rec.counts["verify.residuals"] += reference.residual_count(len(trace.records))
    rec.counts["problems_io.output_mb"] += len(text) / 1e6
    rec.verdicts["PASS" if report.passed else "FAIL"] += 1

    if tracer.enabled:
        op, tracer.op = tracer.op, ("verify_probe", tracer.op[1])
        verify_probes(case, trace, report, tracer)
        tracer.op = op
    rec.outcome(case.label, *reference.check_certificate(
        case.problem.n, trace, report, text, case.a_ref, case.b, case.x_ref, case.seen))
    return t2 - t0


def verify_probes(case, trace, report, tracer) -> None:
    """Each verify family timed on its own, at the tolerance the report used."""
    A, tol = case.problem.A, report.check("descent").tolerance
    with tracer.span("verify.condition"):
        estimate_condition(A)
    with tracer.span("verify.classical"):
        check_classical_identities(trace, A, tolerance=tol)
    with tracer.span("verify.gradient_conjugacy"):
        check_gradient_conjugacy(trace, A, tolerance=tol)
    with tracer.span("verify.stepsize"):
        check_stepsize_equivalence(trace)
    with tracer.span("verify.beta"):
        check_beta_agreement(trace, tolerance=tol)
    with tracer.span("verify.finite_termination"):
        check_finite_termination(trace, case.problem)


class Workload:
    """Base: subclasses set ``cases`` in ``setup`` and run ``round``."""

    primary = 0  # index of the case whose matrix the matvec probe uses

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed, self.tiny, self.workdir = seed, tiny, workdir
        self.cases: list[Case] = []

    def build(self, tracer, label, spec, a_ref=None) -> Case:
        with tracer.span("problems_io.build"):
            problem = builtin_problem(spec)
        if a_ref is None:
            a_ref = np.array(problem.A.to_dense())
        return Case(label, problem, a_ref, spec)

    def prepare_references(self) -> None:
        for case in self.cases:
            if sp.issparse(case.a_ref):
                case.x_ref = scipy.sparse.linalg.spsolve(case.a_ref.tocsc(), -case.b)
            else:
                case.x_ref = scipy.linalg.solve(case.a_ref, -case.b, assume_a="pos")

    def round(self, tracer, rec) -> list[float]:
        return [certify(case, tracer, rec, i == self.primary)
                for i, case in enumerate(self.cases)]

    def probes(self, tracer, layers) -> None:
        """Traced run only: per-layer calls outside the operations."""


class SparseSolve(Workload):
    name = "sparse-solve"

    def setup(self, tracer):
        self.n, self.cap = (2000, 30) if self.tiny else (100_000, 300)
        spec = BuiltinProblemSpec(family="laplacian1d", n=self.n)
        self.cases = [self.build(tracer, "laplacian1d", spec, laplacian(self.n))]

    def prepare_references(self):
        case = self.cases[0]
        case.x_ref = reference.reference_cg(case.a_ref, case.b, self.cap)

    def round(self, tracer, rec):
        case = self.cases[0]
        t0 = now()
        with tracer.span("op.solve_pair"):
            with tracer.span("cg.solve_untraced"):
                xu, tu = solve(case.problem, config=SolverConfig(
                    max_iterations=self.cap, record_trace=False))
            t1 = now()
            with tracer.span("cg.solve"):
                xt, tt = solve(case.problem, config=SolverConfig(max_iterations=self.cap))
        t2 = now()
        rec.samples["solve_untraced_s"].append(t1 - t0)
        rec.samples["solve_s"].append(t2 - t1)
        rec.samples["cg.per_iter_us"].append((t1 - t0) / tu.terminated_at * 1e6)
        rec.counts["cg.iterations"] += tu.terminated_at + tt.terminated_at
        rec.counts["cg.matvecs_computed"] += tu.terminated_at + tt.terminated_at + 2
        rec.counts["cg.trace_mb_computed"] += 4 * len(tt.records) * self.n * 8 / 1e6
        rec.outcome(case.label, reference.check_capped_solve(
            self.cap, xu, tu, xt, tt, case.a_ref, case.b, case.x_ref))
        return [t2 - t0]


class Certify(Workload):
    name = "certify"
    primary = 3  # first n=500 case
    # inside the acceptance suite's certifiable envelope (PASS), and
    # log-uniform spectra that lose orthogonality in float64 (FAIL)
    KINDS = ("linear cond 50", "3 distinct cond 100", "loguniform cond 100")

    def setup(self, tracer):
        self.cases = []
        for n in ((20, 50) if self.tiny else (200, 500)):
            for kind in self.KINDS:
                s = self.seed * 16 + len(self.cases)
                spec = BuiltinProblemSpec(family="random_spd", n=n,
                                          spectrum=self.spectrum(kind, n), seed=s,
                                          b_mode="random", b_seed=s)
                self.cases.append(self.build(tracer, f"random_spd n={n} {kind}", spec))
        # 8 distinct eigenvalues in [1, 10]: CG terminates in 8 steps
        n_diag = 4000
        rng = np.random.default_rng(self.seed)
        values = np.sort(rng.uniform(1.0, 10.0, 8))
        values[0], values[-1] = 1.0, 10.0
        eigs = values[np.arange(n_diag) % 8]
        diag = BuiltinProblemSpec(family="diagonal", n=n_diag, eigenvalues=tuple(eigs),
                                  b_mode="random", b_seed=self.seed)
        self.cases.append(self.build(tracer, f"diagonal n={n_diag} (8 distinct)", diag,
                                     sp.diags(eigs, format="csr")))

    @staticmethod
    def spectrum(kind: str, n: int) -> SpectrumSpec:
        if kind.startswith("3 distinct"):
            values = np.geomspace(1.0, 100.0, 3)
            return SpectrumSpec(eigenvalues=tuple(values[np.arange(n) % 3]))
        dist, _, cond = kind.split()
        return SpectrumSpec(lam_min=1.0, lam_max=float(cond), distribution=dist)

    def probes(self, tracer, layers):
        for case in self.cases:
            spec = case.spec
            if spec.family == "random_spd":
                with tracer.span("linalg.generate_spd"):
                    generate_spd(spec.n, spec.spectrum, spec.seed)


class Cli(Workload):
    name = "cli"

    def setup(self, tracer):
        self.n, self.n_gen = (2000, 500) if self.tiny else (100_000, 10_000)
        spec = BuiltinProblemSpec(family="laplacian1d", n=self.n)
        self.cases = [self.build(tracer, "laplacian1d", spec, laplacian(self.n))]
        self.workdir.mkdir(parents=True, exist_ok=True)
        scipy.io.mmwrite(self.workdir / "L.mtx", self.cases[0].a_ref, symmetry="symmetric")
        np.savetxt(self.workdir / "b.txt", np.ones(self.n), fmt="%.17g")

    def prepare_references(self):
        self.gen_ref = laplacian(self.n_gen)

    def commands(self):
        s = str(self.seed)
        return [
            ("verify", ["verify", "--builtin", "random_spd", "--n", "50", "--cond", "10",
                        "--dist", "linear", "--seed", s, "--b", "random", "--b-seed", s,
                        "--output", "v.json", "--no-timestamp"], 0),
            ("solve", ["solve", "--matrix", "L.mtx", "--b-file", "b.txt",
                       "--max-iters", "20"], 2),
            ("generate", ["generate", "--builtin", "laplacian1d", "--n", str(self.n_gen),
                          "--out-matrix", "g.mtx", "--out-b", "g.txt"], 0),
        ]

    def run_cli(self, args):
        return run_launched([sys.executable, "-c", CLI_CODE, *args], timeout=120,
                            cwd=self.workdir)

    def round(self, tracer, rec):
        times = []
        for name, args, expected in self.commands():
            for out in ("v.json", "g.mtx", "g.txt"):
                (self.workdir / out).unlink(missing_ok=True)
            with tracer.span(f"cli.{name}"):
                res = self.run_cli(args)
            times.append(res.wall_s)
            rec.samples["cli_s"].append(res.wall_s)
            rec.samples[f"cli.{name}_s"].append(res.wall_s)
            rec.samples[f"cli.{name}_rss_mb"].append(res.peak_rss_mb)
            problems = [] if res.returncode == expected else [
                f"exit code {res.returncode}, expected {expected}; output: "
                + res.output.strip()[-300:]]
            if not problems:
                problems = getattr(self, f"check_{name}")(res.output, rec)
            rec.outcome(f"cgkit {name}", problems)
        return times

    def check_verify(self, output, rec):
        doc = json.loads((self.workdir / "v.json").read_text())
        K = doc["final"]["iterations"]
        rec.counts["cg.iterations"] += K
        rec.counts["cg.matvecs_computed"] += K + 1
        rec.counts["cg.trace_mb_computed"] += 4 * K * 50 * 8 / 1e6
        rec.counts["verify.residuals"] += reference.residual_count(K)
        rec.counts["problems_io.output_mb"] += (self.workdir / "v.json").stat().st_size / 1e6
        rec.verdicts["PASS" if doc["verification"]["passed"] else "FAIL"] += 1
        if not doc["verification"]["passed"]:
            return ["report verdict is FAIL"]
        if doc["final"]["termination_reason"] != "gradient_below_tolerance":
            return [f"terminated by {doc['final']['termination_reason']}"]
        return []

    def check_solve(self, output, rec):
        rec.counts["cg.iterations"] += 20
        rec.counts["cg.matvecs_computed"] += 21
        rec.counts["cg.trace_mb_computed"] += 4 * 20 * self.n * 8 / 1e6
        if not re.search(r"^iterations: 20$", output, re.M) or \
                "termination: iteration_cap" not in output:
            return [f"unexpected summary: {output.strip()[-200:]}"]
        return []

    def check_generate(self, output, rec):
        mtx, vec = self.workdir / "g.mtx", self.workdir / "g.txt"
        rec.counts["problems_io.output_mb"] += (mtx.stat().st_size + vec.stat().st_size) / 1e6
        a = sp.csr_matrix(scipy.io.mmread(mtx))
        problems = []
        if a.shape != self.gen_ref.shape or abs(a - self.gen_ref).max() != 0:
            problems.append("written matrix differs from the Laplacian")
        if not np.array_equal(np.loadtxt(vec), np.ones(self.n_gen)):
            problems.append("written b differs from ones")
        return problems

    def probes(self, tracer, layers):
        walls = {code: median(run_child([sys.executable, "-c", code], timeout=60).wall_s
                              for _ in range(5))
                 for code in ("pass", "import cgkit")}
        layers["cli.interpreter_s"] = walls["pass"]
        layers["cli.import_s"] = walls["import cgkit"] - walls["pass"]
        path = self.workdir / "L.mtx"
        for _ in range(2):
            with tracer.span("problems_io.read_mtx"):
                read_matrix_market(path)
        for _ in range(3):
            with tracer.span("ref.mmread"):
                scipy.io.mmread(path)
        gen = builtin_problem(BuiltinProblemSpec(family="laplacian1d", n=self.n_gen))
        with tracer.span("problems_io.write_mtx"):
            write_matrix_market(gen.A, self.workdir / "w.mtx")
        (self.workdir / "w.mtx").unlink()


WORKLOADS = {w.name: w for w in (SparseSolve, Certify, Cli)}


def per_call(fn, budget: float = 0.3) -> float:
    """Median seconds per call of ``fn``, timed in batches of >= 2 ms."""
    fn()
    t0 = now()
    fn()
    reps = max(1, int(0.002 / max(now() - t0, 1e-9)))
    per = []
    deadline = now() + budget
    while len(per) < 5 or now() < deadline:
        t0 = now()
        for _ in range(reps):
            fn()
        per.append((now() - t0) / reps)
    return median(per)


def matvec_probe(case: Case, layers: dict, info: dict) -> list[str]:
    """cgkit.matvec against SciPy on the workload's main matrix."""
    A, a_ref = case.problem.A, case.a_ref
    x = np.random.default_rng(0).standard_normal(A.n)
    layers["linalg.matvec_us"] = per_call(lambda: matvec(A, x)) * 1e6
    layers["ref.scipy_matvec_us"] = per_call(lambda: a_ref @ x) * 1e6
    if sp.issparse(a_ref):
        nbytes = a_ref.data.nbytes + a_ref.indices.nbytes + a_ref.indptr.nbytes
    else:
        nbytes = a_ref.nbytes
    nbytes += 2 * x.nbytes  # read x, write y
    layers["linalg.matvec_gbs_computed"] = nbytes / (layers["linalg.matvec_us"] * 1e-6) / 1e9
    info["matvec_case"] = case.label
    info["matvec_working_set_mb_computed"] = nbytes / 1e6
    y, y_ref = matvec(A, x), a_ref @ x
    ok = np.allclose(y, y_ref, rtol=1e-12, atol=1e-12 * np.abs(y_ref).max())
    return [] if ok else ["cgkit.matvec disagrees with SciPy"]


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
        workdir: Path, spans_path: Path | None) -> dict:
    wl = WORKLOADS[name](seed, tiny, workdir)
    tracer = Tracer(enabled=trace)
    rec = Recorder()

    def setup() -> float:
        tracer.op = ("setup", len(rec.samples["setup_s"]))
        t0 = now()
        wl.setup(tracer)
        rec.samples["setup_s"].append(now() - t0)
        return rec.samples["setup_s"][-1]

    for _ in range(SETUP_REPEATS):
        setup()
    wl.prepare_references()

    layers: dict[str, float] = {}
    info: dict = {}

    def loop(key: str, budget: float, min_rounds: int, setups: bool = False) -> None:
        # a round starts only if it is expected to end no more than half a
        # round past the deadline, so runs last about ``budget`` seconds
        deadline = now() + budget
        r, last = 0, 0.0
        while r < min_rounds or now() + last / 2 < deadline:
            tracer.op = (key, r)
            t0 = now()
            ops = wl.round(tracer, rec)
            last = now() - t0
            rec.samples[key].append(sum(ops) / len(ops))
            r += 1
            if setups:
                # set-up samples spread over the whole run: the host's speed
                # drifts over seconds, and setup_s should see the same host
                # as op_s; the operations keep using the first inputs
                cases, spent = wl.cases, 0.0
                while spent < SETUP_SHARE * last:
                    spent += setup()
                wl.cases = cases

    if not trace:
        loop("op_s", seconds * (1 - SETUP_SHARE), MIN_ROUNDS, setups=True)
    else:
        # untraced half, then the traced half: their difference is the
        # tracing overhead
        tracer.enabled = False
        loop("op_s", seconds / 2, 2)
        tracer.enabled = True
        counts_before = dict(rec.counts)
        loop("op_traced_s", seconds / 2, 2)
        rounds = len(rec.samples["op_traced_s"])
        for key in rec.counts:
            layers[key] = (rec.counts[key] - counts_before.get(key, 0.0)) / rounds
        layers["trace.overhead_s"] = median(rec.samples["op_traced_s"]) - median(rec.samples["op_s"])
        tracer.op = ("probe", 0)
        rec.outcome("cgkit.matvec", matvec_probe(wl.cases[wl.primary], layers, info))
        for _ in range(3):
            with tracer.span("probe.spd_validate"):
                for case in wl.cases:
                    with tracer.span("linalg.spd_validate"):
                        spd_validate(case.problem.A)
        layers["linalg.spd_validate_s"] = median(tracer.durations("probe.spd_validate"))
        layers["problems_io.build_s"] = median(
            sum(tracer.durations("problems_io.build", {("setup", i)}))
            for i in range(len(rec.samples["setup_s"])))
        wl.probes(tracer, layers)
        derive_layers(tracer, rec, layers)
        if spans_path is not None:
            tracer.write(spans_path)
        info["self_s_per_round"] = {
            k: v / rounds for k, v in tracer.self_time_by_layer(
                lambda op: op[0] == "op_traced_s").items()}

    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "attempted": rec.attempted, "failed": rec.failed,
        "failures": dict(rec.failures), "verdicts": dict(rec.verdicts),
        "known": rec.known, "known_defects": dict(rec.known_defects),
        "samples": dict(rec.samples), "layers": layers, "info": info,
    }


def derive_layers(tracer: Tracer, rec: Recorder, layers: dict) -> None:
    """Per-round medians of span totals, and per-iteration costs."""
    by_round: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, op in tracer.spans:
        if op[0] in ("op_traced_s", "verify_probe"):
            by_round[name][op[1]] += end - start
    for name in ("verify.run_all_checks", "verify.condition", "verify.classical",
                 "verify.gradient_conjugacy", "verify.stepsize", "verify.beta",
                 "verify.finite_termination", "problems_io.document",
                 "problems_io.serialize"):
        if by_round.get(name):
            layers[f"{name}_s"] = median(by_round[name].values())
    for name in ("problems_io.read_mtx", "problems_io.write_mtx", "ref.mmread"):
        if tracer.durations(name):
            layers[f"{name}_s"] = median(tracer.durations(name))
    if tracer.durations("linalg.generate_spd"):  # once per case: the batch total
        layers["linalg.generate_spd_s"] = sum(tracer.durations("linalg.generate_spd"))
    if rec.samples.get("cg.per_iter_us"):
        layers["cg.per_iter_us"] = median(rec.samples["cg.per_iter_us"])
        layers["cg.overhead_per_iter_us"] = layers["cg.per_iter_us"] - layers["linalg.matvec_us"]
    if rec.samples.get("solve_untraced_s"):
        layers["cg.trace_cost_s"] = median(rec.samples["solve_s"]) - median(
            rec.samples["solve_untraced_s"])


def main(argv: list[str]) -> int:
    """Child entry: ``workloads.py NAME SEED SECONDS TRACE TINY WORKDIR [SPANS]``."""
    name, seed, seconds, trace, tiny, workdir = argv[:6]
    spans = Path(argv[6]) if len(argv) > 6 else None
    result = run(name, int(seed), float(seconds), trace == "1", tiny == "1",
                 Path(workdir), spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""cgkit benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of the repository:

    python3 perfbench/run.py                      # all workloads, untraced then traced
    python3 perfbench/run.py --workload cli --seed 3 --seconds 36 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Each workload runs in a child process of its own, so its peak RSS comes
from ``os.wait4``.  With ``--trace 0`` the child times whole operations only
(the end-to-end metrics); with ``--trace 1`` it first repeats the untraced
loop for half the time, then records spans around every call into cgkit for
the other half and runs the per-layer probes.  Every operation's output is
checked against a reference the benchmark computes itself (see
``reference.py``); disagreements count as failed operations.  An operation
whose only disagreement is a known defect of cgkit (see ``reference.py``) is
printed and counted in ``error_rate``, but not in ``failed``, so ``correct``
turns false only on a new or different wrong output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with sample counts, tails and the environment, goes to ``--out``
(default ``.perfbench/results/``) and can be compared with ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("sparse-solve", "certify", "cli")
END_TO_END = ("op_s", "setup_s", "peak_rss_mb")
PER_LAYER = ("linalg.matvec_us", "linalg.matvec_gbs_computed", "ref.scipy_matvec_us",
             "problems_io.build_s", "linalg.spd_validate_s", "cg.iterations",
             "cg.matvecs_computed", "cg.trace_mb_computed", "verify.residuals",
             "problems_io.output_mb", "trace.overhead_s")
# end-to-end stages printed for people, by the names the workloads use
STAGES = ("solve_untraced_s", "solve_s", "certify_s", "cli_s", "cli.verify_s",
          "cli.solve_s", "cli.generate_s", "op_s", "setup_s")
CHILD_TIMEOUT = 170.0

sys.path.insert(0, str(HERE))
from envinfo import llc  # noqa: E402
from proc import run_child  # noqa: E402
from tracing import tail  # noqa: E402


def unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gbs_computed"):
        return "GB/s"
    if name.endswith(("_mb", "_mb_computed")):
        return "MB"
    if name == "error_rate":
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload in its own child process and summarize it."""
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / "work" / tag
    cmd = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(seconds),
           "1" if trace else "0", "1" if tiny else "0", str(workdir),
           str(OUT / "spans" / f"{tag}.jsonl")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = run_child(cmd, timeout=CHILD_TIMEOUT, env=env, stderr=None)
    if child.returncode != 0:
        raise RuntimeError(f"workload {name} exited with {child.returncode}:\n"
                           f"{child.output[-2000:]}")
    raw = json.loads(child.output.strip().splitlines()[-1])
    raw["peak_rss_mb"] = child.peak_rss_mb
    shutil.rmtree(workdir, ignore_errors=True)
    return summarize(raw)


def summarize(raw: dict) -> dict:
    out = {"attempted": raw["attempted"], "failed": raw["failed"], "known": raw["known"],
           "failures": raw["failures"], "known_defects": raw["known_defects"],
           "verdicts": raw["verdicts"],
           "info": raw["info"], "end_to_end": {}, "per_layer": {}}
    out["per_layer"] = {k: {"value": v, "unit": unit(k)} for k, v in raw["layers"].items()}
    if raw["trace"]:
        return out
    e2e = out["end_to_end"]
    for name, values in raw["samples"].items():
        if name in STAGES or name.endswith("_rss_mb"):
            entry = {"value": median(values), "unit": unit(name), "n": len(values)}
            t = tail(values)
            if t:
                entry["tail_pct"], entry["tail"] = t
            e2e[name] = {**entry, "samples": values}
    e2e["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB", "n": 1}
    e2e["error_rate"] = {"value": (raw["failed"] + raw["known"]) / raw["attempted"],
                         "unit": "ratio",
                         "n": raw["attempted"]}
    return out


def merge(parts: list[dict]) -> dict:
    """One workload's untraced and traced results as one entry."""
    out = {"attempted": 0, "failed": 0, "known": 0, "failures": {}, "known_defects": {},
           "verdicts": {}, "info": {}, "end_to_end": {}, "per_layer": {}}
    for part in parts:
        for key in ("attempted", "failed", "known"):
            out[key] += part[key]
        for key in ("failures", "known_defects", "verdicts"):
            for k, v in part[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for key in ("info", "end_to_end", "per_layer"):
            out[key].update(part[key])
    return out


def print_result(name: str, res: dict, trace: bool) -> None:
    print(f"== {name} ({'traced' if trace else 'untraced'}): "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"{res['known']} with a known defect; "
          f"verdicts {res['verdicts'] or '-'}")
    if not trace:
        for metric, e in res["end_to_end"].items():
            extra = (f"  p{e['tail_pct']:.0f}={e['tail']:.6g}" if "tail" in e
                     else "  (tail needs >= 11 samples)" if e["unit"] == "s" else "")
            print(f"  {metric:<22} {e['value']:.6g} {e['unit']:<5} n={e['n']}{extra}")
    else:
        for metric, e in sorted(res["per_layer"].items()):
            print(f"  {metric:<36} {e['value']:.6g} {e['unit']}")
        info = res["info"]
        print(f"  matvec case {info['matvec_case']}: working set "
              f"{info['matvec_working_set_mb_computed']:.3g} MB (computed), "
              f"last-level cache {llc()}")
        selfs = ", ".join(f"{k} {v:.4g}" for k, v in sorted(info["self_s_per_round"].items()))
        print(f"  self time per traced round, s: {selfs}")
    for msg, count in res["failures"].items():
        print(f"  FAILED x{count}: {msg}")
    for msg, count in res["known_defects"].items():
        print(f"  KNOWN DEFECT x{count} (ROADMAP 4a; in error_rate, not in failed): {msg}")


def write_results(path: Path, results: dict) -> None:
    import envinfo  # imports numpy: only after the workloads' children ran

    env = envinfo.collect()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"env": env, "workloads": results}, indent=1) + "\n")


def compare(old_path: Path, new_path: Path) -> int:
    old = json.loads(old_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    print(f"{'workload':<14} {'metric':<36} {'old':>12} {'new':>12} {'new/old':>8}")
    for wl in sorted(set(old) & set(new)):
        for kind in ("end_to_end", "per_layer"):
            for metric in sorted(set(old[wl][kind]) & set(new[wl][kind])):
                a, b = old[wl][kind][metric]["value"], new[wl][kind][metric]["value"]
                ratio = f"{b / a:8.3f}" if a else "     n/a"
                print(f"{wl:<14} {metric:<36} {a:12.6g} {b:12.6g} {ratio} "
                      f"{old[wl][kind][metric]['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default with --workload all: both)")
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes, for a quick check of the harness")
    parser.add_argument("--out", type=Path, help="where to write the full result")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "cgkit" / "__init__.py").is_file():
        print(f"error: cgkit sources not found under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    results = {}
    for name in names:
        parts = []
        for trace in modes:
            try:
                parts.append(run_workload(name, args.seed, args.seconds, trace, args.tiny))
            except (RuntimeError, ValueError, IndexError) as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            print_result(name, parts[-1], trace)
        results[name] = merge(parts)
    label = args.workload if args.trace is None else f"{args.workload}-trace{args.trace}"
    out = args.out or OUT / "results" / f"{label}-seed{args.seed}.json"
    write_results(out, results)
    print(f"full result: {out}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}  # the metrics of one workload: with --workload and --trace
    if args.trace is not None and len(names) == 1:
        kind, wanted = (("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END))
        source = results[name][kind]
        metrics = {k: {"value": source[k]["value"], "unit": source[k]["unit"]} for k in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

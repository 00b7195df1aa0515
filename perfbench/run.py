"""tysem benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload oneshot|session|terms|equiv|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(`perfbench/worker.py`) against `src/tysem`, in a closed loop with one
client, for complete rounds until S seconds have passed and the tail
percentile has ten samples beyond it.  Set-up time is the median of several
fresh interpreters importing tysem and loading the workload's lexica and
models.  Every op's output is checked against a reference; failed ops and
the probes (known defects, and ops too long for the loop) are listed in the
report.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics
of a traced run, and the report also gives the tracing overhead.  Inputs,
spans and per-run results go to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("oneshot", "session", "terms", "equiv")
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "items_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "success_rate": "ratio", "peak_rss_mib": "MiB",
    "scaling_slope": "log/log", "setup_s": "s",
}
REQUIRED = ("src/tysem/__init__.py", "src/tysem/cli.py", "lexica/chat.lex",
            "lexica/homme.lex", "lexica/fig1.lex", "lexica/fig2.lex",
            "models/chat.model", "sessions/homme.session",
            "tests/generators.py")


def layer_unit(name: str) -> str:
    if name == "trace.missing_names":
        return "count"
    return "s/op" if name.endswith("_s") else "1/op"


def worker(*args: str, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_samples(workload: str) -> list[dict]:
    """Fresh interpreters timing import and load; the first one also
    writes the bytecode cache and is not counted."""
    worker("--setup", workload, timeout=60)
    return [worker("--setup", workload, timeout=60)
            for _ in range(SETUP_SAMPLES)]


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    work = WORK / f"work-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    result = worker("--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--work", str(work), timeout=WORKER_TIMEOUT_S)
    if not trace:
        samples = setup_samples(name)
        result["metrics"]["setup_s"] = statistics.median(
            s["setup_s"] for s in samples)
        result["detail"]["setup_measured_s"] = statistics.median(
            s["measured_s"] for s in samples)
    (WORK / f"result-{name}-{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict, trace: int) -> list[str]:
    name, d = result["workload"], result["detail"]
    probes = result["probes"]
    attempted = result["attempted"] + len(probes)
    failed = result["failed"] + sum(not p["ok"] for p in probes)
    lines = [f"== {name} (seed {result['seed']}, {result['attempted']} ops, "
             f"items are {result['items_unit']})"]
    for metric, value in result["metrics"].items():
        unit = layer_unit(metric) if trace else END_TO_END_UNITS[metric]
        lines.append(f"  {metric:32s} {value:14.6g} {unit}")
    if not trace:
        lines.append(f"  latency_tail_ms is p{d['tail_percentile']:g} of "
                     f"{d['samples']} ops")
        for group, curve in d["curves_ms"].items():
            lines.append(f"  curve {group} (size: ms): " + "  ".join(
                f"{n}: {ms:.4g}" for n, ms in curve.items()))
        lines.append(f"  times are in reference seconds; measured: busy "
                     f"{d['measured_busy_s']:.3f} s (reference "
                     f"{d['busy_s']:.3f}), p50 {d['measured_p50_ms']:.4g} "
                     f"ms, setup {d['setup_measured_s']:.4g} s")
    else:
        lines.append(f"  tracing overhead "
                     f"{result['metrics']['trace.overhead_s'] * 1000:.4g} "
                     f"ms/op; spans in {d['spans_file']}")
        if d["missing_names"]:
            lines.append("  FLAG: wrapped names no longer in the program: "
                         + ", ".join(d["missing_names"]))
        lines.append("  zero on this workload: "
                     + (", ".join(d["uncalled_layers"]) or "none"))
    lines.append(f"  error_rate {failed / attempted:.4f} "
                 f"({failed}/{attempted}, probes included)")
    for op, why in result["failures"].items():
        lines.append(f"  FAILED {op}: {why}")
    for p in probes:
        state = "ok" if p["ok"] else ("crash " if p["crashed"]
                                      else "WRONG ") + p["error"]
        lines.append(f"  probe {p['name']}: {state} "
                     f"after {p['seconds']:.3f} s")
    return lines


def last_line(result: dict, trace: int) -> dict:
    wrong_probe = any(not p["ok"] and not p["crashed"]
                      for p in result["probes"])
    units = (layer_unit if trace else END_TO_END_UNITS.__getitem__)
    return {
        "correct": result["failed"] == 0 and not wrong_probe,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units(k)}
                    for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a tysem checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print("\n".join(report(r, args.trace)))
    if len(results) == 1:
        print(json.dumps(last_line(results[0], args.trace)))
    else:
        print(json.dumps({r["workload"]: last_line(r, args.trace)
                          for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

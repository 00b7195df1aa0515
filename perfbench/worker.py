"""One workload in a fresh interpreter: closed loop, one client, one thread.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR
    python3 perfbench/worker.py --setup NAME

The first form prints one JSON object with the op log summary and the
metrics; the second times a fresh import of `tysem` and `tysem.cli` plus
one load of each lexicon and model file the workload reads.  Times are
rescaled to reference seconds (see calibrate.py).  The interpreter keeps
its default recursion limit and garbage collector, so the program's
recursion cliffs show as failed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402  (perfbench/ is sys.path[0])
import workloads as W  # noqa: E402

# Percentile reported as latency_tail_ms, fixed per workload.  A run goes
# on past --seconds until at least ten samples lie beyond it, so a slower
# program yields a longer run, never a lower percentile.  `terms` and
# `equiv` repeat a fixed set of ops each round (5 and 62); their percentile
# falls inside one op's samples (the 200-chain, and the conj:5 check), not
# in the gap between two ops, which would take a different value from run
# to run.
TAIL_PERCENTILE = {"oneshot": 99.0, "session": 90.0, "terms": 70.0,
                   "equiv": 90.0}


def setup_time(workload: str) -> tuple[float, float]:
    """Measured set-up seconds, and the same in reference seconds."""
    before = calibrate.sample()
    t0 = perf_counter()
    import tysem  # noqa: F401
    import tysem.cli
    for path in W.FILES[workload]:
        text = (ROOT / path).read_text(encoding="utf-8")
        if path.endswith(".model"):
            tysem.cli.load_model(text)
        else:
            tysem.cli.load_lexicon(text)
    seconds = perf_counter() - t0
    speed = (before + calibrate.sample()) / 2
    return seconds, seconds * calibrate.REFERENCE_S / speed


# ---------------------------------------------------------------------------
# running one op


class Outcome:
    __slots__ = ("op", "start", "raw", "seconds", "ok", "error", "crashed")

    def __init__(self, op, start, raw, ok, error, crashed=False):
        self.op, self.start, self.raw = op, start, raw
        self.seconds = raw  # in reference seconds once calibrated
        self.ok, self.error, self.crashed = ok, error, crashed


def run_op(op: W.Op, tracer=None) -> Outcome:
    """Time one op; its output is checked afterwards, outside the timing
    and with tracing paused."""
    import tysem
    import tysem.cli

    out, err = io.StringIO(), io.StringIO()
    result, exc, rc = None, None, None
    t0 = perf_counter()
    try:
        if op.argv is not None:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = tysem.cli.main(op.argv)
        else:
            result = [tysem.normalize(t) for t in op.terms]
    except SystemExit as e:  # argparse rejecting the command line
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # noqa: BLE001 - a crash is a failed op
        exc = e
    raw = perf_counter() - t0

    def outcome(ok, error=None, crashed=False):
        return Outcome(op, t0, raw, ok, error, crashed)

    if tracer is not None:
        tracer.enabled = False
    try:
        if exc is not None:
            return outcome(False, type(exc).__name__, True)
        if op.argv is not None:
            if rc not in op.ok_codes:
                return outcome(False, f"exit {rc}: {err.getvalue()[:120]!r}")
            problem = op.check(rc, out.getvalue(), err.getvalue())
        else:
            problem = op.check(result)
        return outcome(problem is None, problem)
    except Exception as e:  # noqa: BLE001 - a check that crashes fails
        return outcome(False, f"check raised {e!r}")
    finally:
        if tracer is not None:
            tracer.enabled = True


def run_rounds(wl: W.Workload, seconds: float, rounds=None, tracer=None):
    """Complete rounds until `seconds` of wall time have passed and the
    tail percentile has ten samples beyond it, or replay the given rounds.
    Op times are then rescaled to reference seconds by the calibration
    samples taken around each op."""
    log, played = [], []
    source = iter(rounds) if rounds is not None else None
    meter = calibrate.SpeedMeter()
    start = perf_counter()
    while True:
        ops = next(source, None) if source else wl.next_round()
        if ops is None:
            break
        played.append(ops)
        for op in ops:
            log.append(run_op(op, tracer))
            meter.tick_if_due()
        if rounds is None and perf_counter() - start >= seconds \
                and enough_tail(wl.name, len(log)):
            break
    meter.tick()
    for o in log:
        o.seconds = meter.reference_seconds(o.start, o.raw)
    return log, played


# ---------------------------------------------------------------------------
# metrics


def percentile(sorted_values, p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def enough_tail(workload: str, n: int) -> bool:
    return n - math.ceil(TAIL_PERCENTILE[workload] / 100 * n) >= 10


def ladder_curves(log) -> dict[str, dict[int, float]]:
    """Median op time per size, for each ladder group (session family,
    chain ladder, equivalence family, ...)."""
    by_size: dict[str, dict[int, list[float]]] = {}
    for o in log:
        if o.ok and o.op.ladder is not None:
            group = o.op.name.rsplit(":", 1)[0]
            by_size.setdefault(group, {}).setdefault(
                o.op.ladder, []).append(o.seconds)
    return {g: {n: statistics.median(v) for n, v in sorted(sizes.items())}
            for g, sizes in by_size.items()}


def scaling_slope(curves, subtract_zero: bool) -> float:
    """Least-squares slope of log(median op time) on log(size), averaged
    over the ladder groups.  With `subtract_zero` the median time at size
    0 is taken off first, so fixed per-invocation costs do not flatten the
    curve."""
    slopes = []
    for curve in curves.values():
        med = dict(curve)
        base = med.pop(0, 0.0) if subtract_zero else 0.0
        pts = [(math.log(n), math.log(t - base)) for n, t in med.items()
               if n > 0 and t > base]
        if len(pts) < 2:
            continue
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        slopes.append(sum((x - mx) * (y - my) for x, y in pts) / sxx)
    return statistics.fmean(slopes) if slopes else float("nan")


def end_to_end(workload: str, log) -> dict:
    times = sorted(o.seconds for o in log)
    busy = sum(times)
    ok = [o for o in log if o.ok]
    tail_p = TAIL_PERCENTILE[workload]
    curves = ladder_curves(log)
    return {
        "ops_per_s": len(ok) / busy,
        "items_per_s": sum(o.op.items for o in ok) / busy,
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_tail_ms": 1000 * percentile(times, tail_p),
        "success_rate": len(ok) / len(log),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scaling_slope": scaling_slope(curves, workload == "oneshot"),
    }, {"tail_percentile": tail_p, "busy_s": busy, "samples": len(times),
        "curves_ms": {g: {n: 1000 * t for n, t in c.items()}
                      for g, c in curves.items()},
        "measured_busy_s": sum(o.raw for o in log),
        "measured_p50_ms": 1000 * statistics.median(o.raw for o in log)}


def summarize(log) -> dict:
    failures: dict[str, str] = {}
    for o in log:
        if not o.ok:
            failures.setdefault(o.op.name, o.error)
    return {"attempted": len(log), "failed": sum(not o.ok for o in log),
            "failures": failures}


# ---------------------------------------------------------------------------


def build(name: str, seed: int, work: Path) -> W.Workload:
    if name == "terms":
        sys.path.insert(1, str(ROOT / "tests"))
        import generators
        return W.terms(seed, work, generators)
    return getattr(W, name)(seed, work)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup", choices=W.NAMES)
    ap.add_argument("--workload", choices=W.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path)
    args = ap.parse_args(argv)
    if args.setup:
        measured, reference = setup_time(args.setup)
        print(json.dumps({"measured_s": measured, "setup_s": reference}))
        return 0

    import tysem
    if not Path(tysem.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tysem imported from {tysem.__file__}, "
                         f"not from {ROOT / 'src'}")
    args.work.mkdir(parents=True, exist_ok=True)
    wl = build(args.workload, args.seed, args.work)
    report: dict = {"workload": wl.name, "seed": args.seed,
                    "items_unit": wl.items_unit}

    if not args.trace:
        log, _ = run_rounds(wl, args.seconds)
        report["metrics"], report["detail"] = end_to_end(wl.name, log)
    else:
        from spans import Tracer, install_all, layer_metrics
        log, played = run_rounds(wl, args.seconds / 2)
        untraced = sum(o.seconds for o in log)
        tracer = Tracer()
        install_all(tracer)
        tracer.enabled = True
        log, _ = run_rounds(wl, 0, rounds=played, tracer=tracer)
        tracer.enabled = False
        tracer.uninstall()
        traced = sum(o.seconds for o in log)
        n = len(log)
        metrics = layer_metrics(tracer, n)
        metrics.update({
            "trace.untraced_s": untraced / n,
            "trace.traced_s": traced / n,
            "trace.overhead_s": (traced - untraced) / n,
            "trace.spans": tracer.next_id / n,
            "trace.missing_names": len(tracer.missing),
        })
        spans = args.work.parent / f"spans-{wl.name}-{args.seed}.jsonl.gz"
        tracer.write(spans)
        report["metrics"] = metrics
        report["detail"] = {"missing_names": tracer.missing,
                            "uncalled_layers": sorted(
                                k for k, v in metrics.items()
                                if v == 0 and not k.startswith("trace.")),
                            "spans_file": str(spans.relative_to(ROOT)),
                            "spans_dropped": tracer.dropped}
    report.update(summarize(log))
    probes = [run_op(op) for op in wl.probes]
    report["probes"] = [{"name": o.op.name, "ok": o.ok, "error": o.error,
                         "crashed": o.crashed, "seconds": o.seconds}
                        for o in probes]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

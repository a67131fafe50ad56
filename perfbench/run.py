"""smodlab benchmark: seeded verdict workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  NAME is one of axiom_sweep, pcoh_queries, pcoh_duals,
workspace_session, or `all`, which runs every workload in a fresh process
(and, with --trace 1, traces each one twice and compares the counts).

--trace 0 runs a closed loop with one client for S seconds of measured
check time and reports the end-to-end metrics, with times scaled to the
reference speed of `speed.py` (the host's speed drift taken out).  --trace 1
runs a fixed, seed-determined list of checks once untraced and once with
span wrappers around every layer, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md for the workloads.
"""

import os
import sys

# set iteration order must not depend on the process: counts repeat exactly
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("axiom_sweep", "pcoh_queries", "pcoh_duals", "workspace_session")
SETUPS = 3  # set-ups per run: this process and two fresh ones; setup_s is the median


def load_program():
    src = ROOT / "src"
    if not (src / "smodlab" / "__init__.py").is_file():
        sys.exit(f"error: no smodlab sources under {src}")
    sys.path.insert(0, str(src))
    import smodlab
    if not Path(smodlab.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: smodlab imported from {smodlab.__file__}, not {src}")
    import workloads
    return workloads


class Tally:
    """Verdicts of one pass over checks, with each check's start and latency."""

    def __init__(self):
        self.starts = array("d")
        self.latencies = array("d")
        self.outcomes = {"ok": 0, "wrong": 0, "undecided": 0, "raised": 0}

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scaled(self, sampler) -> array:
        """Each check's latency at reference speed."""
        return array("d", (sampler.scale(t, t + lat, lat)
                           for t, lat in zip(self.starts, self.latencies)))

    def run(self, workload, check):
        """Time one check, then verify it outside the timed region."""
        start = time.perf_counter()
        self.starts.append(start)
        try:
            outcome = workload.run(check)
        except Exception:  # a raising check is a failed check; the loop goes on
            self.latencies.append(time.perf_counter() - start)
            self.outcomes["raised"] += 1
            return
        self.latencies.append(time.perf_counter() - start)
        self.outcomes[workload.verify(check, outcome) or "ok"] += 1


def set_up(name: str, seed: int, workdir: Path):
    """Imports, inputs and the verified warm-up prefix; returns the workload."""
    workloads = load_program()
    workload = workloads.WORKLOADS[name](seed, str(workdir))
    warm = Tally()
    for check in workload.warmup():
        warm.run(workload, check)
    if warm.outcomes["wrong"]:
        print(f"warm-up: {warm.outcomes}", file=sys.stderr)
    return workload, warm


def timed_phase(workload, seconds: float) -> Tally:
    """Whole rounds of the check mix; another round starts only while the
    measured time plus one mean round still fits in `seconds`."""
    tally = Tally()
    for done, checks in enumerate(workload.rounds(), start=1):
        for check in checks:
            tally.run(workload, check)
        if tally.busy * (done + 1) / done > seconds:
            break
    return tally


def tail(latencies, pct: float):
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(round(len(ordered) * pct / 100, 9)))
    value = ordered[rank - 1]
    return value, sum(1 for x in ordered if x > value)


def child_setup_seconds(args) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args, workload, warm, setup_s: float, sampler) -> dict:
    tally = timed_phase(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUPS - 1)]
    lat = tally.scaled(sampler)
    tail_s, beyond = tail(lat, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "checks_per_s": (tally.attempted / sum(lat), "1/s"),
        "check_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "check_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    first, last = tally.starts[0], tally.starts[-1] + tally.latencies[-1]
    print(f"{args.workload} seed {args.seed}: {tally.attempted} checks in "
          f"{tally.busy:.2f} s of check time ({sum(lat):.2f} s at reference "
          f"speed; host {sampler.slowdown(first, last):.3f}x slower, "
          f"{len(sampler.costs)} probes); outcomes {tally.outcomes}")
    print(f"  set-ups: {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  check_tail_ms is p{workload.tail_pct:g} of {tally.attempted} checks, "
          f"{beyond} beyond it")
    print(f"  failed_share = {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} of {tally.attempted})")
    return result(tally.outcomes["wrong"] == 0 and warm.outcomes["wrong"] == 0,
                  tally, metrics)


def traced(args, workload, warm) -> dict:
    import tracing
    checks = list(itertools.chain.from_iterable(
        itertools.islice(workload.rounds(), workload.trace_rounds)))
    plain = Tally()
    for check in checks:
        plain.run(workload, check)
    tracer = tracing.Tracer()
    tracer.install()
    spans = Tally()
    try:
        for check in checks:
            spans.run(workload, check)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_share"] = (spans.busy / plain.busy - 1, "ratio")
    correct = not (warm.outcomes["wrong"] or plain.outcomes["wrong"]
                   or spans.outcomes["wrong"])
    if workload.name in ("axiom_sweep", "workspace_session"):
        # these workloads bypass the exact LP and vertex enumeration
        for name in ("ratlp.max_scale.calls", "ratlp.polar_vertices.calls"):
            if metrics[name][0]:
                print(f"  {name} = {metrics[name][0]}, expected 0")
                correct = False
    print(f"{args.workload} seed {args.seed} traced: {len(checks)} checks; "
          f"untraced {plain.busy:.2f} s, traced {spans.busy:.2f} s; "
          f"outcomes {spans.outcomes}")
    return result(correct, spans, metrics)


def result(correct: bool, tally: Tally, metrics: dict) -> dict:
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in a fresh process; traced twice to compare counts."""
    import tracing
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        repeats = []
        for _ in range(2 if args.trace else 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(args.trace)], cwd=ROOT, capture_output=True, text=True,
                timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"error: {name} exited {out.returncode}\n{out.stderr}")
            print("\n".join(lines[:-1]))
            repeats.append(json.loads(lines[-1]))
        got = repeats[0]
        if args.trace:
            counts = [{k: r["metrics"][k]["value"] for k in tracing.EXACT_COUNTS}
                      for r in repeats]
            same = counts[0] == counts[1]
            print(f"  counts of two traced runs identical: {same}")
            got["correct"] = got["correct"] and repeats[1]["correct"] and same
        for metric, m in got["metrics"].items():
            print(f"  {name:18s} {metric:42s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        print(f"  {name:18s} {'failed_share':42s} "
              f"{got['failed'] / got['attempted']:14.6g} ratio")
        combined["correct"] = combined["correct"] and got["correct"]
        combined["attempted"] += got["attempted"]
        combined["failed"] += got["failed"]
    return combined


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    # no probe thread beside a traced run: its allocations would move the
    # addresses that id-keyed caches in smodlab see, and counts must repeat
    sampler = None if args.trace else speed.Sampler()
    if sampler:
        sampler.start()
    try:
        workload, warm = set_up(args.workload, args.seed, workdir)
        if args.trace:
            out = traced(args, workload, warm)
        else:
            end = time.perf_counter()
            setup_s = sampler.scale(START, end, end - START)
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return
            out = measure(args, workload, warm, setup_s, sampler)
    finally:
        if sampler:
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(out))


if __name__ == "__main__":
    main()

"""insdel-lab benchmark runner.

    python3 perfbench/run.py --workload region --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the library is imported from its `src/`.
One run sets the workload up several times (fresh import of the library plus
building the inputs) and reports the median as `setup_s`.  It then runs
the workload's fixed job list again and again, untraced, until `--seconds` of
job time have passed; `wall_s` is the median time of one pass.  Both times
are corrected for the machine's speed while they ran (see pace.py); the raw
wall time is reported with the per-layer metrics.  Outputs are checked
outside the timed section.  With `--trace 1` one more set-up and one more
pass run under the span tracer, and the per-layer metrics are printed instead
of the end-to-end ones.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A readable summary, with the error rate,
Python version and CPU count, goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Set-up repeats at least this often and for at least this long in total.
SETUP_REPEATS, SETUP_SECONDS = 5, 1.0


def import_library() -> SimpleNamespace:
    """Import insdel_lab afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "insdel_lab" or m.startswith("insdel_lab.")]:
        del sys.modules[name]
    package = importlib.import_module("insdel_lab")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"insdel_lab was imported from {package.__file__}, not {SRC}")
    layers = {layer: importlib.import_module(f"insdel_lab.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **layers)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Checker:
    """Checks job outputs; a repeat whose output matches a checked one reuses
    that verdict, so expensive oracles run once per distinct output."""

    def __init__(self) -> None:
        self.seen: dict[str, list[tuple[object, str | None]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, job: workloads.Job, outcome: tuple[bool, object]) -> None:
        self.attempted += 1
        ok, value = outcome
        if not ok:
            problem = f"crashed: {value!r}"
        else:
            key = job.key(value)
            known = self.seen.setdefault(job.name, [])
            problem = next((p for k, p in known if k == key), "unchecked")
            if problem == "unchecked":
                problem = job.check(value)
                if known:
                    problem = problem or "output differs between repeats"
                known.append((key, problem))
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{job.name}: {problem}")


def run_jobs(jobs: list[workloads.Job], tracer: Tracer | None = None) -> list[tuple[bool, object]]:
    outcomes = []
    for job in jobs:
        span = tracer.begin("job") if tracer else None
        try:
            outcomes.append((True, job.call()))
        except Exception as exc:  # a crash is a failed job, not an aborted run
            outcomes.append((False, exc))
        finally:
            if tracer:
                tracer.finish(span)
    return outcomes


def per_layer(tracer: Tracer, diagnostics: dict[str, tuple[float, str]]) -> dict:
    stats = tracer.summary()
    counts = tracer.counts

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(stats.get(name, (0, 0.0))[1] for name in names)

    def layer_self_s(layer: str) -> float:
        return sum((own for name, (_, own) in stats.items() if name.startswith(layer + ".")), 0.0)

    outputs = counts["words.insdel_ball.outputs"]
    values = {
        "words.lcs_length.calls": (calls("words.lcs_length"), "count"),
        "words.lcs_length.self_s": (self_s("words.lcs_length"), "s"),
        "words.insdel_ball.calls": (calls("words.insdel_ball"), "count"),
        "words.insdel_ball.self_s": (self_s("words.insdel_ball"), "s"),
        "words.insdel_ball.outputs": (outputs, "count"),
        "words.insdel_ball.cap_estimate_ratio": (
            counts["words.insdel_ball.estimate"] / outputs if outputs else 0.0,
            "ratio",
        ),
        "words.Word.validations": (counts["words.Word.validations"], "count"),
        "words.in_insdel_ball.calls": (calls("words.in_insdel_ball"), "count"),
        "words.in_insdel_ball.self_s": (self_s("words.in_insdel_ball"), "s"),
        "words.levenshtein_ball.self_s": (self_s("words.levenshtein_ball"), "s"),
        "verify.list_decodable.calls": (calls("verify.list_decodable"), "count"),
        "verify.list_decodable.self_s": (self_s("verify.list_decodable"), "s"),
        "verify.list_decodable.nondecodable": (counts["verify.list_decodable.nondecodable"], "count"),
        "verify.list_decodable.pooled_s": (counts["verify.list_decodable.pooled_s"], "s"),
        "verify.check_bound_region.calls": (calls("verify.check_bound_region"), "count"),
        "verify.check_bound_region.self_s": (self_s("verify.check_bound_region"), "s"),
        "verify.min_levenshtein_distance.calls": (calls("verify.min_levenshtein_distance"), "count"),
        "verify.min_levenshtein_distance.self_s": (self_s("verify.min_levenshtein_distance"), "s"),
        "verify.decoder_ball_matches_channel.self_s": (self_s("verify.decoder_ball_matches_channel"), "s"),
        "verify.region.pairs_checked": (counts["verify.region.pairs_checked"], "count"),
        "verify.region.pairs_skipped": (counts["verify.region.pairs_skipped"], "count"),
        "verify.region.runs_beating_unique": (counts["verify.region.runs_beating_unique"], "count"),
        "codes.construct.self_s": (
            self_s("codes.vt_binary", "codes.vt_qary", "codes.helberg", "codes.rs_code"),
            "s",
        ),
        "codes.rs_search_eval_points.self_s": (self_s("codes.rs_search_eval_points"), "s"),
        "codes.rs_search_eval_points.examined": (counts["codes.rs_search_eval_points.examined"], "count"),
        "bounds.insertion_bound.calls": (calls("bounds.insertion_bound"), "count"),
        "bounds.insertion_bound.self_s": (self_s("bounds.insertion_bound"), "s"),
        "bounds.PiecewiseBound.evaluate.calls": (calls("bounds.PiecewiseBound.evaluate"), "count"),
        "bounds.PiecewiseBound.evaluate.self_s": (self_s("bounds.PiecewiseBound.evaluate"), "s"),
        "bounds.insertion_bound_piecewise.self_s": (self_s("bounds.insertion_bound_piecewise"), "s"),
        "bounds.comparison_report.calls": (calls("bounds.comparison_report"), "count"),
        "bounds.comparison_report.self_s": (self_s("bounds.comparison_report"), "s"),
        "bounds.hy_quadratic.self_s": (self_s("bounds.hy_quadratic1", "bounds.hy_quadratic2"), "s"),
        "figures.rows": (counts["figures.rows"], "count"),
        "figures.bytes": (counts["figures.bytes"], "bytes"),
        "figures.self_s": (layer_self_s("figures"), "s"),
        "combinatorics.self_s": (layer_self_s("combinatorics"), "s"),
        "combinatorics.count_v_covers.calls": (calls("combinatorics.count_v_covers"), "count"),
    }
    for number in range(1, 12):
        values[f"acceptance.criterion_{number:02d}_s"] = (0.0, "s")
    values.update(diagnostics)
    return {
        name: {"value": int(v) if unit in ("count", "bytes") else v, "unit": unit}
        for name, (v, unit) in values.items()
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    build = workloads.WORKLOADS[name]
    setups: list[pace.Pace] = []
    while len(setups) < SETUP_REPEATS or sum(s.wall for s in setups) < SETUP_SECONDS:
        with pace.Pace() as timing:
            lib = import_library()
            workload = build(lib, seed)
        setups.append(timing)
        gc.collect()  # free the previous import, so peak RSS does not grow with repeats
    # one set-up holds few probe samples, so their speed is pooled
    setup_s = statistics.median(s.own for s in setups) * pace.speed(
        [t for s in setups for t in s.probes]
    )

    checker = Checker()
    checker.problems += workload.problems
    passes: list[pace.Pace] = []
    cpus, extras = [], []
    while sum(p.wall for p in passes) < seconds:
        workload.before_rep()
        cpu0 = cpu_seconds()
        with pace.Pace() as timing:
            outcomes = run_jobs(workload.jobs)
        passes.append(timing)
        cpus.append(cpu_seconds() - cpu0)
        extras.append(workload.extras([value if ok else None for ok, value in outcomes]))
        for job, outcome in zip(workload.jobs, outcomes):
            checker.record(job, outcome)
        del outcomes  # so the next pass does not run with two passes' outputs alive
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(p.corrected for p in passes)
    raw_wall_s = statistics.median(p.wall for p in passes)
    speed = statistics.median(pace.speed(p.probes) for p in passes)

    if trace:
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = build(lib, seed)
            traced.before_rep()
            start = time.perf_counter()
            outcomes = run_jobs(traced.jobs, tracer)
            traced_wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        for job, outcome in zip(traced.jobs, outcomes):
            checker.record(job, outcome)
        diagnostics = {
            key: (statistics.median(e[key] for e in extras if key in e), "s")
            for key in set().union(*extras)
        }
        diagnostics["run.cpu_s"] = (statistics.median(cpus), "s")
        diagnostics["run.raw_wall_s"] = (raw_wall_s, "s")
        diagnostics["run.speed_ratio"] = (speed, "ratio")
        # both raw: the traced pass runs without the speed probe, which would
        # otherwise add its time to whichever span it interrupts
        diagnostics["trace.overhead_ratio"] = (traced_wall / raw_wall_s, "ratio")
        metrics = per_layer(tracer, diagnostics)
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    correct = checker.failed == 0 and not workload.problems
    error_rate = checker.failed / checker.attempted
    print(
        f"insdel-lab benchmark: workload={name} seed={seed} passes={len(passes)} "
        f"python={platform.python_version()} nproc={os.cpu_count()} "
        f"raw_wall_s={raw_wall_s:.6g} speed_ratio={speed:.4g}",
        file=sys.stderr,
    )
    for metric, entry in metrics.items():
        print(f"  {metric:45s} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(f"  {'error_rate':45s} {error_rate:>14.6g} ratio", file=sys.stderr)
    for problem in checker.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    print(f"{'workload':10s} {'metric':45s} {'value':>14s} unit")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
        )
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name:10s} no result (exit code {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:10s} {metric:45s} {entry['value']:>14.6g} {entry['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{name:10s} {'error_rate':45s} {rate:>14.6g} ratio")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "insdel_lab" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of pnu: one workload per run, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload linear_nu --seed 1 --seconds 20 --trace 0

Workloads: linear_nu, kernel_cv_csv, kernel_holdout, verify (see
workloads.py for what each runs and why).  A run sets up several times
(import of pnu, the workload's inputs, a warm-up) and then repeats passes
over the workload's operations for ``--seconds``.  The passes take turns
over the workload's input sets, all drawn from ``--seed``, so that a run
averages over several draws and not one; a pass that reruns an input set
must reproduce every operation's output bit for bit and repeat its work
counts exactly.

``--trace 0`` reports the end-to-end metrics: setup_s (import plus the
median set-up) and norm_wall_s (time to the finished table or verdict,
see ``norm_table_s``), both rescaled by the host speed measured around
them (see reference.py), and peak_rss_mb.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
layers.py from the traced ones, each the smallest over the traced passes,
plus trace.overhead_frac.  Both print a readable summary (the raw
setup_wall_s and wall_s, mean_error and fail_frac included) and then, as
the last line, one JSON object with the keys correct, attempted, failed
and metrics.
Details, work counts, the environment and the table digest go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("linear_nu", "kernel_cv_csv", "kernel_holdout", "verify")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
#: No pass starts when it would end past this, so a run ends within 180 s.
RUN_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads(nproc: int) -> dict:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit():
    """HEAD of the checkout's git metadata, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_digest() -> str:
    """Hash of the package and benchmark sources, standing in for a commit."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "pnu").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, nproc: int, threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "git_commit": git_commit(),
        "code_digest": code_digest(),
    }


def cpu_time_s() -> float:
    """User plus system CPU time of this process and its children."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(
        resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Run:
    """Passes over one workload, with every operation's output checked."""

    def __init__(self, input_sets, run_stats, reference):
        self.input_sets = input_sets
        self.run_stats = run_stats
        self.reference_s = reference.reference_s
        self.normalized = reference.normalized
        self.stamps = {}
        self.outputs = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def run_pass(self, input_set: int, tracer=None) -> dict:
        """Every operation of one input set once; returns outputs, times and counts."""
        wl = self.input_sets[input_set]
        outputs, violations = {}, {}
        op_s, norm_s, cpu_s, fits, outer = {}, {}, 0.0, 0, 0
        ref_before = self.reference_s()
        for op in wl.ops:
            before = self.run_stats()
            cpu_start = cpu_time_s()
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run_op(op)
                else:
                    with tracer.span("bench.op"):
                        out = wl.run_op(op)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            op_s[op] = time.perf_counter() - start
            cpu_s += cpu_time_s() - cpu_start
            after = self.run_stats()
            ref_after = self.reference_s()
            norm_s[op] = self.normalized(op_s[op], ref_before, ref_after)
            ref_before = ref_after
            fits += after["runs"] - before["runs"]
            outer += after["outer_steps"] - before["outer_steps"]
            outputs[op] = out
            violations[op] = after["monotonicity_violations"] - before["monotonicity_violations"]
        counts = {"ops": len(wl.ops), "trials": wl.trials(), "training.fits": fits,
                  "training.outer_steps": outer}
        return {"set": input_set, "wall_s": sum(op_s.values()), "op_s": op_s, "norm_s": norm_s,
                "cpu_s": cpu_s, "counts": counts,
                "outputs": outputs, "violations": violations, "traced": tracer is not None}

    def check(self, result: dict) -> dict:
        """Check a pass's outputs against the workload and the first pass on its input set.

        Runs after the pass, outside any tracing, and drops the outputs.
        """
        wl = self.input_sets[result["set"]]
        outputs = result.pop("outputs")
        for op, out in outputs.items():
            self.attempted += wl.units
            if isinstance(out, Exception):
                problems = [f"raised {out!r}"] * wl.units
            else:
                problems = list(wl.check_op(op, out))
                if result["violations"][op]:
                    problems.append(f"{result['violations'][op]} CCCP monotonicity violations")
                stamp = wl.fingerprint(out)
                if self.stamps.setdefault((result["set"], op), stamp) != stamp:
                    problems.append("output differs from the first pass on its input set"
                                    + (" (traced)" if result["traced"] else ""))
            if problems:
                self.failed += min(wl.units, len(problems))
                self.add_problem(f"{op}: {'; '.join(problems)}")
        if (self.outputs is None and result["set"] == 0
                and not any(isinstance(o, Exception) for o in outputs.values())):
            self.outputs = outputs
        return result


def _median(values) -> float:
    return float(statistics.median(values))


def by_set(passes: list) -> list:
    """The passes grouped by input set, in order of the sets."""
    groups = {}
    for p in passes:
        groups.setdefault(p["set"], []).append(p)
    return [groups[k] for k in sorted(groups)]


def norm_table_s(passes: list) -> float:
    """Normalized time of one input set's table, averaged over the input sets.

    On a shared 2-CPU host the same ``verify`` pass took from 1.2 s to 2.3 s
    within a few minutes, in stretches of seconds to minutes, so a raw time
    says as much about the neighbours as about pnu.  Each operation's time
    is rescaled by the reference loop timed either side of it (see
    reference.py); an input set's table time is the sum over its operations
    of the median over the passes that ran it.  The mean over input sets
    keeps one draw's solver iterations from setting the run's figure.
    """
    return statistics.fmean(
        sum(_median([p["norm_s"][op] for p in group]) for op in group[0]["norm_s"])
        for group in by_set(passes))


def timed_loop(step, seconds: float, minimum: int) -> list:
    """Call ``step`` until the next call would overrun ``seconds``."""
    start = time.perf_counter()
    results, lengths = [], []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        expected = elapsed + _median(lengths)
        if (len(results) >= minimum and expected > seconds) or expected > RUN_LIMIT_S:
            return results


def same_counts(passes: list) -> bool:
    """Whether every pass repeats the work counts of the first pass on its input set."""
    return all(p["counts"] == group[0]["counts"] for group in by_set(passes) for p in group)


def check_across_runs(key: str, counts: dict) -> list:
    """Counts that differ from an earlier run of the same code, workload and seed."""
    path = OUT / "counts.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    earlier = record.setdefault(key, {})
    differing = sorted(k for k, v in counts.items() if k in earlier and earlier[k] != v)
    earlier.update(counts)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    src = ROOT / "src"
    if not (src / "pnu" / "__init__.py").is_file():
        print(f"error: no pnu package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import pnu
    import pnu.training
    import workloads
    import_s = time.perf_counter() - t0
    if Path(pnu.__file__).resolve().parent != (src / "pnu").resolve():
        print(f"error: imported pnu from {pnu.__file__}, not {src}", file=sys.stderr)
        return 2

    env = environment(args, nproc, threads)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        import reference  # imports numpy, so only after the thread caps and import_s

        for _ in range(3):
            ref_before = reference.reference_s()
        norm_import_s = reference.normalized(import_s, ref_before, ref_before)
        input_sets = workloads.make_sets(args.workload, args.seed, str(workdir))
        wl = input_sets[0]
        setups, norm_setups = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.prepare()
            wl.warm_up()
            setups.append(time.perf_counter() - start)
            ref_after = reference.reference_s()
            norm_setups.append(reference.normalized(setups[-1], ref_before, ref_after))
            ref_before = ref_after
        setup_s = norm_import_s + _median(norm_setups)
        setup_wall_s = import_s + _median(setups)
        for other in input_sets[1:]:
            other.prepare()
        run = Run(input_sets, pnu.training.run_stats, reference)
        if args.trace:
            result = traced_run(run, args)
        else:
            turns = itertools.cycle(range(len(input_sets)))
            passes = timed_loop(lambda: run.check(run.run_pass(next(turns))), args.seconds,
                                max(MIN_PASSES, len(input_sets)))
            result = {"untraced": passes, "traced": [], "tracer": None}
        untraced, traced = result["untraced"], result["traced"]
        digest = wl.table_digest(run.outputs) if run.outputs is not None else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    consistent = same_counts(untraced) and same_counts(traced)
    for p in traced:
        for key in ("training.fits", "training.outer_steps"):
            consistent &= p["counts"][key] == untraced[0]["counts"][key]
    if not consistent:
        run.add_problem("work counts differ between passes")
    counts = dict(untraced[0]["counts"], **(traced[0]["counts"] if traced else {}))
    counts["table_sha256"] = digest
    differing = check_across_runs(f"{args.workload}/{args.seed}/{env['code_digest']}", counts)
    for group in by_set(untraced)[1:]:
        key = f"{args.workload}/{args.seed}/set{group[0]['set']}/{env['code_digest']}"
        differing += check_across_runs(key, group[0]["counts"])

    norm_wall_s = norm_table_s(untraced)
    wall_s = _median([p["wall_s"] for p in untraced])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    mean_error = wl.mean_error(run.outputs) if run.outputs is not None else None
    fail_frac = run.failed / run.attempted
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in result["per_layer"]}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "norm_wall_s": {"value": norm_wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    report = {
        "environment": env,
        "setup_runs_s": setups,
        "setup_runs_norm_s": norm_setups,
        "import_s": import_s,
        "input_sets": len(input_sets),
        "untraced_pass_sets": [p["set"] for p in untraced],
        "untraced_pass_wall_s": [p["wall_s"] for p in untraced],
        "untraced_pass_norm_wall_s": [sum(p["norm_s"].values()) for p in untraced],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "mean_error": mean_error,
        "fail_frac": fail_frac,
        "work_counts": counts,
        "counts_repeat_across_passes": consistent,
        "counts_differing_from_earlier_runs": differing,
        "problems": run.problems,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if result["tracer"] is not None:
        result["tracer"].save(OUT / f"{stem}-spans.npz")

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace} input_sets={len(input_sets)} "
          f"passes={len(untraced)}+{len(traced)} table_sha256={digest}")
    print("work counts " + json.dumps(counts, sort_keys=True))
    if differing:
        print(f"FLAG: work counts {differing} differ from an earlier run of this code and seed")
    for problem in run.problems:
        print(f"FAIL: {problem}")
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not args.trace:
        shown["setup_wall_s"] = (setup_wall_s, "s")
        shown["wall_s"] = (wall_s, "s")
        if mean_error is not None:
            shown["mean_error"] = (mean_error, "fraction")
        shown["fail_frac"] = (fail_frac, "fraction")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and consistent,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def traced_run(run: Run, args) -> dict:
    """Untraced and traced passes in turn on input set 0; per-layer metrics from the traced ones."""
    import layers
    import spans

    state = {"untraced": [], "traced": [], "layers": [], "tracer": None}

    def pair():
        state["untraced"].append(run.check(run.run_pass(0)))
        tracer = spans.Tracer()
        with spans.patched(layers.probes(tracer)):
            traced = run.run_pass(0, tracer)
        run.check(traced)
        metrics = layers.layer_metrics(tracer, traced["counts"]["training.outer_steps"])
        traced["counts"].update({k: metrics[k] for k in layers.WORK_COUNTS})
        state["traced"].append(traced)
        state["layers"].append(metrics)
        state["tracer"] = tracer

    timed_loop(pair, args.seconds, MIN_TRACED_PAIRS)
    per_pass = state["layers"]
    merged = {name: min(m[name] for m in per_pass) for name in per_pass[0]}
    untraced_wall = norm_table_s(state["untraced"])
    traced_wall = norm_table_s(state["traced"])
    merged["harness.cpu_s"] = min(p["cpu_s"] for p in state["untraced"])
    merged["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    state["layers"] = merged
    state["per_layer"] = layers.PER_LAYER
    return state


if __name__ == "__main__":
    sys.exit(main())

"""linfnorm benchmark: time to a certified L-infinity norm.

Run from the repository root:

    python3 bench/run.py --workload delay_sparse --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --smoke

One workload runs in this process against the linfnorm sources under
``src/``.  The fixed job set of the workload is repeated in rounds within
``--seconds`` seconds (ROUNDS rounds, fewer if they do not fit).  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` a traced round runs between the first two
untraced ones and the JSON holds the per-layer metrics of the traced round.
End-to-end times are scaled to a reference machine speed, measured by a
numpy-only yardstick that runs between the jobs (see ``Yardstick``).
Human-readable lines, including the raw times, the job-time tail and the
fail fraction, come before it.  Spans and per-job rows
are written under ``.bench_out/``.  ``--workload all`` runs every workload in
a process of its own; ``--smoke`` is the benchmark's own quick test.
See bench/METRICS.md for the metric definitions.
"""

import os

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1
BLAS_ENV_BEFORE = {k: os.environ.get(k) for k in BLAS_ENV}
for _var in BLAS_ENV:   # must happen before numpy is imported
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("delay_sparse", "rational_damped")
#: set-up (importing linfnorm, building every job's problem) is timed this
#: many times per run
SETUP_PASSES = 3
#: untraced rounds per run; a job's time is its mean over the rounds
ROUNDS = {"delay_sparse": 4, "rational_damped": 3}
#: a run that is still going after this many seconds gives up
DEADLINE_S = 150.0
EXIT_NO_LIBRARY, EXIT_COUNTS, EXIT_DEADLINE = 2, 3, 4

#: the yardstick's kernels (numpy and scipy only, fixed inputs): SVDs of a
#: dense matrix of order YARD_DENSE_N, and a sparse LU with a block solve
#: and a QR of a YARD_SPARSE_N x YARD_COLS block, the shapes of the
#: full-order work in linfnorm
YARD_DENSE_N, YARD_DENSE_REPS = 120, 10
YARD_SPARSE_N, YARD_COLS = 100_000, 12
#: seconds one unit of each kernel takes at the reference speed (a 2-vCPU
#: Xeon host with OpenBLAS on one thread); timings are scaled to this speed
YARD_REF_S = {"dense": 0.025, "sparse": 0.125, "block_qr": 0.120}
#: after each job the yardstick runs for this share of the job's time
YARD_SHARE = 0.1
#: yardstick seconds before and after each set-up pass
YARD_SETUP_S = 0.15

#: glibc's M_MMAP_THRESHOLD; a fixed value also turns off its run-time growth
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 128 * 1024


def pin_allocator():
    """Fixes glibc's mmap threshold, so that memory freed by the LU cache goes
    back to the system and peak RSS measures live memory.  With the default
    sliding threshold one 12500-order sweep peaked anywhere from 0.6 to 1.1 GB
    on repeated runs, against a steady 0.22 GB with the threshold fixed; but
    every large temporary then costs fresh page faults, so only the memory
    probe runs this way.  Returns the threshold, or None without mallopt."""
    try:
        ok = ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    except (AttributeError, OSError):
        return None
    return MMAP_THRESHOLD if ok else None


class BenchError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_library() -> None:
    """Imports linfnorm from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import linfnorm
    except ImportError as err:
        raise BenchError(EXIT_NO_LIBRARY, f"cannot import linfnorm from {SRC}: {err}")
    where = Path(linfnorm.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(EXIT_NO_LIBRARY, f"linfnorm came from {where}, not {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("linfnorm/*.py"), *ROOT.glob("bench/*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_env_before": BLAS_ENV_BEFORE,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


class Yardstick:
    """Measures the speed of the machine with work that does not touch
    linfnorm.  On a shared host the speed of a core drifts by 20-30% over
    minutes, and all code slows down together; dividing a time by the
    yardstick's time over the same stretch cancels most of that drift.

    The kernels take turns, one unit at a time.  ``run(seconds)`` adds to a
    debt and runs units until it is paid, so that short jobs share units and
    the yardstick's share of the run stays at what was asked for."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        rng = np.random.default_rng(YARD_DENSE_N)
        a = rng.standard_normal((YARD_DENSE_N, YARD_DENSE_N))
        n = YARD_SPARSE_N
        t = sp.diags([np.ones(n - 1), np.full(n, 5.0 + 3.0j), np.ones(n - 1)],
                     [-1, 0, 1], format="csc")
        v = rng.standard_normal((n, YARD_COLS)) + 1j * rng.standard_normal((n, YARD_COLS))

        def dense():
            for _ in range(YARD_DENSE_REPS):
                np.linalg.svd(a)

        self.kernels = {"dense": dense,
                        "sparse": lambda: splu(t).solve(v),
                        "block_qr": lambda: np.linalg.qr(v)}
        for kernel in self.kernels.values():    # warm-up, not counted
            kernel()
        self.order = list(self.kernels)
        self.debt = 0.0
        self.units_run = 0
        self.seconds = dict.fromkeys(self.kernels, 0.0)
        self.units = dict.fromkeys(self.kernels, 0)

    def run(self, seconds: float) -> None:
        self.debt += seconds
        while self.debt > 0.0:
            self._unit(self.order[self.units_run % len(self.order)])

    def _unit(self, name: str) -> None:
        t0 = perf_counter()
        self.kernels[name]()
        elapsed = perf_counter() - t0
        self.seconds[name] += elapsed
        self.units[name] += 1
        self.units_run += 1
        self.debt -= elapsed

    def take(self) -> dict:
        """{kernel: (seconds, units)} since the last call; restarts.  A
        kernel that has not run since the last call runs one unit first, so
        that a stretch of jobs too short to pay for a unit still has a
        factor; full-scale rounds pay for several units of each."""
        for name in self.order:
            if not self.units[name]:
                self._unit(name)
        taken = {k: (self.seconds[k], self.units[k]) for k in self.kernels}
        self.seconds = dict.fromkeys(self.kernels, 0.0)
        self.units = dict.fromkeys(self.kernels, 0)
        return taken


def speed_factor(*taken) -> float:
    """Reference over measured speed, from ``Yardstick.take`` results: one
    over the mean, across kernels, of each kernel's time per unit relative
    to its reference."""
    slowness = [sum(t[name][0] for t in taken) / sum(t[name][1] for t in taken) / ref
                for name, ref in YARD_REF_S.items()]
    return len(slowness) / sum(slowness)


def check_deadline():
    if perf_counter() - T_START > DEADLINE_S:
        raise BenchError(EXIT_DEADLINE, f"run exceeded {DEADLINE_S:.0f} s")


def _untraced(_span, fn, *args):
    return fn(*args)


def run_round(jobs, tracer=None, yard=None) -> dict:
    """Runs every job once; problems are built just before and dropped
    right after their job.  After each job the yardstick, if given, runs
    for YARD_SHARE of the job's time."""
    call = _untraced if tracer is None else tracer.call
    results, times = [], []
    t_round = perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for idx, job in enumerate(jobs):
            check_deadline()
            if tracer is not None:
                tracer.job = idx
            tf = call("problems.build", job.build)
            if tracer is not None:
                tracer.set_problem(tf)
            t0 = perf_counter()
            try:
                result, error = call(job.root, job.solve, tf), None
            except Exception as err:   # a raising job counts as failed
                result, error = None, err
            times.append(perf_counter() - t0)
            results.append((result, error))
            if yard is not None:
                yard.run(YARD_SHARE * times[-1])
            if error is not None:
                print(f"{job.label}: " + "".join(
                    traceback.format_exception_only(error)).strip(), file=sys.stderr)
            if tracer is not None:
                tracer.set_problem(None)
            del tf
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall": perf_counter() - t_round, "times": times,
            "results": results, "tracer": tracer, "t0": t_round,
            "yard": None if yard is None else yard.take()}


def measure(jobs, seconds, traced, rounds_wanted, yard):
    """``rounds_wanted`` untraced rounds, each with the yardstick between its
    jobs; a traced run puts its traced round, which has no yardstick,
    between the first two, so that neither kind always runs first.  A run
    stops early only if the next round would end after ``seconds``."""
    from tracing import Tracer
    plan = [None] * rounds_wanted
    if traced:
        plan.insert(1, Tracer())
    t0 = perf_counter()
    rounds = []
    for tracer in plan:
        rounds.append(run_round(jobs, tracer, yard if tracer is None else None))
        elapsed = perf_counter() - t0
        if (elapsed * (1 + 1 / len(rounds)) > seconds
                and (not traced or len(rounds) >= 3)):
            break
    return rounds


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import linfnorm from src/."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path.insert(0, {str(SRC)!r}); import linfnorm; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def round_counts(outcomes) -> dict:
    """Sums of the per-job counts of one round."""
    total = {}
    for o in outcomes:
        for key, value in o.counts.items():
            total[key] = total.get(key, 0) + value
    return total


def tail(times):
    """(value, percentile) of the highest per-job percentile with at least
    ten jobs beyond it, or None with fewer than 20 jobs."""
    if len(times) < 20:
        return None
    ordered = sorted(times)
    return ordered[-11], 100.0 * (len(times) - 10) / len(times)


def check_counts(key_parts, current: dict) -> None:
    """Fails loudly if a count differs from an earlier run of the same seed,
    code and machine; remembers the counts for later runs."""
    key = hashlib.sha256(json.dumps(key_parts, sort_keys=True).encode()).hexdigest()
    stem = "{workload}-{scale}-seed{seed}".format(**key_parts)
    path = OUT / "counts" / f"{stem}-{key[:16]}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    for name in current.keys() & seen.keys():
        if current[name] != seen[name]:
            raise BenchError(EXIT_COUNTS, f"counts {name!r} differ from an earlier "
                             f"run of this seed: {current[name]} vs {seen[name]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**seen, **current}))
    tmp.replace(path)


def memory_probe(args) -> int:
    """Runs the workload's largest job once; prints the peak RSS in MB."""
    threshold = pin_allocator()
    import_library()
    import workloads
    job = workloads.make_jobs(args.workload, args.seed, args.scale)[0]
    try:
        job.solve(job.build())
    except Exception:   # the timed rounds count the failure
        pass
    print(json.dumps({"peak_rss_mb": peak_rss_mb(),
                      "malloc_mmap_threshold": threshold}))
    return 0


def peak_rss_mb() -> float:
    """VmHWM of this process.  Unlike ru_maxrss it does not inherit the
    parent's peak through fork and exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_memory(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--memory-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale],
        capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise BenchError(proc.returncode, f"memory probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    import_library()
    env = environment()
    import workloads
    from tracing import layer_metrics, median_times

    metric_spec = spec()["per_layer" if args.trace else "end_to_end"]
    jobs = workloads.make_jobs(args.workload, args.seed, args.scale)
    yard = Yardstick()
    setups = []
    for _ in range(SETUP_PASSES):
        yard.run(YARD_SETUP_S)
        t0 = perf_counter()
        for job in jobs:
            problem = job.build()
            del problem
        build_s = perf_counter() - t0
        setups.append(import_seconds() + build_s)
        yard.run(YARD_SETUP_S)
    setup_factor = speed_factor(yard.take())
    setup_s = statistics.median(setups) * setup_factor
    workloads.warm_up(args.workload)

    rounds_wanted = ROUNDS[args.workload] if args.scale == "full" else 2
    rounds = measure(jobs, args.seconds, args.trace, rounds_wanted, yard)
    for r in rounds:
        r["outcomes"] = [workloads.evaluate(job, res, err)
                         for job, (res, err) in zip(jobs, r["results"])]
    job_counts = [[o.counts for o in r["outcomes"]] for r in rounds]
    if any(c != job_counts[0] for c in job_counts):
        raise BenchError(EXIT_COUNTS, "job counts differ between rounds of one run")
    outcomes = [o for r in rounds for o in r["outcomes"]]
    wrong = [o.wrong for o in outcomes if o.wrong]
    attempted, failed = len(outcomes), sum(o.failed for o in outcomes)
    untraced = [r for r in rounds if r["tracer"] is None]
    # each job's mean over the rounds, scaled by the yardstick's mean speed
    # over the same rounds: both average over the same stretch of time
    run_factor = speed_factor(*(r["yard"] for r in untraced))
    raw_times = [statistics.fmean(ts) for ts in zip(*(r["times"] for r in untraced))]
    job_times = [t * run_factor for t in raw_times]

    values = {}
    notes = {}
    counts = {"jobs": job_counts[0]}
    if args.trace:
        traced = [r for r in rounds if r["tracer"] is not None]
        per_round = [layer_metrics(r["tracer"].spans, r["wall"]) for r in traced]
        layer_counts = [c for _, c in per_round]
        if any(c != layer_counts[0] for c in layer_counts):
            raise BenchError(EXIT_COUNTS, "layer counts differ between traced rounds")
        from_results = round_counts(traced[0]["outcomes"])
        counts["layers"] = {
            **layer_counts[0],
            "greedy.iterations": from_results.get("iterations", 0),
            "greedy.basis_dim": from_results.get("basis_dim", 0),
            "greedy.unconverged_count": from_results.get("unconverged", 0),
            "oracle.refine_iters": from_results.get("refine_iters", 0),
        }
        values.update(median_times([t for t, _ in per_round]))
        values.update(counts["layers"])
        values["trace.overhead_frac"] = (
            statistics.median(sum(r["times"]) for r in traced)
            / statistics.median(sum(r["times"]) for r in untraced) - 1.0)
        missing = traced[0]["tracer"].missing
        if missing:
            print("hooks not found (their metrics read 0): " + ", ".join(missing),
                  file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        traced[-1]["tracer"].write_jsonl(spans_path, traced[-1]["t0"])
        notes["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values["wall_s"] = sum(job_times)
        values["job_s_p50"] = statistics.median(job_times)
        values["setup_s"] = setup_s
        probe = probe_memory(args)
        notes["memory_probe"] = probe
        values["peak_rss_mb"] = probe["peak_rss_mb"]
    check_counts({"workload": args.workload, "scale": args.scale, "seed": args.seed,
                  "source": env["source_sha256"],
                  "cpu": env["cpu"], "blas": env["blas"]}, counts)

    jt = tail(job_times)
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(jobs)} jobs per round, {len(untraced)} untraced and "
          f"{len(rounds) - len(untraced)} traced rounds")
    print("  speed factors (reference / measured): set-up "
          f"{setup_factor:.4f}, rounds {run_factor:.4f} ("
          + " ".join(f"{speed_factor(r['yard']):.4f}" for r in untraced) + ")")
    for m in metric_spec:
        print(f"  {m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'job_s_tail':<32} " + (
            f"{jt[0]:.6g} s (p{jt[1]:.1f} of {len(job_times)} jobs)" if jt
            else f"n/a ({len(job_times)} jobs, needs 20)"))
        print(f"  {'fail_frac':<32} {failed / attempted:.6g} "
              f"({failed} of {attempted} jobs)")
        print(f"  raw seconds: wall {sum(raw_times):.6g}, job p50 "
              f"{statistics.median(raw_times):.6g}, set-up {statistics.median(setups):.6g}")
    for msg in wrong:
        print(f"WRONG {msg}", file=sys.stderr)
    print(f"correct: {not wrong}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "args": vars(args), "env": env, "setups_s": setups, "setup_factor": setup_factor,
        "run_factor": run_factor, "round_yardsticks": [r["yard"] for r in untraced],
        "job_s_tail": jt, "notes": notes,
        "counts": counts, "metrics": values,
        "jobs": [{"label": job.label, "reference": job.reference,
                  "raw_seconds": [r["times"][i] for r in untraced],
                  "norm": rounds[0]["outcomes"][i].norm,
                  "omega": rounds[0]["outcomes"][i].omega,
                  "failed": rounds[0]["outcomes"][i].failed}
                 for i, job in enumerate(jobs)],
    }, indent=1))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_spec}}))
    return 0


def child(workload, seed, seconds, trace, scale, cwd=None):
    cmd = [sys.executable, str(Path(__file__).resolve() if cwd is None
                               else Path(cwd) / "bench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale", scale]
    return subprocess.run(cmd, cwd=cwd or ROOT, capture_output=True, text=True,
                          timeout=600)


def run_all(args) -> int:
    """Every workload in its own process; relays their output."""
    status = 0
    for w in WORKLOADS:
        proc = child(w, args.seed, args.seconds, args.trace, args.scale)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"{w}: exit code {proc.returncode}")
            status = 1
    return status


def smoke() -> int:
    """The benchmark's own test: every workload at a tiny scale, twice per
    trace level with one seed (the second run re-checks the counts), output
    checked against BENCHMARK.json; then a copy holding only BENCHMARK.json
    and bench/ must fail without printing a result."""
    problems = []
    bench = spec()
    for trace in (0, 1):
        wanted = {m["name"]: m["unit"]
                  for m in bench["per_layer" if trace else "end_to_end"]}
        for w in WORKLOADS:
            found = len(problems)
            outputs = []
            for _ in range(2):
                proc = child(w, 1, 1, trace, "smoke")
                if proc.returncode:
                    problems.append(f"{w} trace {trace}: exit {proc.returncode}: "
                                    f"{proc.stderr.strip()[-500:]}")
                    break
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in doc["metrics"].items()}
                if (set(doc) != {"correct", "attempted", "failed", "metrics"}
                        or got != wanted or not doc["correct"] or doc["attempted"] < 1):
                    problems.append(f"{w} trace {trace}: bad result {doc}")
                outputs.append(doc["metrics"])
            if len(outputs) == 2:
                for name, unit in wanted.items():
                    if unit == "count" and outputs[0][name] != outputs[1][name]:
                        problems.append(f"{w}: count {name} differs between runs")
            print(f"smoke {w} trace {trace}: "
                  + ("ok" if len(problems) == found else "FAILED"))
    bare = OUT / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = child(WORKLOADS[0], 1, 1, 0, "smoke", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    bare_ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    if not bare_ok:
        problems.append("a checkout without src/ did not fail")
    print("smoke checkout without src/: " + ("ok" if bare_ok else "FAILED"))
    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-test of the benchmark")
    parser.add_argument("--memory-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    try:
        return memory_probe(args) if args.memory_probe else run_workload(args)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())

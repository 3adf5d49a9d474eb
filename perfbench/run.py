"""cinorm benchmark: one seeded workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` its per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("tables", "scans", "words")
SETUP_SAMPLES = 9
TAIL_GRID = (50.0, 75.0, 90.0, 99.0, 99.9)
#: Time of one ``calibrate()`` on the reference machine at full speed.
CAL_REF_S = 0.0012
#: Interval of the speed samples taken while a job runs.
CAL_EVERY_S = 0.02


def calibrate() -> float:
    """Time a fixed pure-Python loop that shares no code with cinorm, with
    the garbage collector held off so that it measures only the machine."""
    p = tuple(range(9))
    q = (3, 1, 4, 0, 5, 8, 2, 7, 6)
    seen: dict = {}
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(1000):
            p = tuple(map(q.__getitem__, p))
            seen[p] = seen.get(p, 0) + (i * i) % 7
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Speed:
    """The machine's speed over time, sampled with ``calibrate()``.

    The machine the benchmark shares swings in speed by up to 2x within
    seconds.  Samples are taken between jobs and, from a SIGALRM timer,
    every ``CAL_EVERY_S`` while a job runs; ``stolen`` adds up the time the
    timer's samples took, which is taken out of the job's time.  The factor
    for an interval, which scales a time to reference speed, is the mean of
    ``CAL_REF_S / sample`` over the samples inside it and the one just
    before and after it.
    """

    def __init__(self, ticks: bool = True) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0
        self.ticks = ticks
        self._busy = False

    def sample(self) -> None:
        self._busy = True
        self.times.append(time.perf_counter())
        self.samples.append(calibrate())
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            t0 = time.perf_counter()
            self.sample()
            self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Speed":
        self.sample()
        if self.ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, t0: float, t1: float) -> float:
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.times, t1) + 1, len(self.times))
        return statistics.fmean(CAL_REF_S / x for x in self.samples[lo:hi])


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_cinorm():
    """Import cinorm from this checkout's src/ and nowhere else."""
    if not (SRC / "cinorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no cinorm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cinorm
    if Path(cinorm.__file__).resolve().parent != (SRC / "cinorm").resolve():
        raise SystemExit(f"error: imported cinorm from {cinorm.__file__}, not {SRC}")
    return cinorm


class Ctx:
    """Per-pass scratch space: a fresh cache directory and CLI output files."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._n = 0
        (root / "cache").mkdir(parents=True)
        os.environ["CINORM_CACHE_DIR"] = str(root / "cache")

    def out_path(self) -> Path:
        self._n += 1
        return self.root / f"out-{self._n}.json"


def run_pass(jobs, L, scratch: Path, tracer=None, pause=None, ticks=True) -> dict:
    """Run every job once, back to back; time each ``run`` (its latency) and
    each run plus check (its share of the loop), sampling the machine's
    speed throughout (see ``Speed``; a traced pass samples between jobs
    only, so that spans hold no sampling time).

    ``pause(k)``, if given, is called before jobs k * len(jobs) //
    SETUP_SAMPLES, outside the timed spans, to spread set-up probes over the run.
    """
    ctx = Ctx(scratch)
    segments, latencies, failures = [], [], []
    stops = {k * len(jobs) // SETUP_SAMPLES: k for k in range(SETUP_SAMPLES)} if pause else {}
    with Speed(ticks) as speed:
        for i, job in enumerate(jobs):
            if i in stops:
                pause(stops[i])
            if tracer is not None:
                tracer.job = i
                span = tracer.open(f"job.{job.kind}")
            stolen0 = speed.stolen
            t0 = time.perf_counter()
            try:
                result = job.run(L, ctx)
            except Exception as exc:  # a job that raises is a failed job, not a crash
                result, error = None, f"raised {exc!r}"
            else:
                error = None
            t_run = time.perf_counter()
            stolen_run = speed.stolen - stolen0
            if tracer is not None:
                tracer.close(span)
            if error is None:
                if tracer is not None:
                    span = tracer.open(f"check.{job.kind}")
                try:
                    job.check(L, ctx, result)
                except Exception as exc:  # CheckFailed, or a check that could not run
                    error = f"check: {exc!r}"
                if tracer is not None:
                    tracer.close(span)
            t1 = time.perf_counter()
            segments.append((t0, t1, t1 - t0 - (speed.stolen - stolen0)))
            latencies.append((t0, t_run, t_run - t0 - stolen_run))
            speed.sample()
            if error is not None:
                failures.append((i, job.kind, job.group, error))
    factors = [speed.factor(t0, t1) for t0, t1, _ in segments]
    per_kind = Counter()
    for job, (_, _, t) in zip(jobs, latencies):
        per_kind[job.kind] += t
    return {"wall_s": sum(t for _, _, t in segments),
            "latencies": [t for _, _, t in latencies],
            "norm_wall_s": sum(t * f for (_, _, t), f in zip(segments, factors)),
            "norm_latencies": [t * f for (_, _, t), f in zip(latencies, factors)],
            "speed": statistics.median(factors),
            "failures": failures, "per_kind": dict(sorted(per_kind.items()))}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest grid percentile with at least ten jobs beyond it (nearest
    rank), with the number of jobs beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    pct = TAIL_GRID[0]
    for p in TAIL_GRID:
        if n - math.ceil(p / 100 * n) >= 10:
            pct = p
    rank = math.ceil(pct / 100 * n)
    return pct, xs[rank - 1], n - rank


def setup_probe(args, samples: list[float]) -> None:
    """Time one fresh process from its start until it has imported cinorm and
    built the job list, the point where the first job would run.  The child
    then reports ``calibrate()`` samples from its own core, which scale the
    time to reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        t1 = time.perf_counter()
        rest = child.stdout.read()
    if ready != "ready\n" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    samples.append((t1 - t0) * statistics.fmean(CAL_REF_S / x for x in json.loads(rest)))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown"


def provenance(args, cinorm, jobs, n_rounds: int) -> dict:
    n = len(jobs)
    props = Counter(p for j in jobs for p in j.props)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds": n_rounds, "jobs": n,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "cinorm": cinorm.__version__,
        "commit": git_commit(),
        "jobs_per_kind": dict(sorted(Counter(j.kind for j in jobs).items())),
        "jobs_per_group": dict(sorted(Counter(j.group for j in jobs).items())),
        "share": {k: props[k] / n for k in ("cache_repeat", "s9", "cli")},
    }


def e2e_metrics(res: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed; the raw figures go to notes."""
    n = len(res["latencies"])
    pct, tail_s, beyond = tail(res["norm_latencies"])
    values = {
        "jobs_per_s": (n / res["norm_wall_s"], "jobs/s"),
        "job_ms_p50": (statistics.median(res["norm_latencies"]) * 1e3, "ms"),
        "job_ms_tail": (tail_s * 1e3, "ms"),
        "ok_ratio": ((n - len(res["failures"])) / n, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {"tail_percentile": pct, "jobs": n, "jobs_beyond_tail": beyond,
             "median_speed_factor": res["speed"], "ref_loop_s": res["norm_wall_s"],
             "raw": {"jobs_per_s": n / res["wall_s"],
                     "job_ms_p50": statistics.median(res["latencies"]) * 1e3,
                     "job_ms_tail": tail(res["latencies"])[1] * 1e3,
                     "loop_wall_s": res["wall_s"]},
             "setup_samples_s": setup, "run_s_per_kind": res["per_kind"]}
    return values, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    cinorm = _import_cinorm()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import jobs as jobs_mod
    import spans
    # a traced run makes two passes (untraced, then traced) over half the work
    seconds = args.seconds / 2 if args.trace else args.seconds
    jobs = jobs_mod.build(args.workload, args.seed, seconds)
    if args.setup_probe:
        print("ready", flush=True)
        print(json.dumps([calibrate() for _ in range(5)]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch_parent = ROOT / ".perfbench_tmp"
    scratch_parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_parent))
    try:
        if args.trace:
            wanted = spec["per_layer"]
            ref = run_pass(jobs, spans.layers(), scratch / "untraced", ticks=False)
            tracer = spans.Tracer()
            res = run_pass(jobs, spans.layers(tracer), scratch / "traced", tracer, ticks=False)
            micro, micro_ok = spans.microcalls(args.seed)
            values, table = spans.layer_metrics(tracer.spans, res["wall_s"], micro)
            # overhead at reference speed, so that speed swings between the
            # two passes do not count as tracing cost
            overhead = res["norm_wall_s"] - ref["norm_wall_s"]
            values["trace.overhead_s"] = (overhead, "s")
            values["trace.overhead_share"] = (overhead / ref["norm_wall_s"], "1")
            notes = {"traced_wall_s": res["wall_s"], "untraced_wall_s": ref["wall_s"],
                     "traced_ref_s": res["norm_wall_s"], "untraced_ref_s": ref["norm_wall_s"]}
            failures = ref["failures"] + res["failures"]
            attempted = 2 * len(jobs)
        else:
            wanted = spec["end_to_end"]
            setup: list[float] = []
            res = run_pass(jobs, spans.layers(), scratch / "run",
                           pause=lambda k: setup_probe(args, setup))
            values, notes = e2e_metrics(res, setup)
            table = None
            failures = res["failures"]
            micro_ok = True
            attempted = len(jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        os.environ.pop("CINORM_CACHE_DIR", None)

    prov = provenance(args, cinorm, jobs, jobs_mod.rounds_for(args.workload, seconds))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    if table:
        print(table)
    for f in failures:
        print("FAILED job %d %s on %s: %s" % f)
    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"error: {m['name']} measured in {unit}, declared {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{m['name']:>14} {value:12.4f} {unit}")
    print(json.dumps({"correct": not failures and micro_ok, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

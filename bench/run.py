"""rackkit benchmark: one closed-loop client, one job in flight.

    python3 bench/run.py --workload structure --seed 1 --seconds 24 --trace 0

Run from the root of a rackkit checkout; the library is imported from its
``src`` directory.  A run sets up the workload's inputs from the seed,
then makes whole passes over the workload's job list and checks every
job's output.  The number of passes is fixed by ``--seconds`` and the
workload's pass count per 24 seconds, so every run -- of any seed, on any
version of the library -- times the same jobs the same number of times.

Times are reported at reference machine speed: every timed interval is
bracketed by a fixed pure-Python calibration computation, and its measured
time is scaled by the reference calibration time over the bracket's mean.
The measured times are printed beside them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` every other pass is traced and
the JSON holds the per-layer metrics.  Each run also writes its result,
and for traced runs its spans, under ``bench/out/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("structure", "families", "framed_links", "cli")
# Whole passes over the job list per 24 s of --seconds; on the 2-core
# machine the benchmark was defined on they take 12-35 s.  The counts keep
# the tail percentile (the eleventh-slowest job) among repetitions of one
# job or of jobs of like cost.
PASSES_PER_24_S = {"structure": 5, "families": 7, "framed_links": 3,
                   "cli": 3}
SETUP_REPEATS = 5
PROBE_REPEATS = 3
# No pass starts after this share of --seconds, which caps the run time
# if the library gets much slower.
PASS_DEADLINE_SHARE = 1.5

# The machine's speed drifts by a quarter or more over tens of seconds,
# because other tenants share its cores.  A fixed computation much like the
# library's own work (set and tuple closures in pure Python) measures the
# speed just before and after every timed interval.  CALIBRATION_REF_S is
# its typical time on that machine; a time is reported as
# measured * CALIBRATION_REF_S / calibration.
CALIBRATION_REF_S = 0.0025
CALIBRATION_TABLE = tuple(tuple((2 * x - y) % 11 + 1 for y in range(11))
                          for x in range(11))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smallest", action="store_true",
                        help="smallest input of each kind and one pass "
                             "(two when traced); for the smoke test")
    return parser.parse_args(argv)


def calibration_s() -> float:
    import workloads
    start = time.perf_counter()
    workloads.closed_subsets(CALIBRATION_TABLE)
    return time.perf_counter() - start


def timed(fn):
    """(result, measured seconds, seconds at reference speed)."""
    before = calibration_s()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    speed = CALIBRATION_REF_S / ((before + calibration_s()) / 2)
    return result, seconds, seconds * speed


def child_seconds(code: str, env) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_seconds(env) -> float:
    """Time to import rackkit inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import rackkit; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with at least ten
    samples beyond it (the largest sample when there are ten or fewer)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def plain(value):
    """Tuples as lists, so results compare equal to JSON references."""
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return value


def run_job(job, tracer, job_id, in_process: bool):
    """Time one job; return (measured s, reference s, status, result).
    Status is "ok", "wrong" (an output that differs from the expected
    one) or "error" (an exception or an unexpected exit code)."""
    def call():
        if tracer is None:
            return job.run()
        tracer.job = job_id
        with tracer.span("job"):
            with nullcontext() if in_process else tracer.span("cli.process"):
                return job.run()

    def guarded():
        try:
            return "done", call()
        except Exception as exc:  # noqa: BLE001 - a failed job is a result
            return "error", exc

    gc.collect()
    (status, result), measured, scaled = timed(guarded)
    if status == "done":
        try:
            same = plain(job.summarize(result)) == plain(job.expected)
        except Exception:  # noqa: BLE001 - an unreadable result is wrong
            same = False
        status = "ok" if same else "wrong"
    return measured, scaled, status, result


def measure(name: str, seed: int, seconds: float, trace: bool,
            smallest: bool = False, tamper=None) -> dict:
    """Set up and run one workload; ``tamper`` may edit the job list."""
    import numpy
    import tracing
    import workloads

    generate, make_jobs = workloads.WORKLOADS[name]
    env = workloads.cli_env()
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    try:
        # set-up: a fresh interpreter's import plus input generation, each
        # repeated; the last generation of a traced run is traced
        repeats = 1 if smallest else SETUP_REPEATS
        setups, inputs = [], None
        for i in range(repeats):
            traced = tracer is not None and i == repeats - 1
            if traced:
                tracer.job = "setup"

            def setup():
                imported = import_seconds(env)
                with tracer.installed() if traced else nullcontext():
                    start = time.perf_counter()
                    made = generate(random.Random(f"{name}:{seed}"),
                                    smallest, workdir)
                    return made, imported + time.perf_counter() - start

            (again, setup_s), wall, scaled = timed(setup)
            setups.append((setup_s, setup_s * scaled / wall))
            if inputs is not None and again != inputs:
                raise RuntimeError("input generation is not deterministic")
            inputs = again
        setup_counts = tracer.counts.copy() if tracer else None
        if tracer:
            tracer.counts.clear()

        jobs = make_jobs(inputs)
        if tamper is not None:
            tamper(jobs)
        order = list(range(len(jobs)))
        random.Random(f"{name}:{seed}:order").shuffle(order)
        passes = 1 if smallest else max(
            1, round(PASSES_PER_24_S[name] * seconds / 24))
        if trace:
            passes = max(2, passes)
        deadline = PASS_DEADLINE_SHARE * seconds

        records = []  # (traced, job index, measured s, reference s, status)
        probes = {"cli.interpreter": [], "cli.import": []}
        failures = []
        started = time.perf_counter()
        for p in range(passes):
            traced = trace and p % 2 == 1
            with tracer.installed() if traced else nullcontext():
                for i in order:
                    measured, scaled, status, result = run_job(
                        jobs[i], tracer if traced else None, f"{p}:{i}",
                        name != "cli")
                    records.append((traced, i, measured, scaled, status))
                    if status == "error":
                        failures.append(f"{jobs[i].kind}: error ({result})")
                    elif status == "wrong":
                        failures.append(f"{jobs[i].kind}: wrong output")
                    elif traced and jobs[i].witnesses is not None:
                        printed, built = jobs[i].witnesses(result)
                        tracer.counts["core.witnesses_built"] += built
                        tracer.counts["core.witnesses_printed"] += printed
            if traced:
                for _ in range(PROBE_REPEATS):
                    for probe, code in (("cli.interpreter", "pass"),
                                        ("cli.import", "import rackkit.cli")):
                        probes[probe].append(
                            timed(lambda: child_seconds(code, env))[2])
            # a traced run needs its first traced pass
            if time.perf_counter() - started > deadline and p >= trace:
                break

        def summary(column: int, traced_passes: bool = False) -> dict:
            times = [r[column] for r in records if r[0] == traced_passes]
            per_pass = [times[k:k + len(order)]
                        for k in range(0, len(times), len(order))]
            tail_s, tail_pct = tail(times)
            return {"jobs_per_s": statistics.median(
                        len(t) / sum(t) for t in per_pass),
                    "job_p50_ms": statistics.median(times) * 1e3,
                    "job_tail_ms": tail_s * 1e3,
                    "tail_percentile": tail_pct, "samples": len(times)}

        scaled, measured = summary(3), summary(2)
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        peak_mib = resource.getrusage(who).ru_maxrss / 1024
        failed = sum(r[4] != "ok" for r in records)
        result = {
            "workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "passes": passes,
            "jobs_per_pass": len(order),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "correct": all(r[4] != "wrong" for r in records),
            "attempted": len(records),
            "failed": failed,
            "failures": sorted(set(failures)),
            "end_to_end": {
                "setup_s": (statistics.median(s for _, s in setups), "s"),
                "jobs_per_s": (scaled["jobs_per_s"], "1/s"),
                "job_p50_ms": (scaled["job_p50_ms"], "ms"),
                "job_tail_ms": (scaled["job_tail_ms"], "ms"),
                "peak_rss_mib": (peak_mib, "MiB"),
                "fail_share": (failed / len(records), "share"),
            },
            "measured": {
                "setup_s": statistics.median(m for m, _ in setups),
                **{k: measured[k] for k in ("jobs_per_s", "job_p50_ms",
                                            "job_tail_ms")}},
            "tail_percentile": scaled["tail_percentile"],
            "tail_samples": scaled["samples"],
            "jobs": [(jobs[i].kind, traced, m, s, status)
                     for traced, i, m, s, status in records],
        }
        if trace:
            result["per_layer"] = per_layer(
                tracer, setup_counts, records, probes,
                untraced=scaled["jobs_per_s"],
                traced=summary(3, True)["jobs_per_s"])
            result["layer_shares"] = layer_shares(tracer)
            tracer.dump(OUT / f"spans-{name}-seed{seed}.json",
                        {k: result[k] for k in ("workload", "seed", "python",
                                                "numpy", "nproc")})
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_layer(tracer, setup_counts, records, probes, untraced,
              traced) -> dict:
    """Self time and counts per layer, per traced job (generators: per
    set-up; cli start-up probes: per invocation).  Times are at reference
    speed, scaled by the traced jobs' median speed factor."""
    traced_ids = {span[4] for span in tracer.spans if span[0] == "job"}
    jobs = len(traced_ids) or 1
    speed = statistics.median(s / m for t, _, m, s, _ in records if t)
    own = tracer.self_times(traced_ids)
    build = tracer.self_times({"setup"})
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    interpreter = statistics.median(probes["cli.interpreter"])
    imported = statistics.median(probes["cli.import"])
    per_job = {}
    for layer in ("core.parse", "core.validate", "poly.polynomial",
                  "poly.subracks", "poly.subrack_poly", "poly.closure",
                  "iso.isomorphic", "iso.scan", "links.parse",
                  "links.counting", "links.enhanced"):
        per_job[layer + "_s"] = (own[layer] * speed / jobs, "s/job")
        per_job[layer + "_calls"] = (c[layer + "_calls"] / jobs, "count/job")
    for counter in ("core.witnesses_built", "poly.depth_sum",
                    "poly.subracks_found", "iso.scan_depth_pairs",
                    "iso.scan_differences", "links.framings_swept",
                    "links.colorings"):
        per_job[counter] = (c[counter] / jobs, "count/job")
    per_job.update({
        "core.witness_use_ratio": (
            ratio(c["core.witnesses_printed"], c["core.witnesses_built"]),
            "ratio"),
        "links.colorings_per_framing": (
            ratio(c["links.colorings"], c["links.framings_swept"]), "ratio"),
        "links.image_reuse_ratio": (
            ratio(c["links.image_subracks"], c["links.enhanced_colorings"]),
            "ratio"),
        "generators.build_s": (build["generators.build"] * speed, "s"),
        "generators.tables_built": (setup_counts["generators.build_calls"],
                                    "count"),
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (imported - interpreter, "s"),
        "cli.process_s": (own["cli.process"] * speed / jobs, "s/job"),
        "bench.job_self_s": (own["job"] * speed / jobs, "s/job"),
        "trace.untraced_jobs_per_s": (untraced, "1/s"),
        "trace.traced_jobs_per_s": (traced, "1/s"),
        "trace.jobs_per_s_ratio": (traced / untraced, "ratio"),
    })
    return per_job


def layer_shares(tracer) -> dict:
    """Each layer's share of the traced jobs' time, by self time; the
    benchmark's own time inside a job counts as "bench"."""
    jobs = {span[4] for span in tracer.spans if span[0] == "job"}
    own = tracer.self_times(jobs)
    total = sum(own.values()) or 1.0
    shares: dict[str, float] = {}
    for name, seconds in own.items():
        layer = "bench" if name == "job" else name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / total
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def report(result: dict, wanted: list[str], section: str) -> dict:
    """Print the human-readable lines; return the metrics for the JSON."""
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']} passes {result['passes']} x "
          f"{result['jobs_per_pass']} jobs  python {result['python']} "
          f"numpy {result['numpy']} nproc {result['nproc']}")
    print("  times at reference speed; as measured in brackets")
    for name, (value, unit) in result["end_to_end"].items():
        extra = ""
        if name in result["measured"]:
            extra = f"  [{result['measured'][name]:.4f}]"
        if name == "job_tail_ms":
            extra += (f"  p{result['tail_percentile']:.1f} of "
                      f"{result['tail_samples']} untraced jobs")
        elif name == "fail_share":
            extra = f"  ({result['failed']} of {result['attempted']})"
        print(f"  {name:<12} {value:12.4f} {unit:<5}{extra}")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    if section == "per_layer":
        print("  per layer, from the traced passes (self time and counts; "
              "waiting time is nil, since no layer queues work)")
        for name in wanted:
            value, unit = result["per_layer"][name]
            print(f"  {name:<28} {value:14.6f} {unit}")
        print("  share of traced job time: " + ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in result["layer_shares"].items()))
        layers = result["per_layer"]
        if layers["cli.process_s"][0]:
            start_up = layers["cli.interpreter_s"][0] + layers["cli.import_s"][0]
            print(f"  interpreter start and imports: "
                  f"{start_up / layers['cli.process_s'][0]:.1%} of a cli job")
    return {name: {"value": result[section][name][0],
                   "unit": result[section][name][1]} for name in wanted}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rackkit" / "__init__.py").is_file():
        print(f"error: {SRC / 'rackkit'} not found; run the benchmark from "
              f"a rackkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    # one core for the calibration, the jobs and their child processes
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [metric["name"] for metric in spec[section]]
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smallest)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1, default=str))
    metrics = report(result, wanted, section)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

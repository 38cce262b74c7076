"""In-process A/B timing of the library against an earlier checkout of it.

Each round runs the named jobs in three child processes, in an order
that rotates from round to round: the earlier checkout (A), this
checkout (B) and the earlier one again (A').  A child imports rackkit
from its side's ``src`` and times each job's body, best of ``--repeat``
calls, after one untimed call that also checks the job's result.  The
script prints, per job, the median over the rounds of each side's time,
B/A, and A'/A, the spread of an A/A run on the same machine.  Standard
library only, so any interpreter runs it; pytest does not collect it.
Run from the repository root::

    python tests/ab.py [--base REV | --parent DIR] [--python EXE]
                       [--rounds N] [--repeat K] [--list] [job ...]

``--base`` (default HEAD, against uncommitted work; HEAD~1 for the last
commit) is exported with ``git archive`` into a temporary directory;
``--parent`` names a checkout made by ``git worktree add`` or
``git archive`` instead.  ``--python`` is the
interpreter of every child (default this one).  With no job named,
every job but the slow ones runs; a job name may end in ``*`` to name
every job it starts.

The ``families`` and ``framed_links`` jobs are those workloads' job
bodies, each with its ``summarize``, imported read-only from this
checkout's ``bench/workloads.py`` for both sides; the others time one
library call on tables built and validated before the clock starts.
"""

import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (n, t1, t2): alexander(n, t1) against alexander(n, t2) of equal keys,
# which are not isomorphic
LADDER = ((101, 2, 3), (101, 3, 2), (211, 2, 3), (211, 3, 2), (401, 2, 7),
          (401, 3, 6), (401, 6, 3))
SLOW = ("union4",)


def relabel(entries, images):
    """The same table on points renamed by x ↦ images[x-1]."""
    n = len(entries)
    back = {v: x for x, v in enumerate(images, start=1)}
    return tuple(tuple(images[entries[back[a] - 1][back[b] - 1] - 1]
                       for b in range(1, n + 1)) for a in range(1, n + 1))


def shuffled(n, seed):
    images = list(range(1, n + 1))
    random.Random(seed).shuffle(images)
    return images


def trivial_union(blocks):
    """The blocks' entries side by side, with x ▷ y = x across blocks."""
    rows, start = [], 0
    n = sum(map(len, blocks))
    for block in blocks:
        k = len(block)
        for x, row in enumerate(block, start + 1):
            full = [x] * n
            full[start:start + k] = (v + start for v in row)
            rows.append(tuple(full))
        start += k
    return tuple(rows)


def bench_workloads():
    """This checkout's ``bench/workloads.py``, imported without writing
    bytecode under ``bench/``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def workload(name):
    """A workload's jobs, made once: one call runs every job's body with
    its summarize."""
    workloads = bench_workloads()
    generate, make_jobs = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as tmp:
        made = make_jobs(generate(random.Random(0), False, Path(tmp)))
    return (lambda: [job.summarize(job.run()) for job in made],
            [job.expected for job in made])


def iso_job(a, b, expected):
    """isomorphic on two tables of entries, validated before timing."""
    from rackkit import RackTable, isomorphic

    tables = RackTable(a), RackTable(b)
    for table in tables:
        table.require_rack()
    return lambda: isomorphic(*tables).isomorphic, expected


def iso_families():
    """isomorphic alone on the families workload's 12 pairs, whose keys
    end in two equal types or coefficients exactly when they are
    isomorphic."""
    workloads = bench_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        pairs = workloads.generate_families(random.Random(0), False,
                                            Path(tmp))["pairs"]
    calls = [iso_job(a, b, None)[0] for _, a, b, _, _ in pairs]
    return (lambda: [call() for call in calls],
            [key[-1] == key[-2] for key, *_ in pairs])


def alexander(n, t):
    from rackkit import alexander

    return alexander(n, t).entries


def trivial400():
    entries = tuple((x,) * 400 for x in range(1, 401))
    return iso_job(entries, relabel(entries, shuffled(400, 4)), True)


def classify12():
    from rackkit import verify_constant_action_classification as verify

    return lambda: verify(12).consistent, True


def jobs():
    """Job name -> its setup, which a child runs: it returns the timed
    body and the result one call of it must give."""
    found = {"families": lambda: workload("families"),
             "framed_links": lambda: workload("framed_links"),
             "iso_families": iso_families}
    for n in (101, 211, 401):
        found[f"alexander{n}"] = lambda n=n: iso_job(
            alexander(n, 2), relabel(alexander(n, 2), shuffled(n, n)), True)
    for k in (3, 4):
        found[f"union{k}"] = lambda k=k: iso_job(
            trivial_union([alexander(5, 2)] * k),
            trivial_union([alexander(5, 2)] * (k - 1) + [alexander(5, 3)]),
            False)
    found["trivial400"] = trivial400
    found["classify12"] = classify12
    for n, t1, t2 in LADDER:
        found[f"ladder{n}_{t1}v{t2}"] = lambda n=n, t1=t1, t2=t2: iso_job(
            alexander(n, t1), alexander(n, t2), False)
        found[f"ladder{n}_{t1}v{t2}r"] = lambda n=n, t1=t1, t2=t2: iso_job(
            alexander(n, t1), relabel(alexander(n, t2), shuffled(n, 7)),
            False)
    return found


def child(names, repeat):
    """Time each named job, best of repeat calls; print them as JSON."""
    every = jobs()
    times = {}
    for name in names:
        body, expected = every[name]()
        if body() != expected:
            raise SystemExit(f"job {name} gave a wrong result")
        best = float("inf")
        for _ in range(repeat):
            start = time.perf_counter()
            body()
            best = min(best, time.perf_counter() - start)
        times[name] = best
    print(json.dumps(times))


def export(rev, into):
    """``git archive`` of rev's ``src`` into a directory."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_side(python, src, names, repeat):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [python, str(Path(__file__).resolve()), "--child", "--repeat",
         str(repeat), *names], env=env, check=True, stdout=subprocess.PIPE,
        text=True).stdout
    return json.loads(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("jobs", nargs="*")
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--parent")
    parser.add_argument("--python", default=sys.executable)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--child", action="store_true")
    args = parser.parse_args(argv)
    if args.child:
        return child(args.jobs, args.repeat)
    every = list(jobs())
    if args.list:
        print("\n".join(every))
        return 0
    names = []
    for pattern in args.jobs or [name for name in every if name not in SLOW]:
        hits = [name for name in every if name == pattern or (
            pattern.endswith("*") and name.startswith(pattern[:-1]))]
        if not hits:
            parser.error(f"no job {pattern!r}; --list names them")
        names += [name for name in hits if name not in names]
    with tempfile.TemporaryDirectory() as tmp:
        if args.parent:
            parent = Path(args.parent) / "src"
        else:
            export(args.base, tmp)
            parent = Path(tmp) / "src"
        sides = {"A": parent, "B": ROOT / "src", "A'": parent}
        order = list(sides)
        times = {side: {name: [] for name in names} for side in sides}
        for r in range(args.rounds):
            for side in order[r % 3:] + order[:r % 3]:
                got = run_side(args.python, sides[side], names, args.repeat)
                for name, seconds in got.items():
                    times[side][name].append(seconds)
    version = subprocess.run([args.python, "--version"], capture_output=True,
                             text=True).stdout.strip()
    print(f"{version}; {args.rounds} rounds, best of {args.repeat} calls; "
          f"A = {args.parent or args.base}, B = this checkout")
    width = max(map(len, names))
    print(f"{'job':<{width}} {'A ms':>9} {'B ms':>9} {'B/A':>6} {'A/A':>6}")
    for name in names:
        a, b, aa = (statistics.median(times[side][name]) * 1e3
                    for side in sides)
        print(f"{name:<{width}} {a:9.3f} {b:9.3f} {b / a:6.3f} {aa / a:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

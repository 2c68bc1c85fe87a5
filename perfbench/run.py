"""lwheel command benchmark: one run of one workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The run times set-up in several fresh
processes, before and after the measurement (``setup_s`` is their median),
and runs the workload's commands in one worker process for ``--seconds``,
checking every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run.  Every metric prints on its
own line with its unit; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Working files go to ``.perfbench_work/`` in the checkout; the spans of the
last traced pass are kept there as ``trace-<workload>.tsv.gz`` and the
full result as ``result-<workload>-<seed>-<trace>.json``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "layered_wheels")

# workloads.NAMES; this process does not import the package, so that it
# can refuse to run where the package is missing
NAMES = ("build_export", "certify", "separate", "demos")
SETUP_BEFORE = 3             # set-up-only processes before the worker,
SETUP_AFTER = 3              # and after it; the worker adds one sample
RUN_LIMIT_S = 170            # a run ends within the 180 s it is allowed
SETUP_LIMIT_S = 30

# end-to-end metrics printed with --trace 0, with units; the times are
# seconds at the reference speed of speed.py
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]
# the same times in raw seconds, printed beside them but not gated
RAW = ("setup_raw_s", "wall_raw_s", "cpu_raw_s")


def source_digest():
    """sha256 over the package sources, naming the code in any checkout."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def worker(args, mode, workdir, timeout):
    """Run the worker process to its end and return its JSON result."""
    cmd = [sys.executable, WORKER, "--mode", mode,
           "--workload", args.workload, "--scale", args.scale,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited %d:\n%s"
                           % (mode, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' runs small instances for the self-test")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print("error: %s not found; run from the root of a layered-wheels "
              "checkout" % PACKAGE, file=sys.stderr)
        return 2

    begin = time.monotonic()
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(WORK, "%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [worker(args, "setup", workdir, SETUP_LIMIT_S)
                  for _ in range(SETUP_BEFORE)]
        left = RUN_LIMIT_S - SETUP_LIMIT_S - (time.monotonic() - begin)
        res = worker(args, "measure", workdir, left)
        setups.append(res)
        setups += [worker(args, "setup", workdir, SETUP_LIMIT_S)
                   for _ in range(SETUP_AFTER)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [out["setup_s"] for out in setups]
    raw_samples = [out["setup_raw_s"] for out in setups]
    rec = res["record"]
    rec.update(commit=git_commit(), src_sha256=source_digest(),
               run_seconds=args.seconds, trace=args.trace,
               passes=res["passes"], traced_passes=res["traced_passes"],
               setup_samples=samples, setup_raw_samples=raw_samples)
    fail_frac = res["failed"] / res["attempted"]
    if args.trace:
        shown = [tuple(row) for row in res["per_layer"]]
    else:
        values = dict(res, setup_s=statistics.median(samples),
                      setup_raw_s=statistics.median(raw_samples))
        shown = [(name, values[name], unit) for name, unit in END_TO_END]
        raw = [(name, values[name], "s") for name in RAW]
    correct = res["failed"] == 0 and res["counts_repeat"]

    print("perfbench %s seed=%d trace=%d passes=%d traced_passes=%d"
          % (args.workload, args.seed, args.trace, res["passes"],
             res["traced_passes"]))
    print("record " + json.dumps(rec, sort_keys=True))
    for name, value, unit in shown + ([] if args.trace else raw):
        print("%-48s %s %s" % (name, fmt(value), unit))
    print("%-48s %s ratio (%d of %d commands)"
          % ("fail_frac", fmt(fail_frac), res["failed"], res["attempted"]))
    for name, value in sorted(res["observed"].items()):
        print("%-48s %s count" % (name, value))
    for problem in res["problems"]:
        print("problem: " + problem)
    with open(os.path.join(WORK, "result-%s.json" % tag), "w") as fh:
        json.dump(dict(res, record=rec), fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in shown},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

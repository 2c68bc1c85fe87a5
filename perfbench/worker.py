"""Worker process of the lwheel command benchmark: one per run.

Calls ``layered_wheels.cli.main(argv)`` in-process, one command at a time
(a closed loop with one client), and checks each command's output after
the pass.  ``run.py`` starts it; it prints one JSON object as its last
line of standard output.

    python3 perfbench/worker.py --mode measure --workload certify \\
        --seed 1 --seconds 15 --trace 0 --workdir .perfbench_work/x

``--mode setup`` only imports the package and generates the inputs, and
reports the time that took (one ``setup_s`` sample).
"""

import time

import speed                     # stdlib only: signal and time

SETUP_METER = speed.SpeedMeter()
if __name__ == "__main__":
    SETUP_METER.start()
T0 = time.perf_counter()        # set-up time counts from here

import argparse                  # noqa: E402
import contextlib                # noqa: E402
import io                        # noqa: E402
import json                      # noqa: E402
import os                        # noqa: E402
import resource                  # noqa: E402
import statistics                # noqa: E402
import sys                       # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads                 # noqa: E402
from spans import PER_LAYER, Tracer, is_exact  # noqa: E402
from layered_wheels import cli, kernels  # noqa: E402

# problems listed in the result, out of possibly many failed commands
MAX_PROBLEMS = 5


def run_pass(commands, tracer=None, first=False, doctor=None):
    """Run every command once, then check every output.

    Only the ``cli.main`` calls are timed and traced.  Untraced passes
    time each command at the reference speed (:mod:`speed`) and keep the
    raw seconds beside it; traced passes keep raw seconds only.  A command
    that raises, exits non-zero or fails its check counts as failed.
    ``doctor(command)``, when given, may alter an output before it is
    checked (the self-test uses it).
    """
    walls, cpus, raw_walls, raw_cpus, outcome = [], [], [], [], []
    meter = speed.SpeedMeter() if tracer is None else None
    if tracer is not None:
        tracer.install()
    try:
        for op, cmd in enumerate(commands):
            if tracer is not None:
                tracer.op = op
            err = io.StringIO()
            if meter is not None:
                meter.start()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stderr(err):
                    rc = cli.main(cmd.argv)
                problem = None if rc == 0 else "exit code %s" % rc
            except SystemExit as exc:          # argparse usage errors
                problem = "exit code %s" % exc.code
            except Exception as exc:           # a crash is a failed command
                problem = "raised %s: %s" % (type(exc).__name__, exc)
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
            if meter is not None:
                meter.stop()
                raw_walls.append(wall - meter.spent)
                raw_cpus.append(cpu - meter.cpu_spent)
                wall, cpu = meter.scale(wall, cpu)
            walls.append(wall)
            cpus.append(cpu)
            outcome.append(problem)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = []
    for cmd, problem in zip(commands, outcome):
        if problem is None:
            if doctor is not None:
                doctor(cmd)
            try:
                problem = cmd.check(first)
            except (OSError, ValueError, LookupError, TypeError,
                    AttributeError) as exc:
                problem = "unreadable output %s: %s" % (cmd.out, exc)
        if problem is not None:
            problems.append("%s: %s" % (" ".join(cmd.argv[:2]), problem))
    if meter is None:
        raw_walls, raw_cpus = walls, cpus
    return {"walls": walls, "cpus": cpus, "raw_walls": raw_walls,
            "raw_cpus": raw_cpus, "attempted": len(commands),
            "problems": problems}


def pass_time(passes, key):
    """Seconds of one pass: the sum over commands of each command's
    median over the passes, so each command's slow outliers drop out."""
    return sum(statistics.median(times)
               for times in zip(*(rec[key] for rec in passes)))


def measure(workload, scale, seed, seconds, trace, workdir, doctor=None,
            trace_out=None):
    """Passes of the workload until ``seconds`` have gone by.

    Untraced: at least one pass; ``wall_s``/``cpu_s`` are per-command
    medians of seconds at the reference speed, summed over the commands
    (:func:`pass_time`); ``wall_raw_s``/``cpu_raw_s`` are the same over
    raw seconds.
    Traced: untraced and traced passes alternate, at least two of each
    kind, so the exact counts can be compared between traced passes;
    per-layer times are medians over traced passes, and
    ``trace.overhead_s`` is the traced pass's raw wall minus the untraced
    pass's.
    """
    commands = workloads.commands(workload, scale, workdir, seed)
    plain, traced, per_layer = [], [], []
    last = None
    start = time.perf_counter()
    while True:
        plain.append(run_pass(commands, first=not plain, doctor=doctor))
        if trace:
            last = Tracer()
            traced.append(run_pass(commands, tracer=last, doctor=doctor))
            per_layer.append(last.metrics())
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(traced) >= 2):
            break
    passes = plain + traced
    problems = [p for rec in passes for p in rec["problems"]]
    result = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": sum(rec["attempted"] for rec in passes),
        "failed": sum(len(rec["problems"]) for rec in passes),
        "problems": problems[:MAX_PROBLEMS],
        "wall_s": pass_time(plain, "walls"),
        "cpu_s": pass_time(plain, "cpus"),
        "wall_raw_s": pass_time(plain, "raw_walls"),
        "cpu_raw_s": pass_time(plain, "raw_cpus"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "observed": {k: v for cmd in commands for k, v in cmd.observed.items()},
        "counts_repeat": True,
        "command_walls": [rec["walls"] for rec in plain],
        "command_cpus": [rec["cpus"] for rec in plain],
    }
    if trace:
        metrics = {}
        for name in per_layer[0]:
            values = [m[name] for m in per_layer]
            if is_exact(name):
                if any(v != values[0] for v in values):
                    result["counts_repeat"] = False
                    result["problems"].append(
                        "count %s differs between traced passes: %s"
                        % (name, values))
                metrics[name] = values[0]
            else:
                metrics[name] = float(statistics.median(values))
        metrics["trace.overhead_s"] = (
            pass_time(traced, "walls") - result["wall_raw_s"])
        result["per_layer"] = [[name, metrics[name], unit]
                               for name, unit in PER_LAYER]
        if trace_out is not None:
            last.write(trace_out)
    return result


def record(workload, scale, seed):
    """Run record: what ran, on which interpreter and backend."""
    return {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "python": sys.version.split()[0],
        "kernels_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "instances": [inst.record()
                      for inst in workloads.instances(workload, scale)],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--scale", choices=workloads.SCALES, default="full")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    workloads.setup(args.workload, args.scale, args.workdir)
    wall = time.perf_counter() - T0
    SETUP_METER.stop()
    out = {"setup_s": SETUP_METER.scale(wall, 0.0)[0],
           "setup_raw_s": wall - SETUP_METER.spent}
    if args.mode == "measure":
        # spans of the last traced pass, kept next to the run directories
        trace_out = os.path.join(os.path.dirname(args.workdir),
                                 "trace-%s.tsv.gz" % args.workload)
        out.update(measure(args.workload, args.scale, args.seed, args.seconds,
                           args.trace, args.workdir, trace_out=trace_out))
        out["record"] = record(args.workload, args.scale, args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

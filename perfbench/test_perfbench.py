"""Self-test of the lwheel command benchmark, at tiny scale.

    PYTHONPATH=src python -m pytest -q perfbench

Doctored outputs must raise ``fail_frac`` above 0, every metric must print
with its unit, traced counts must repeat, and the benchmark must refuse to
run in a directory that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import signal

import speed
import worker
import workloads
from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "fail_frac": "ratio"}
RAW = {"setup_raw_s": "s", "wall_raw_s": "s", "cpu_raw_s": "s"}


def _measure(name, workdir, trace=0, doctor=None):
    workloads.setup(name, "tiny", str(workdir))
    return worker.measure(name, "tiny", 0, 0, trace, str(workdir),
                          doctor=doctor)


def _flip_json_byte(cmd):
    if cmd.argv[0] == "build" and cmd.out.endswith(".json"):
        with open(cmd.out, "r+b") as fh:
            fh.seek(10)
            byte = fh.read(1)
            fh.seek(10)
            fh.write(bytes([byte[0] ^ 1]))


def _fail_verify(cmd):
    with open(cmd.out) as fh:
        report = json.load(fh)
    report["passed"] = False
    with open(cmd.out, "w") as fh:
        json.dump(report, fh)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_clean_outputs_pass(name, tmp_path):
    res = _measure(name, tmp_path)
    assert res["attempted"] > 0
    assert res["failed"] == 0, res["problems"]


def test_flipped_json_byte_raises_fail_frac(tmp_path):
    res = _measure("build_export", tmp_path, doctor=_flip_json_byte)
    # one pass: two JSON exports doctored, two DOT exports untouched
    assert (res["failed"], res["attempted"]) == (2, 4)
    assert all("sha256" in p for p in res["problems"])


def test_failed_verify_report_raises_fail_frac(tmp_path):
    res = _measure("certify", tmp_path, doctor=_fail_verify)
    assert res["failed"] == res["attempted"] == 2
    assert all("did not pass" in p for p in res["problems"])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat(name, tmp_path):
    res = _measure(name, tmp_path, trace=1)
    assert res["traced_passes"] >= 2
    assert res["counts_repeat"], res["problems"]
    assert [row[0] for row in res["per_layer"]] == [n for n, _ in PER_LAYER]


def test_speed_meter_probes_inside_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.SpeedMeter().start()
    w0 = speed.perf_counter()
    while speed.perf_counter() - w0 < 6 * speed.INTERVAL_S:
        speed.probe_work()
    wall = speed.perf_counter() - w0
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one probe before, one after, and the timer's in between
    assert len(meter.samples) >= 5
    assert 0 < meter.spent < wall


def test_speed_meter_scales_to_reference_speed():
    meter = speed.SpeedMeter()
    meter.samples = [2 * speed.REFERENCE_S, 4 * speed.REFERENCE_S]
    meter.spent, meter.cpu_spent = 0.5, 0.25
    # probes ran three times slower than the reference: a third of the time
    assert meter.scale(3.5, 3.25) == pytest.approx((1.0, 1.0))


def _run(cwd, name, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(stdout):
    """(metric -> (value, unit), final JSON object) of one run."""
    lines = stdout.strip().splitlines()
    shown = {}
    for line in lines[2:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("problem:"):
            shown[parts[0]] = (float(parts[1]), parts[2])
    return shown, json.loads(lines[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_prints_with_unit(name, trace):
    proc = _run(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    shown, result = _printed(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = dict(PER_LAYER) if trace else dict(END_TO_END)
    expected["fail_frac"] = "ratio"
    if not trace:
        expected.update(RAW)
    if name == "separate":
        for inst in workloads.SEPARATE["tiny"]:
            expected["decomp_width." + inst.tag] = "count"
    for metric, unit in expected.items():
        assert shown[metric][1] == unit, metric
    assert shown["fail_frac"][0] == 0.0
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == {k: u for k, u in expected.items()
                        if k != "fail_frac" and k not in RAW
                        and not k.startswith("decomp")}


def test_refuses_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "demos", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""

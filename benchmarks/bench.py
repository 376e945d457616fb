"""detfuse benchmark: seeded workloads, end-to-end metrics and per-layer spans.

Run one workload from the root of a checkout:

    python3 benchmarks/bench.py --workload pipeline-4axis --seed 1 --seconds 25 --trace 0

The benchmark generates the workload's inputs from ``--seed`` and writes
them, then starts a fresh interpreter for the timed phase, so that
``peak_rss_mb`` excludes set-up. The timed phase runs one warm-up
operation and then, single-threaded for ``--seconds``, an operation, one
more set-up (timed as ``setup_s``, its output discarded) and the
operation's untimed checks in turn. Each operation and each set-up runs between two runs
of a fixed reference computation, and every reported time is scaled to the
reference speed (see ``calibration.py``); the raw times are in the report.
With ``--trace 1`` the operations alternate between untraced and traced,
and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and the seeds. A fuller report, with every sample and
span, is written under ``.bench_out/``.

The workloads, the run length and the metrics' units are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import logging
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_SAMPLES = 3  # per mode, even when an operation outlasts --seconds
LOOP_CAP_S = 100  # the timed loop stops after this long even short of MIN_SAMPLES
CHILD_TIMEOUT_S = 150

#: A seed never used while tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 20231014


def load_spec() -> dict:
    """The workloads, run length and metrics that ``BENCHMARK.json`` defines."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_detfuse():
    """Import ``detfuse`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "detfuse", "__init__.py")):
        sys.exit(f"bench: no detfuse sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import detfuse

    if os.path.dirname(os.path.dirname(os.path.abspath(detfuse.__file__))) != SRC:
        sys.exit(f"bench: imported detfuse from {detfuse.__file__}, not from {SRC}")
    return detfuse


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


# ---------------------------------------------------------------------------
# timed phase (a fresh interpreter)


def timed_phase(args) -> dict:
    """Run the operations of one workload; return samples, counts and checks."""
    import calibration
    from tracing import Tracer
    from workloads import (
        AXES,
        Checker,
        layer_counts,
        make_inputs,
        pipeline_config,
        run_operation,
        run_traced_operation,
    )

    logging.getLogger("detfuse").setLevel(logging.ERROR)
    workload = args.workload
    cfg = None
    inputs = None
    if workload == "eval-dense":
        inputs = make_inputs(workload, args.seed, Tracer())
    else:
        cfg = pipeline_config(workload, args.work_dir)
    tracer = Tracer()
    setup_tracer = Tracer()
    setup_dir = os.path.join(args.work_dir, "setup")
    setup_s: list[float] = []
    synth: list[dict] = []
    counts: dict = {}
    failed = 0
    problems: list[str] = []

    def operate(traced: bool):
        """Time one operation; return the time and the result or the exception raised."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            if traced:
                result = run_traced_operation(workload, cfg, inputs, tracer)
            else:
                result = run_operation(workload, cfg, inputs)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        return time.perf_counter() - t0, result

    def check(result) -> None:
        """Check one operation's result, untimed; an exception or a problem fails it."""
        nonlocal failed
        try:
            if isinstance(result, Exception):
                raise result
            found = checker.check(result)
            if not found and not counts:
                counts.update(layer_counts(inputs, result, cfg))
        except Exception as exc:  # a failed operation is counted, not fatal
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(found)

    def setup() -> float:
        """Time one more set-up of the same inputs, discard it, and return its time.

        Set-ups interleaved with the operations see the same machine state
        as the operations, which back-to-back set-ups before them do not.
        """
        os.makedirs(setup_dir, exist_ok=True)
        gc.collect()
        since = len(setup_tracer.spans)
        t0 = time.perf_counter()
        make_inputs(workload, args.seed, setup_tracer, setup_dir)
        elapsed = time.perf_counter() - t0
        synth.append(setup_tracer.seconds(since))
        shutil.rmtree(setup_dir)
        return elapsed

    warmup_s, result = operate(traced=False)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if inputs is None:
        inputs = make_inputs(workload, args.seed, Tracer())
    checker = Checker(workload, inputs, cfg)
    check(result)
    attempted = 1

    # Every operation and every set-up runs between two reference runs, and
    # its time is scaled to the reference speed (see calibration.py).
    for _ in range(3):
        calibration.measure()
    before = calibration.measure()
    reference_s = [before]
    samples: dict[bool, list[float]] = {False: [], True: []}  # scaled
    raw: dict[bool, list[float]] = {False: [], True: []}
    setup_raw: list[float] = []
    layer_samples: list[dict] = []
    active = (False, True) if args.trace else (False,)
    modes = itertools.cycle(active)
    start = time.perf_counter()
    while True:
        traced = next(modes)
        since = len(tracer.spans)
        elapsed, result = operate(traced)
        middle = calibration.measure()
        factor = calibration.scale(before, middle)
        attempted += 1
        raw[traced].append(elapsed)
        samples[traced].append(elapsed * factor)
        if traced:
            layer_samples.append({k: v * factor for k, v in tracer.seconds(since).items()})
        elapsed = setup()
        before = calibration.measure()
        factor = calibration.scale(middle, before)
        setup_raw.append(elapsed)
        setup_s.append(elapsed * factor)
        synth[-1] = {k: v * factor for k, v in synth[-1].items()}
        reference_s += [middle, before]
        check(result)
        result = None
        now = time.perf_counter() - start
        enough = all(len(samples[mode]) >= MIN_SAMPLES for mode in active)
        if (now >= args.seconds and enough) or now >= LOOP_CAP_S:
            break

    layers = {}
    if args.trace:
        names = sorted({name for sample in layer_samples for name in sample})
        layers = {f"{n}.s": _median([s.get(n, 0.0) for s in layer_samples]) for n in names}
        layers["pipeline.tracing_overhead.s"] = _median(samples[True]) - _median(samples[False])
        layers["reference.naive_oracle_evaluate.s"] = checker.oracle_s
        layers["machine.wall_s"] = _median(raw[False])
        layers["machine.reference_s"] = _median(reference_s)
        for name in ("synth.generate_scene", "synth.simulate_detector"):
            layers[f"{name}.s"] = _median([s.get(name, 0.0) for s in synth])
        layers.update(counts)
        for axis in AXES:
            pairs = counts.get(f"metrics.iou_pairs.{axis}", 0)
            if pairs:
                layers[f"metrics.ns_per_iou_pair.{axis}"] = (
                    layers.get(f"metrics.evaluate.{axis}.s", 0.0) * 1e9 / pairs
                )
    return {
        "warmup_s": warmup_s,
        "untraced_s": samples[False],
        "traced_s": samples[True],
        "setup_s": setup_s,
        "raw_untraced_s": raw[False],
        "raw_traced_s": raw[True],
        "raw_setup_s": setup_raw,
        "reference_s": reference_s,
        "peak_rss_kib": peak_rss_kib,
        "input_detections": inputs.input_detections,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "counts": counts,
        "layers": layers,
        "spans": tracer.spans,
    }


# ---------------------------------------------------------------------------
# one benchmark run: set-up, timed phase, result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(detfuse, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "detfuse": detfuse.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def run(args, detfuse, spec: dict) -> int:
    from tracing import Tracer
    from workloads import make_inputs

    # On SIGTERM, unwind: subprocess.run kills and waits for the timed phase,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        make_inputs(args.workload, args.seed, Tracer(), work_dir)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--phase", "timed",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir,
        ]
        try:
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"bench: timed phase exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"bench: timed phase exited with {child.returncode}", file=sys.stderr)
            return 1
        timed = json.loads(child.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wall = timed["untraced_s"]
    wall_s = _median(wall)
    if args.trace:
        metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
        metrics.update(timed["layers"])
    else:
        metrics = {
            "norm_wall_s": wall_s,
            "norm_dets_per_s": timed["input_detections"] / wall_s,
            "peak_rss_mb": timed["peak_rss_kib"] / 1024,
            "setup_s": _median(timed["setup_s"]),
        }

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted, failed = timed["attempted"], timed["failed"]
    q1, _, q3 = _quartiles(wall)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(wall)} untraced operations, norm_wall_s median {wall_s:.4f} (q1 {q1:.4f}, q3 {q3:.4f}), "
        f"raw wall median {_median(timed['raw_untraced_s']):.4f} s, "
        f"reference work median {_median(timed['reference_s']):.4f} s; "
        f"{len(timed['traced_s'])} traced; warm-up {timed['warmup_s']:.4f} s; "
        f"{timed['input_detections']} input detections; "
        f"artifacts {timed['counts'].get('artifact_mb', 0.0):.4f} MiB; "
        f"setup_s {[round(s, 4) for s in timed['setup_s']]}; failed_ratio {failed}/{attempted}"
    )
    for problem in timed["problems"]:
        print(f"  check failed: {problem}")
    record = machine(detfuse, args.seed)
    report = {
        "machine": record,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **{
            k: timed[k]
            for k in (
                "setup_s", "warmup_s", "untraced_s", "traced_s", "raw_setup_s",
                "raw_untraced_s", "raw_traced_s", "reference_s", "problems", "spans",
            )
        },
        "metrics": metrics,
    }
    report_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"machine": record, "report": os.path.relpath(report_path, ROOT)}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("timed",), help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    detfuse = _import_detfuse()
    sys.path.insert(0, BENCH_DIR)
    if args.phase == "timed":
        print(json.dumps(timed_phase(args)))
        return 0
    return run(args, detfuse, spec)


if __name__ == "__main__":
    sys.exit(main())

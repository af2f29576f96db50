"""perfbench: the repository's benchmark, one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-gnp --seed 1 --seconds 36 --trace 0

Workloads: ``sweep-gnp``, ``solo-kernels`` and ``service-tenants`` (see
``BENCHMARK.json`` and ``DESIGN.md``).  This
orchestrator uses the standard library only.  It

1. starts the workload generator (``workload.py``) several times in set-up
   mode with a pinned environment, timing interpreter start to ready,
2. starts it once more for the measured run,
3. fails the run if ``/dev/shm`` holds new shared-memory segments afterwards,
4. prints a table of every metric with its quartiles and sample count, the
   digest of the simulated statistics, and as the last line one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans to ``.perfbench_out/``).  Without ``src/repro``
under the working directory it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from benchstats import metric
from hostspeed import REFERENCE_S, HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
READY = "PERFBENCH READY"
RESULT = "PERFBENCH RESULT"
#: Set-up samples per run (the measured run's own set-up is one of them).
SETUP_SAMPLES = 3
#: Calibration before each start; set-up is scaled to the reference host speed.
SETUP_CALIBRATION_S = 0.3
#: Everything this script starts is killed by then (a run must end within 180 s).
RUN_DEADLINE_S = 170.0
#: Python's ``multiprocessing.shared_memory`` names its segments ``psm_*``;
#: ``repro`` publishes topologies through it.
SHM_DIR = "/dev/shm"
SHM_PREFIX = "psm_"
OUT_DIR = ".perfbench_out"


class ChildFailed(RuntimeError):
    pass


def pinned_env(root: str) -> Dict[str, str]:
    """The environment of every workload process.

    Fixed hash seed, single-threaded BLAS, ``src`` on the path, and no
    inherited ``REPRO_*`` variable, so ``repro`` runs with its defaults.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.path.join(root, "src"),
    )
    return env


def shm_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(
    root: str, env: Dict[str, str], argv: List[str], deadline: float
) -> Tuple[float, Dict[str, object], Optional[Dict[str, object]]]:
    """Start ``workload.py``; returns (set-up seconds, ready line, result line).

    The child leads its own process group, so the watchdog that fires at
    ``deadline`` also stops any service subprocess it started.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workload.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=root,
        start_new_session=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), _kill_group, (proc,))
    watchdog.start()
    setup_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith(READY):
                setup_s = perf_counter() - start
                ready = json.loads(line[len(READY):])
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise ChildFailed(f"workload process exited with {proc.returncode} ({' '.join(argv)})")
    return setup_s, ready, result


def print_table(metrics: Dict[str, Dict[str, object]]) -> None:
    print(f"{'metric':<34} {'value':>14} {'unit':<6} {'q1':>12} {'q3':>12} {'n':>6}")
    for name, m in metrics.items():
        q1 = m.get("q1", m["value"])
        q3 = m.get("q3", m["value"])
        n = m.get("n", 1)
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']:<6} {q1:>12.6g} {q3:>12.6g} {n:>6}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_DEADLINE_S
    env = pinned_env(root)
    before = shm_segments()
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    trace_out = os.path.join(root, OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    setups: List[float] = []
    imports: List[float] = []
    # Each start sits between two calibration blocks; the measured run's
    # own first block (taken in its process) closes the last start.
    speed = HostSpeed()
    try:
        for _ in range(SETUP_SAMPLES - 1):
            speed.sample(SETUP_CALIBRATION_S)
            setup_s, ready, _ = run_child(root, env, common + ["--mode", "setup"], deadline)
            setups.append(setup_s)
            imports.append(float(ready["import_s"]))
        extra = ["--mode", "run"]
        if args.trace:
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            extra += ["--trace-out", trace_out]
        speed.sample(SETUP_CALIBRATION_S)
        setup_s, ready, result = run_child(root, env, common + extra, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: the workload process printed no result", file=sys.stderr)
        return 1
    setups.append(setup_s)
    imports.append(float(ready["import_s"]))
    speed.blocks.extend(result["host_blocks"])
    scaled_setups = [speed.factor(i, i + 1) * x for i, x in enumerate(setups)]

    leaked = sorted(shm_segments() - before)
    if leaked:
        print(f"perfbench: {len(leaked)} shared-memory segment(s) left behind: {leaked[:5]}",
              file=sys.stderr)

    if args.trace:
        metrics = dict(result["layers"])
        metrics["setup.import_s"] = metric(imports, "s")
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": metric(scaled_setups, "s"), **result["metrics"]}
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        print(f"perfbench: metric names differ from BENCHMARK.json: "
              f"{sorted(set(names) ^ set(metrics))}", file=sys.stderr)
        return 1
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            print(f"perfbench: {m['name']} unit {metrics[m['name']]['unit']} != {m['unit']}",
                  file=sys.stderr)
            return 1

    failed = int(result["failed"]) + len(leaked)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['passes']} cells/pass={result['cells_per_pass']} "
          f"raw pass_walls={[round(w, 3) for w in result['pass_walls']]} "
          f"median pass at reference speed={result['median_wall']:.4f}")
    print(f"digest sha256:{result['digest']}")
    print(f"host speed: calibration unit {result['host_unit_s'] * 1e3:.2f} ms in the run "
          f"(median of {result['host_units']}), {speed.unit_s() * 1e3:.2f} ms around set-up; "
          f"reference {REFERENCE_S * 1e3:.2f} ms")
    if args.trace:
        walls = result["trace_walls"]
        print(f"tracing overhead: traced pass {walls['traced_s']:.4f} s vs untraced "
              f"{walls['untraced_s']:.4f} s; spans in {os.path.relpath(trace_out, root)}")
    print_table({name: metrics[name] for name in names})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

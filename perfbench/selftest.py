"""Self-test of the benchmark itself.

Checks, from the repository root::

    python3 perfbench/selftest.py

1. a one-second run of every workload, untraced and traced, prints a
   result line that carries exactly the metrics ``BENCHMARK.json`` names
   (every end-to-end metric non-zero, and every per-layer metric of a
   layer on the workload's path non-zero) and reports no failure;
2. a planted digest mismatch — a wrong pin for a grid point, and a wrong
   pin for a service report — makes the correctness gate count failures,
   so the run's error rate rises above 0, while the unplanted control
   counts none;
3. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits with a non-zero status and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Layers every simulation workload runs through: ``repro.switch``,
#: ``repro.network`` and the numpy kernel.
_SIMULATION_LAYERS = (
    "switch.arbitrate_s",
    "switch.arbitrate_calls",
    "switch.grants",
    "switch.execute_s",
    "switch.execute_calls",
    "switch.receive_s",
    "switch.receive_calls",
    "network.generate_s",
    "network.generate_calls",
    "network.deliver_s",
    "network.deliver_calls",
    "network.step_self_s",
    "kernel.numpy.batch_s",
    "kernel.numpy.prepare_s",
    "kernel.numpy.step_s",
    "kernel.numpy.step_us_per_sim_cycle",
    "kernel.numpy.finish_s",
    "kernel.numpy.batches",
)

#: Per-layer metrics that must read non-zero in a traced run of each
#: workload, because the layer is on its path: a wrap that stopped
#: intercepting calls would otherwise read 0 unnoticed.
ON_PATH = {
    "paper-blocking": (
        *_SIMULATION_LAYERS,
        "core.can_accept_s",
        "core.can_accept_calls",
        "core.blocked_frac",
    ),
    "paper-discarding": (*_SIMULATION_LAYERS, "switch.refused_frac"),
    "service-zipf": (
        "service.admit_s",
        "service.queue_wait_s",
        "service.hit_ratio",
        "service.admitted",
        "service.memory_hits",
        "supervisor.map_s",
        "supervisor.tasks",
        "cache.get_s",
        "cache.put_s",
        "cache.flush_s",
    ),
}


def _result_line(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        document = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return document if isinstance(document, dict) else None


def check_tiny_runs(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            names = {
                metric["name"]
                for metric in spec["per_layer" if trace else "end_to_end"]
            }
            completed = subprocess.run(
                [
                    sys.executable,
                    str(HERE / "run.py"),
                    "--workload", workload,
                    "--seed", "1988",
                    "--seconds", "1",
                    "--trace", str(trace),
                ],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=300,
                check=False,
            )
            where = f"{workload} --trace {trace}"
            result = _result_line(completed.stdout)
            if completed.returncode != 0 or result is None:
                problems.append(f"{where}: exit {completed.returncode}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed")
            if set(result["metrics"]) != names:
                problems.append(
                    f"{where}: metrics differ by "
                    f"{sorted(set(result['metrics']) ^ names)}"
                )
            required = ON_PATH[workload] if trace else names
            for name, entry in result["metrics"].items():
                value = entry["value"]
                if not math.isfinite(value) or (name in required and value == 0):
                    problems.append(f"{where}: {name} = {value}")
            print(f"ok   {where}: {len(result['metrics'])} metrics")


def check_planted_mismatch(problems: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import common
    import paper
    import pins
    import service_zipf
    from common import Outcome

    common.confine_temporary_files()

    configs = paper.grid("paper-blocking", 1988)[:2]
    window = (5, 10)
    control = Outcome()
    paper.run_pass(configs, control, None, window)
    planted = Outcome()
    wrong = {paper.label(config): "planted-mismatch" for config in configs}
    paper.run_pass(configs, planted, wrong, window)
    if control.failed or not planted.failed:
        problems.append(
            f"grid pins: control failed {control.failed}, "
            f"planted failed {planted.failed}"
        )
    else:
        print(f"ok   planted grid pin: error rate {planted.failed / planted.attempted:.2f}")

    reports = dict(pins.load()["service-zipf"])
    sequence = ["table2", "table1", "table2"]
    clients = service_zipf.ClientProcess()
    try:
        control = Outcome()
        service_zipf.run_epoch(0, sequence, clients, control, reports, None)
        reports["table2"] = "planted-mismatch"
        planted = Outcome()
        service_zipf.run_epoch(1, sequence, clients, planted, reports, None)
    finally:
        clients.close()
    if control.failed or planted.failed != 2:
        problems.append(
            f"service pins: control failed {control.failed}, "
            f"planted failed {planted.failed} (expected 2)"
        )
    else:
        print(
            f"ok   planted report pin: error rate "
            f"{planted.failed / planted.attempted:.2f}"
        )


def check_without_program(problems: list[str]) -> None:
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        completed = subprocess.run(
            [
                sys.executable, "perfbench/run.py",
                "--workload", "paper-blocking",
                "--seed", "1",
                "--seconds", "1",
                "--trace", "0",
            ],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
            check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if completed.returncode == 0 or _result_line(completed.stdout) is not None:
        problems.append("without src/ the benchmark did not fail cleanly")
    else:
        print(f"ok   without the program: exit {completed.returncode}, no result")


def main() -> int:
    problems: list[str] = []
    check_planted_mismatch(problems)
    check_without_program(problems)
    check_tiny_runs(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Committed result digests the benchmark's correctness gate compares with.

``pins.json`` holds, at seed 1988:

* for each simulation workload, the digest of every grid point's
  ``SimulationResult.to_state()`` at the benchmark's window, from the
  reference kernel;
* for ``service-zipf``, the digest of each catalog experiment's
  rendered report, as the service returns it.

Regenerate them (only when the program's results are meant to change)
from the repository root with::

    python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The seed the pins were generated at.
PIN_SEED = 1988


def load() -> dict[str, Any]:
    return json.loads(PINS_PATH.read_text())


def expected(pins: dict[str, Any], workload: str, seed: int) -> dict[str, str] | None:
    """The pinned digests of a simulation workload, when ``seed`` has them."""
    if seed != pins["seed"]:
        return None
    return pins[workload]


def generate() -> dict[str, Any]:
    import paper
    import service_zipf

    from repro.experiments.runner import run_experiment
    from repro.kernel.base import make_kernel
    from repro.utils.digest import digest_text

    document: dict[str, Any] = {
        "seed": PIN_SEED,
        "window": [paper.WARMUP, paper.MEASURE],
    }
    for workload in paper.WORKLOADS:
        document[workload] = {
            paper.label(config): paper.result_digest(
                make_kernel(config, "reference").run(paper.WARMUP, paper.MEASURE)
            )
            for config in paper.grid(workload, PIN_SEED)
        }
    document["service-zipf"] = {
        experiment: digest_text(
            run_experiment(
                experiment,
                quick=True,
                seed=service_zipf.SPEC_SEED,
                jobs=1,
                backend="reference",
            ).render()
        )
        for experiment in service_zipf.CATALOG
    }
    return document


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    PINS_PATH.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write BENCHMARK.json at the root of the repository from spec.py.

    python3 stfrbench/manifest.py
"""

import json
from pathlib import Path

import spec

PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def manifest() -> dict:
    return {
        "command": ["python3", "stfrbench/run.py"],
        "paths": ["stfrbench"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": name, "why": wl.why}
                      for name, wl in spec.WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in spec.END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in spec.PER_LAYER],
    }


if __name__ == "__main__":
    PATH.write_text(json.dumps(manifest(), indent=2) + "\n")

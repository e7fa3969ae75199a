"""Self-test of the benchmark on a few units per workload (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the run is correct,
that exactly the metrics BENCHMARK.json declares are emitted with their
units, and that the layers' self times add up to the traced wall time less
the benchmark's own bookkeeping, within SUM_TOL of that wall time. Exits
non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

LAYERS = ("tracegen", "models", "search", "offline", "online", "oracle")
# what is left over is the client loop between calls and the wrappers' own
# cost outside their timed region
SUM_TOL = 0.10


def main() -> int:
    run.bootstrap()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.RECORD_DIR = run.RECORD_DIR / "selftest"
    shutil.rmtree(run.RECORD_DIR, ignore_errors=True)
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            result, problems, info = run.run(name, 1, 1, trace, scale="tiny")
            tag = f"{name} trace={trace}"
            failures += [f"{tag}: {p}" for p in problems]
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != declared[trace]:
                failures.append(f"{tag}: metrics {sorted(got.items())} != declared {sorted(declared[trace].items())}")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(m[f"{layer}.s"] for layer in LAYERS)
                wall = info["traced_window_s"]
                rest = wall - m["bench.s"]
                print(f"{name}: layer self times {layers:.4f} s, traced wall less bookkeeping {rest:.4f} s")
                if abs(layers - rest) > SUM_TOL * wall:
                    failures.append(f"{tag}: layer self times {layers} vs {rest} (wall {wall})")
    shutil.rmtree(run.RECORD_DIR, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

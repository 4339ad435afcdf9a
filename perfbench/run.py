"""One command for the repository's benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload capture --seed 1 --seconds 20 --trace 0

Workloads: ``capture`` (simulate and record), ``ingest`` (durable fleet
ingest, direct and through a leaf relay) and ``analytics`` (SQL beside
pushes and compaction).  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` is the separate traced run that reports
per-layer metrics and writes its spans and their latency profiles under
``.perfbench/trace/``.  Every run checks the program's outputs; the
last stdout line is the JSON result, and a failed check exits 1.

``--smoke`` shrinks every size for a quick end-to-end check, and
``--negative`` plants one known defect in the run's inputs or
expectations so the workload's correctness check must fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("capture", "ingest", "analytics")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; every check still runs")
    parser.add_argument("--negative", action="store_true",
                        help="plant one defect the checks must catch")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def complete(result, trace: int, spec: dict) -> None:
    """Order the metrics as BENCHMARK.json lists them; check names and units.

    A traced run prints every per-layer metric: a layer this workload
    bypasses did no work and reports 0.  A run whose checks failed may
    lack measurements; those report 0 beside ``correct: false``.
    """
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    extra = sorted(set(result.metrics) - set(names))
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {extra}")
    bypassed = []
    for m in wanted:
        if m["name"] not in result.metrics:
            if not trace and result.correct:
                raise RuntimeError(f"end-to-end metric {m['name']} not measured")
            bypassed.append(m["name"])
            result.metric(m["name"], 0.0, m["unit"])
        elif result.metrics[m["name"]][1] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {result.metrics[m['name']][1]}"
                               f" differs from BENCHMARK.json's {m['unit']}")
    result.metrics = {name: result.metrics[name] for name in names}
    if bypassed:
        result.notes.append(f"layers this workload bypasses report 0: "
                            f"{', '.join(bypassed)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} holds no src/repro to benchmark; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    if args.workload == "capture":
        import capture
        result = capture.run(args, root)
    else:
        import fleet
        result = fleet.run(args, root)
    complete(result, args.trace, json.loads(
        (HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8")))
    if result.spans:
        import spans
        out = root / ".perfbench" / "trace"
        out.mkdir(parents=True, exist_ok=True)
        stem = out / f"{args.workload}-seed{args.seed}"
        spans.write(result.spans, stem)
        result.notes.append(f"spans and their latency profiles written to "
                            f"{stem.relative_to(root)}.spans.jsonl/.ospb")
    for line in result.lines():
        print(line)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

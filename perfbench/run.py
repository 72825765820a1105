"""Benchmark entry point for numitn.

Run from the repository root:

    python3 perfbench/run.py --workload transcripts --seed 1 --seconds 12 --trace 0

The last line of standard output is the result object the benchmark
contract asks for; the line before it is the full run record, which is
also written to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("transcripts", "written", "paragraphs", "corpus")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "numitn" / "__init__.py").is_file():
        print(f"error: no numitn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result, record = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                   ROOT, HERE / "out")
    record["metrics"] = result["metrics"]
    text = json.dumps(record, ensure_ascii=False)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

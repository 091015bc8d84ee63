"""Compare benchmark records written by ``run.py --record``.

    python3 perfbench/compare.py BASE.json NEW.json

Each file holds one record or ``{"records": [...]}``; records are paired
by workload, trace mode and seed.  Prints every metric of each pair with
its relative change and says whether the output digests agree.  Refuses,
with exit code 2, to compare records made on different arithmetic
backends: a Fraction timing and a gmpy2 timing measure different
programs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path) -> list[dict]:
    data = json.loads(Path(path).read_text())
    return data["records"] if "records" in data else [data]


def key(record) -> tuple:
    return record["workload"], record["trace"], record["seed"]


def compare(base: list[dict], new: list[dict]) -> list[str]:
    """Report lines for every pair; raises ValueError on a backend mismatch."""
    by_key = {key(r): r for r in base}
    lines = []
    for r in new:
        b = by_key.get(key(r))
        if b is None:
            continue
        if b["backend"] != r["backend"]:
            raise ValueError(
                f"{key(r)}: backends differ ({b['backend']} vs {r['backend']}); refusing to compare"
            )
        workload, trace, seed = key(r)
        same = "equal" if b["outputs_digest"] == r["outputs_digest"] else "DIFFER"
        lines.append(f"{workload} trace={trace} seed={seed} backend={r['backend']} outputs {same}")
        for name, m in r["metrics"].items():
            if name not in b["metrics"]:
                continue
            old = b["metrics"][name]["value"]
            change = f"{(m['value'] - old) / old:+.1%}" if old else "n/a"
            lines.append(f"  {name:48} {old:12.6g} -> {m['value']:12.6g} {m['unit']:6} {change}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        lines = compare(load(args[0]), load(args[1]))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines) if lines else "no records pair up")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

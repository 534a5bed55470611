"""Alternating benchmark pairs between two checkouts of this repository.

    python3 tools/ab_pairs.py PARENT CHANGE --workload clf_all --seed 11 --pairs 8 --out FILE

Each pair runs ``bench/run.py --seconds 30 --trace 0`` once in each checkout,
the parent first in even pairs and the change first in odd ones, and keeps
each run's result line and ``digest`` line.  Per end-to-end metric it prints
each side's quartiles and how many pairs the change wins, with "better" read
from the change's ``BENCHMARK.json`` (a tie counts for neither side), and
whether every digest matched.  ``--out`` appends the set to a JSON list.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "30", "--trace", "0"]
    lines = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    digest = next(line.split("sha256=")[1] for line in lines if line.startswith("digest "))
    metrics = json.loads(lines[-1])["metrics"]
    return {"digest": digest, "metrics": {name: m["value"] for name, m in metrics.items()}}


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile, linearly interpolated."""
    s = sorted(values)
    pos = [(len(s) - 1) * q for q in (0.25, 0.5, 0.75)]
    return [s[int(p)] + (p - int(p)) * (s[min(int(p) + 1, len(s) - 1)] - s[int(p)]) for p in pos]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles and the change's wins over the pairs."""
    out = {"digests_match": all(p["parent"]["digest"] == p["change"]["digest"] for p in pairs)}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        out[name] = {"parent": quartiles(par), "change": quartiles(chg),
                     "wins": sum(sign * (c - p) > 0 for p, c in zip(par, chg))}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, args.seed)
        pairs.append(pair)
    summary = summarize(pairs, better)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, "
          f"digests match: {summary['digests_match']}")
    for name in better:
        (p1, p2, p3), (c1, c2, c3) = summary[name]["parent"], summary[name]["change"]
        print(f"{name}: parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  change {c2:.4g} [{c1:.4g}, "
              f"{c3:.4g}]  change wins {summary[name]['wins']}/{args.pairs}")
    if args.out:
        sets = json.loads(args.out.read_text()) if args.out.exists() else []
        sets.append({"workload": args.workload, "seed": args.seed, "pairs": pairs,
                     "summary": summary})
        args.out.write_text(json.dumps(sets, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

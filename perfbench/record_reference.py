"""Record reference.json: the sha256 of every request any seed can draw.

    python3 perfbench/record_reference.py [--out perfbench/reference.json]

Run it from the repository root.  Each request of each workload's universe
is executed once against the working tree's ``src/``, its cross-check must
hold, and its output digest is stored under the request's canonical key.
Re-record only when an output is meant to change.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import json  # noqa: E402

import zetaforge  # noqa: E402

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args()
    reference, bad = {}, 0
    groups = [(name, workloads.universe(name)) for name in workloads.WORKLOADS]
    for name, specs in groups + [("probe", workloads.PROBE)]:
        outputs, _, wall = workloads.run_pass(zetaforge, specs)
        for spec, (text, error) in zip(specs, outputs):
            key = workloads.canonical(spec)
            reason = error
            if text is not None:
                reference[key] = workloads.digest(text)
                reason = workloads.check(zetaforge, spec, text, reference)
            if reason is not None:
                bad += 1
                print(f"FAIL {key}: {reason}", file=sys.stderr)
        print(f"{name}: {len(specs)} requests in {wall:.1f} s", file=sys.stderr)
    if bad:
        print(f"{bad} requests failed; reference not written", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, sort_keys=True, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

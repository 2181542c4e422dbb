"""The zetaforge benchmark.

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload in turn

Run it from the repository root.  Each pass of a workload is one fresh
interpreter (worker.py) that imports ``src/`` and issues the seeded request
list in a closed loop with a single client.  Passes repeat until
``--seconds`` is used up.  Every time is scaled to a reference host speed,
measured inside each worker next to it (calibration.py); each request's
latency is its median over the passes, and the latency metrics are taken
from those medians.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the import
times from ``-X importtime``, and the tracing overhead; spans are written to
``.perfbench_out/``.  Every metric is printed by name with its unit and
sample count, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

MIN_PASSES = 3  # a request's median needs at least three latencies
SETUP_SAMPLES = 5  # setup_s is a median over at least this many interpreters
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 150
TAIL_ABOVE = 10  # req_tail_ms: the highest percentile with this many requests above it

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the worker puts src/ first itself
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # an installed CLI runs from bytecode
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(config, importtime=False):
    """Run one worker to completion and return its result."""
    flags = ["-X", "importtime"] if importtime else []
    t_spawn = time.monotonic()
    cmd = [sys.executable, *flags, WORKER, repr(t_spawn), json.dumps(config)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["duration_s"] = time.monotonic() - t_spawn
    if importtime:
        result["importtime"] = proc.stderr
    return result


def repeat(make_one, seconds):
    """Call make_one() at least MIN_PASSES times, then while another call of
    typical length still fits in ``seconds``."""
    start = time.monotonic()
    done = []
    while True:
        done.append(make_one())
        elapsed = time.monotonic() - start
        typical = elapsed / len(done)
        if len(done) >= MIN_PASSES and elapsed + typical > seconds:
            return done


def scaled(one_pass):
    """A pass's latencies in reference seconds (calibration.py)."""
    return [t * s for t, s in zip(one_pass["latencies_s"], one_pass["scales"])]


def request_medians(passes):
    """Each request's median latency over the passes of a run, in reference
    seconds.  Every pass issues the same list, and the host's speed varies from
    one request to the next, so a request's median is steadier than any pass."""
    return [statistics.median(column) for column in zip(*map(scaled, passes))]


def tail(latencies):
    """(value, percentile): the highest percentile of the latencies that still
    has TAIL_ABOVE requests above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_ABOVE:
        raise BenchError(f"a pass of {n} requests has no tail with {TAIL_ABOVE} above it")
    return ordered[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def pass_config(workload, seed):
    return {"workload": workload, "seed": seed, "reference": REFERENCE}


def check_passes(passes):
    """Failures and consistency across passes of the same list.  Returns
    (attempted, failed, problems)."""
    problems = []
    first = passes[0]
    for p in passes[1:]:
        if p["list_hash"] != first["list_hash"]:
            problems.append("request lists differ between passes")
        if p["digests"] != first["digests"]:
            problems.append("outputs differ between passes")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for index, key, reason in p["failures"][:5]:
            problems.append(f"request {index} {key}: {reason}")
    return attempted, failed, problems


def end_to_end(workload, seed, seconds):
    passes = repeat(lambda: spawn(pass_config(workload, seed)), seconds)
    starts = passes[:]
    while len(starts) < SETUP_SAMPLES:
        starts.append(spawn({"setup_only": True}))
    setups = [p["setup_s"] * p["setup_scale"] for p in starts]
    typical = request_medians(passes)
    n = len(typical)
    tail_s, tail_pct = tail(typical)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "req_p50_ms": 1000 * statistics.median(typical),
        "req_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted, failed, problems = check_passes(passes)
    samples = {
        "setup_s": f"median of {len(setups)} interpreter starts",
        "wall_s": f"sum of {n} request medians over {len(passes)} passes",
        "req_p50_ms": f"p50 of {n} request medians over {len(passes)} passes",
        "req_tail_ms": f"p{tail_pct:.1f} of {n} request medians over {len(passes)} passes",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    scale = statistics.median(s for p in passes for s in p["scales"])
    lines = [f"{workload} seed {seed}: {n} requests per pass, list {passes[0]['list_hash']}, "
             f"median host-speed scale {scale:.3f}"]
    lines += [f"  {k:<13} {v:12.4f} {END_TO_END_UNITS[k]:<3} ({samples[k]})" for k, v in values.items()]
    lines.append(f"  {'error_rate':<13} {failed / attempted:12.4f}     ({failed} of {attempted} requests failed)")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, attempted, failed, problems, lines


def parse_importtime(text):
    """Seconds spent importing sympy and click (cumulative) and zetaforge's
    own modules (self time), from ``python -X importtime`` output."""
    cumulative, own = {}, 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the column header
        name = name.strip()
        cumulative[name] = int(cum_us)
        if name == "zetaforge" or name.startswith("zetaforge."):
            own += int(self_us)
    return {
        "setup.import_sympy_s": cumulative.get("sympy", 0) / 1e6,
        "setup.import_click_s": cumulative.get("click", 0) / 1e6,
        "setup.import_zetaforge_s": own / 1e6,
    }


def per_layer(workload, seed, seconds):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"{workload}.spans")
    config = pass_config(workload, seed)
    pairs = repeat(lambda: (spawn(config), spawn(dict(config, spans=spans))), seconds)
    starts = [spawn({"setup_only": True}, importtime=True) for _ in range(IMPORTTIME_SAMPLES)]
    imports = [{k: v * s["setup_scale"] for k, v in parse_importtime(s["importtime"]).items()} for s in starts]
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    values = {k: statistics.median(i[k] for i in imports) for k in imports[0]}
    for k in traced[0]["layers"]:
        if layer_unit(k) == "s":  # in reference seconds, as every time
            values[k] = statistics.median(t["layers"][k] * statistics.median(t["scales"]) for t in traced)
        else:
            values[k] = statistics.median_low(t["layers"][k] for t in traced)
    values["trace.overhead_s"] = (statistics.median(sum(scaled(t)) for t in traced)
                                  - statistics.median(sum(scaled(p)) for p in plain))
    attempted, failed, problems = check_passes(plain + traced)
    lines = [f"{workload} seed {seed}, traced: {len(pairs)} traced and {len(pairs)} untraced passes, "
             f"{IMPORTTIME_SAMPLES} import-time runs, spans in {os.path.relpath(spans, ROOT)}"]
    metrics = {}
    for k, v in values.items():
        unit = layer_unit(k)
        metrics[k] = {"value": v, "unit": unit}
        lines.append(f"  {k:<46} {v:14d} {unit}" if unit == "count" else f"  {k:<46} {v:14.6f} {unit}")
    return metrics, attempted, failed, problems, lines


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description="zetaforge benchmark")
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    measure = per_layer if args.trace else end_to_end
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, problems = {}, 0, 0, []
    try:
        for name in chosen:
            m, a, f, p, lines = measure(name, args.seed, args.seconds)
            print("\n".join(lines), flush=True)
            prefix = "" if len(chosen) == 1 else name + "."
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
            problems += p
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

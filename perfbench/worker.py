"""One pass of one workload in a fresh interpreter.

run.py starts it as

    python3 worker.py <spawn-time> <config-json>

with ``spawn-time`` the parent's ``time.monotonic()`` just before the spawn.
The program is imported before anything of the benchmark's own, so that
``setup_s`` covers exactly interpreter start plus ``import zetaforge.cli``.
The result is one JSON line on stdout.  It carries the raw times and, for
each of them, the host-speed scale measured nearest to it (calibration.py);
run.py applies the scales.
"""

import os
import sys
import time


def main(t_spawn, config):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import zetaforge.cli  # noqa: F401

    setup_s = time.monotonic() - t_spawn
    t_setup = time.perf_counter()

    import json
    import resource

    import calibration
    import workloads

    if not os.path.realpath(zetaforge.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"zetaforge was imported from {zetaforge.__file__}, not {src}", file=sys.stderr)
        return 3
    config = json.loads(config)
    host = calibration.Sampler()
    host.edge()
    setup_scale = host.scale_at(t_setup)
    if config.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0
    specs = workloads.generate(config["workload"], config["seed"])
    with open(config["reference"], encoding="utf-8") as handle:
        reference = json.load(handle)
    tracer, probe = None, []
    if config.get("spans"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(zetaforge)
        probe = workloads.PROBE
    try:
        outputs, latencies, wall = workloads.run_pass(zetaforge, specs, tracer, between=host.between)
        host.edge()
        if tracer is not None:  # after the timed list, with ids -len(PROBE)..-1
            probe_outputs, _, _ = workloads.run_pass(zetaforge, probe, tracer, first=-len(probe))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies_s": latencies,
        "scales": host.request_scales(latencies),
        "setup_scale": setup_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "list_hash": workloads.list_hash(specs),
    }
    if tracer is not None:
        tracer.dump(config["spans"])
        result["layers"] = tracer.layer_metrics()
    result["digests"], result["failures"] = workloads.check_outputs(zetaforge, specs, outputs, reference)
    if probe:
        result["failures"] += workloads.check_outputs(zetaforge, probe, probe_outputs, reference, -len(probe))[1]
    result["attempted"] = len(probe) + len(specs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]), sys.argv[2]))

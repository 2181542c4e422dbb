"""The benchmark's own tests:  python3 -m pytest perfbench/tests -q"""

import time

import pytest
import zetaforge
from zetaforge import dirichlet, families, numberfield

import calibration
import run
import tracer
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_stratified(name):
    first = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == first
    assert workloads.list_hash(workloads.generate(name, 7)) == workloads.list_hash(first)
    keys = {workloads.canonical(s) for s in workloads.universe(name)}
    for seed in (1, 2, 3):
        specs = workloads.generate(name, seed)
        assert len(specs) == len(first)  # every stratum draws a fixed count
        assert all(workloads.canonical(s) in keys for s in specs)
    assert workloads.list_hash(workloads.generate(name, 8)) != workloads.list_hash(first)


def test_reference_covers_every_request():
    import json

    with open(run.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    for name in workloads.WORKLOADS:
        assert all(workloads.canonical(s) in reference for s in workloads.universe(name))
    assert all(workloads.canonical(s) in reference for s in workloads.PROBE)


def test_wrong_reference_counts_as_a_failed_request():
    specs = [["closed", "heisenberg:2", 1], ["decompose", "1,0,1", 5], ["oracle", "Z^2", workloads.abelian_dict(2), 2, 2]]
    outputs, latencies, _ = workloads.run_pass(zetaforge, specs)
    reference = {workloads.canonical(s): workloads.digest(text) for s, (text, _) in zip(specs, outputs)}
    digests, failures = workloads.check_outputs(zetaforge, specs, outputs, reference)
    assert failures == []
    reference[workloads.canonical(specs[1])] = "0" * 64
    digests, failures = workloads.check_outputs(zetaforge, specs, outputs, reference)
    assert [f[0] for f in failures] == [1]
    result = {"attempted": 3, "failures": failures, "digests": digests, "list_hash": "x"}
    attempted, failed, problems = run.check_passes([result])
    assert (attempted, failed) == (3, 1) and problems


def test_cross_check_catches_a_wrong_count():
    spec = ["oracle", "H1", workloads.heisenberg_dict(1), 2, 2]
    assert workloads._check_oracle(zetaforge, spec, {"count": 12}) is None
    assert "series coefficient" in workloads._check_oracle(zetaforge, spec, {"count": 13})


def test_request_medians_scale_each_latency():
    passes = [
        {"latencies_s": [1.0, 2.0], "scales": [1.0, 1.0]},
        {"latencies_s": [3.0, 4.0], "scales": [0.5, 0.5]},
        {"latencies_s": [2.0, 10.0], "scales": [1.0, 0.1]},
    ]
    assert run.request_medians(passes) == [1.5, 2.0]


def test_calibration_stays_out_of_the_wall():
    specs = [["decompose", "1,0,1", 5]] * 3
    _, latencies, wall = workloads.run_pass(zetaforge, specs, between=lambda: time.sleep(0.05))
    assert wall == pytest.approx(sum(latencies), abs=0.01) and wall < 0.1
    host = calibration.Sampler()
    host.between()
    host.between()  # not yet due
    assert len(host.took) == 1 and len(host.starts) == 2


def test_scale_uses_the_nearest_samples():
    host = calibration.Sampler()
    host.at = [float(t) for t in range(10)]
    host.took = [0.001] * 5 + [0.004] * 5
    ref = calibration.REFERENCE_S
    assert host.scale_at(-1.0) == host.scale_at(2.2) == ref / 0.001
    assert host.scale_at(7.0) == host.scale_at(99.0) == ref / 0.004
    host.starts = [0.0, 6.5]
    assert host.request_scales([1.0, 1.0]) == [ref / 0.001, ref / 0.004]


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: 5 covered)
    # and [8, 12] (clipped to the root: 2 covered); [1, 4] has child [2, 3].
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracer.self_times(start, end, parent) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_wrapper_on_make_W_sees_calls_from_local_factor():
    original = families.make_W
    t = tracer.Tracer()
    t.install(zetaforge)
    try:
        dirichlet.local_factor(families.heisenberg(1), 1, numberfield.rationals(), 5)
    finally:
        t.uninstall()
    assert families.make_W is original
    names = [t.names[i] for i in t.columns["name_id"]]
    parent = t.columns["parent"][names.index("families.make_W")]
    assert parent >= 0 and names[parent] == "dirichlet.local_factor"
    assert t.layer_metrics()["families.make_W.calls"] == 1


def test_verdicts_are_split_and_spans_round_trip(tmp_path):
    t = tracer.Tracer()
    t.install(zetaforge)
    try:
        h1 = zetaforge.heisenberg_lattice(1)
        perm = zetaforge.lattice_from_dict(workloads.permuted(workloads.H1, (0, 2, 1)))
        exact = zetaforge.count_proisomorphic(h1, 2, 2)
        generic = zetaforge.count_proisomorphic(perm, 2, 2)
    finally:
        t.uninstall()
    assert exact == generic == 12
    layers = t.layer_metrics()
    assert layers["oracle.verdict.exact.calls"] == layers["oracle.verdict.generic.calls"] > 0
    assert layers["oracle.enumerate_sublattices.yielded"] == 2 * workloads.sublattice_count(3, 2, 2)
    path = tmp_path / "spans"
    t.dump(path)
    header, columns = tracer.read_spans(path)
    assert header["names"] == t.names
    assert list(columns["end_s"]) == list(t.columns["end_s"])


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |     400000 | sympy",
        "import time:        50 |      20000 | click",
        "import time:      1000 |       1500 |   zetaforge.laurent",
        "import time:      2000 |     423500 | zetaforge",
    ])
    assert run.parse_importtime(text) == {
        "setup.import_sympy_s": 0.4, "setup.import_click_s": 0.02, "setup.import_zetaforge_s": 0.003,
    }

"""Spans around calls into the program, recorded from outside it.

``Tracer.install(zetaforge)`` replaces every public function of the traced
modules with a wrapper that records a span, in the defining module and in
every module that imported it by name (``dirichlet.make_W``,
``families.perm_stats``, ...), and wraps four methods on their classes.
Nothing under ``src/`` changes, and ``uninstall()`` puts the originals back.

A span is (name, start, end, parent, request).  Spans stay in memory until
``dump`` writes them out.  A generator function gets one span per resumption,
so its time is charged to whoever consumes it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("laurent", "signed_perms", "families", "symmetry", "numberfield", "dirichlet", "oracle")
METHODS = (
    ("laurent", "LaurentPoly", "__add__", "laurent.add"),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul"),
    ("laurent", "EulerForm", "expand_series", "laurent.expand_series"),
    ("dirichlet", "LocalFactor", "expand", "dirichlet.expand"),
)
# Span columns as written by dump: (name, array typecode).
COLUMNS = (("name_id", "i"), ("request", "i"), ("parent", "q"), ("start_s", "d"), ("end_s", "d"))


def _prime_count(limit):
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return sum(sieve)


# Called with (tracer, *args) before the span opens, to note the inputs that
# the distinct-input ratios and dirichlet.primes_handled are made of.
NOTES = {
    "families.make_W": lambda t, family, d: t.keys["families.make_W"].add((str(family), d)),
    "numberfield.discriminant": lambda t, coeffs: t.keys["numberfield.discriminant"].add(tuple(coeffs)),
    "dirichlet.type_specialized_W": lambda t, w, pairs: t.keys["dirichlet.type_specialized_W"].add(
        (w.denominator, frozenset(w.numerator.terms.items()), tuple(pairs))
    ),
    "dirichlet.global_coefficients": lambda t, family, d, field, limit: t.counts.update(
        {"dirichlet.primes_handled": _prime_count(limit)}
    ),
}

CALLS = (
    "laurent.add", "laurent.mul", "laurent.expand_series",
    "signed_perms.perm_stats", "signed_perms.stats",
    "families.make_W", "families.descent_form",
    "symmetry.extract_functional_equation",
    "numberfield.decomposition_type", "numberfield.factor_mod_p", "numberfield.discriminant",
    "dirichlet.local_factor", "dirichlet.type_specialized_W",
    "oracle.is_subring", "oracle.verdict.exact", "oracle.verdict.generic",
)
SELF = (
    "laurent.add", "laurent.mul", "laurent.expand_series",
    "signed_perms.perm_stats", "signed_perms.stats",
    "signed_perms.verify_bm_identity", "signed_perms.verify_sublemma",
    "families.make_W", "families.descent_form", "families.bruhat_gsp_sum",
    "symmetry.extract_functional_equation", "symmetry.verify_functional_equation",
    "numberfield.decomposition_type", "numberfield.factor_mod_p", "numberfield.discriminant",
    "dirichlet.global_coefficients", "dirichlet.local_factor", "dirichlet.type_specialized_W",
    "dirichlet.expand",
    "oracle.enumerate_sublattices", "oracle.is_subring", "oracle.verdict.exact", "oracle.verdict.generic",
)
DISTINCT = ("families.make_W", "numberfield.discriminant", "dirichlet.type_specialized_W")


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    n = len(start)
    covered = [0.0] * n
    reach = {}  # parent -> furthest end of its children seen so far
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach.get(p, start[p]), hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


def _ratio(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.columns = {name: array(code) for name, code in COLUMNS}
        self.stack = []
        self.request = -1
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.paused = False
        self._patched = []
        self._verdict_kinds = {}

    # -- recording -----------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        c = self.columns
        idx = len(c["start_s"])
        c["name_id"].append(nid)
        c["request"].append(self.request)
        c["parent"].append(self.stack[-1] if self.stack else -1)
        c["end_s"].append(0.0)
        self.stack.append(idx)
        c["start_s"].append(time.perf_counter())
        return idx

    def close(self, idx):
        self.columns["end_s"][idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, note=None):
        """``name`` is a string, or a callable that picks it from the arguments."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return tracer._resumptions(fn(*args, **kwargs), name)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span = name(*args) if callable(name) else name
            if note is not None:
                note(tracer, *args, **kwargs)
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if result is True:
                tracer.counts[span + ".true"] += 1
            return result

        return traced

    def _resumptions(self, iterator, name):
        while True:
            idx = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.counts[name + ".yielded"] += 1
            yield item

    def _verdict_span(self, lattice, *_):
        """Exact verdicts (abelian, standard Heisenberg) and searched ones
        get separate spans; the lattice is classified once per object."""
        hit = self._verdict_kinds.get(id(lattice))
        if hit is None or hit[0] is not lattice:
            self.paused = True
            try:
                exact = lattice.is_abelian() or lattice.heisenberg_m() is not None
            finally:
                self.paused = False
            hit = self._verdict_kinds[id(lattice)] = (
                lattice, "oracle.verdict.exact" if exact else "oracle.verdict.generic")
        return hit[1]

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        modules = {short: getattr(package, short) for short in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    if name == "oracle.is_proisomorphic":
                        name = self._verdict_span
                    wrapped[obj] = self.wrap(obj, name, NOTES.get(f"{short}.{attr}"))
        cli = importlib.import_module(package.__name__ + ".cli")
        for module in [package, cli, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def layer_metrics(self):
        c = self.columns
        calls, self_s = Counter(), defaultdict(float)
        for nid, own in zip(c["name_id"], self_times(c["start_s"], c["end_s"], c["parent"])):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += own
        out = {f"{span}.calls": calls[span] for span in CALLS}
        out.update({f"{span}.self_s": self_s[span] for span in SELF})
        out.update({f"{span}.distinct_ratio": _ratio(len(self.keys[span]), calls[span]) for span in DISTINCT})
        verdicts = ("oracle.verdict.exact", "oracle.verdict.generic")
        out["oracle.enumerate_sublattices.yielded"] = self.counts["oracle.enumerate_sublattices.yielded"]
        out["oracle.subring_ratio"] = _ratio(self.counts["oracle.is_subring.true"], calls["oracle.is_subring"])
        out["oracle.proiso_ratio"] = _ratio(
            sum(self.counts[v + ".true"] for v in verdicts), sum(calls[v] for v in verdicts))
        out["dirichlet.primes_handled"] = self.counts["dirichlet.primes_handled"]
        return out

    def dump(self, path):
        """One JSON header line, then each column of COLUMNS as raw native
        arrays in that order."""
        header = {
            "names": self.names,
            "spans": len(self.columns["start_s"]),
            "columns": COLUMNS,
            "counts": dict(self.counts),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for name, _ in COLUMNS:
                self.columns[name].tofile(handle)


def read_spans(path):
    """(header, {column: array}) as written by Tracer.dump."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for name, code in header["columns"]:
            columns[name] = array(code)
            columns[name].fromfile(handle, header["spans"])
    return header, columns

"""Per-layer spans and counters, patched onto confalg from outside.

Only the traced repetition imports this module.  Tracer.install wraps the
public functions of each layer where callers look them up, records one span
(name, start, end, parent, request) per call in compact arrays, and counts
constructions that are too frequent to span.  Self time is computed after
the run: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import time
from array import array
from fractions import Fraction

import confalg.cli as cli
import confalg.exprs as exprs
import confalg.freeconf as freeconf
import confalg.ncpoly as ncpoly
import confalg.pseudo as pseudo

_clock = time.perf_counter

# span name -> [(owner, attribute), ...]; every entry gets the same wrapper
# kind, and names that share a span (ncpoly.linear, freeconf.render, ...)
# are summed.
SPANS = {
    "cli.main": [(cli, "main")],
    "cli.load_config": [(cli, "load_config")],
    "exprs.parse": [(cli, "parse"), (exprs, "parse")],
    "exprs.evaluate": [
        (cli, "evaluate"), (exprs, "evaluate"),
        (cli, "evaluate_pseudo"), (exprs, "evaluate_pseudo"),
    ],
    "freeconf.cprod_rw": [(freeconf.FreeConformal, "cprod_rw")],
    "freeconf.reduce": [(freeconf.FreeConformal, "reduce")],
    "freeconf.iota_word": [(freeconf.FreeConformal, "iota_word")],
    "freeconf.locality_of": [(freeconf.FreeConformal, "locality_of")],
    "freeconf.render": [
        (freeconf.FreeConformal, "element_to_json"),
        (freeconf.FreeConformal, "element_to_text"),
    ],
    "pseudo.star_expanded": [(pseudo.PseudoAlgebra, "star_expanded")],
    # canonicalize is looked up as a module global by nproducts, comm_nth,
    # eval_identity and PseudoTensor.canonical; decompose likewise in pseudo.
    "pseudo.canonicalize": [(pseudo, "canonicalize")],
    "pseudo.canonical3": [(pseudo.PseudoTensor3, "canonical")],
    "pseudo.flatten": [(pseudo.PseudoTensor, "flatten"), (pseudo.PseudoTensor3, "flatten")],
    "hopf.decompose": [(pseudo, "decompose")],
    "ncpoly.mul": [(ncpoly.NCPoly, "__mul__")],
    "ncpoly.vderiv": [(ncpoly.NCPoly, "vderiv")],
    "ncpoly.coact": [(ncpoly.NCPoly, "coact")],
    "ncpoly.linear": [
        (ncpoly.NCPoly, "__add__"), (ncpoly.NCPoly, "__sub__"),
        (ncpoly.NCPoly, "__neg__"), (ncpoly.NCPoly, "scale"),
    ],
}
# cprod, pprod and nproducts get spans plus the pair counters below.
EXTRA_SPANS = ("freeconf.cprod", "pseudo.pprod", "pseudo.nproducts")

COUNTERS = (
    "fractions.new",
    "ncpoly.new",
    "freeconf.element.new",
    "freeconf.reduce.steps",
    "freeconf.pair_requests",
    "pprod_in_cprod",
    "coeffs_in_cprod",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.request = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.cprod_depth = 0

    def _name_id(self, name: str) -> int:
        if name not in self.name_of:
            self.name_of[name] = len(self.names)
            self.names.append(name)
        return self.name_of[name]

    def span(self, name: str, fn):
        nid = self._name_id(name)
        stack = self.stack
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _clock()
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, sites in SPANS.items():
            wrapped = {}
            for owner, attr in sites:
                fn = owner.__dict__[attr]
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.span(name, fn)
                setattr(owner, attr, wrapped[id(fn)])
        counts = self.counts

        cprod = self.span("freeconf.cprod", freeconf.FreeConformal.cprod)

        def cprod_counted(fc, x, n, y):
            counts["freeconf.pair_requests"] += len(x.terms) * len(y.terms)
            self.cprod_depth += 1
            try:
                return cprod(fc, x, n, y)
            finally:
                self.cprod_depth -= 1

        freeconf.FreeConformal.cprod = cprod_counted

        pprod = self.span("pseudo.pprod", pseudo.PseudoAlgebra.pprod)

        def pprod_counted(pa, kind, x, y):
            if self.cprod_depth:
                counts["pprod_in_cprod"] += 1
            return pprod(pa, kind, x, y)

        pseudo.PseudoAlgebra.pprod = pprod_counted

        nproducts = self.span("pseudo.nproducts", pseudo.PseudoAlgebra.nproducts)

        def nproducts_counted(pa, kind, x, y):
            out = nproducts(pa, kind, x, y)
            if self.cprod_depth:
                counts["coeffs_in_cprod"] += len(out.coeffs)
            return out

        pseudo.PseudoAlgebra.nproducts = nproducts_counted

        freeconf.FreeConformal.word_to_normal = self._counted(
            "freeconf.reduce.steps", freeconf.FreeConformal.word_to_normal
        )
        ncpoly.NCPoly.__init__ = self._counted("ncpoly.new", ncpoly.NCPoly.__init__)
        freeconf.ConfElement.__init__ = self._counted(
            "freeconf.element.new", freeconf.ConfElement.__init__
        )
        fraction_new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            counts["fractions.new"] += 1
            return fraction_new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted_new)

    # ---- after the run -------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """{span name: {"calls": n, "self_s": t}} from the recorded spans."""
        n = len(self.span_start)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in list(SPANS) + list(EXTRA_SPANS)}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["self_s"] += ends[i] - starts[i] - child[i]
        return out

    def write(self, path: str) -> None:
        """Spans as gzipped TSV: index, name, parent, request, start, end."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("index\tname\tparent\trequest\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_request[i]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )


def per_layer(totals: dict[str, dict], counts: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from span totals and counters."""
    m: dict[str, float] = {}
    for name in (
        "pseudo.pprod", "pseudo.canonicalize", "ncpoly.mul", "ncpoly.vderiv",
        "hopf.decompose", "freeconf.reduce", "freeconf.iota_word", "freeconf.cprod",
        "freeconf.cprod_rw", "pseudo.canonical3", "exprs.parse", "cli.main",
    ):
        m[f"{name}.calls"] = totals[name]["calls"]
        m[f"{name}.self_s"] = totals[name]["self_s"]
    for name in (
        "ncpoly.coact", "ncpoly.linear", "freeconf.render", "freeconf.locality_of",
        "pseudo.star_expanded", "pseudo.flatten", "exprs.evaluate", "cli.load_config",
    ):
        m[f"{name}.self_s"] = totals[name]["self_s"]
    for name in ("ncpoly.new", "fractions.new", "freeconf.reduce.steps",
                 "freeconf.element.new", "freeconf.pair_requests"):
        m[name] = counts[name]
    pairs = counts["freeconf.pair_requests"]
    m["freeconf.pprod_per_pair"] = counts["pprod_in_cprod"] / pairs if pairs else 0.0
    m["freeconf.coeffs_per_pair"] = counts["coeffs_in_cprod"] / pairs if pairs else 0.0
    return m

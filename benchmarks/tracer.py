"""In-memory span tracer that wraps the public functions of each nhsdp layer.

Tracing works by rebinding module attributes: every public function defined
in a layer module, and every public classmethod of a public class defined
there, is replaced by a wrapper in *every* ``nhsdp`` namespace that holds it
(``pda`` imports ``verify_nhsdp`` by name, ``cli`` calls ``packing.*`` by
attribute, ``exhaustive_demand_check`` calls ``deliver``/``decode`` as module
globals).  The package source is not touched.  Instance methods and private
helpers are not wrapped, so their time is self time of their caller;
``ringmath`` gets no span, so its time is self time of its callers.

A span is (name, start, end, parent span, op id, ok).  Spans live in flat
``array`` columns while the run lasts and are written once, at the end.

Work counters are computed by hooks from a wrapped call's inputs and outputs
(never read from the library's own bookkeeping).  A hook runs after its call
has returned, inside a ``trace.count`` span, so its cost is tracer time and
not self time of the layer that happened to be the caller.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "serialize", "packing", "pda", "simulate", "designs", "schemes")
COUNT_SPAN = "trace.count"
PROBE_SPAN = "trace.probe"

# Counters the hooks below compute; every one is reported, zero when unused.
COUNTERS = (
    "pda.cells_scanned",
    "pda.symbol_pairs",
    "packing.half_sum_pairs",
    "designs.phf_columns",
    "designs.phf_triples",
    "schemes.points",
    "simulate.cache_bytes",
    "simulate.wire_bytes",
    "simulate.wire_bytes_nominal",
    "simulate.xor_bytes",
    "serialize.bytes_read",
    "serialize.bytes_written",
)


# -- work-counter hooks: (tracer, span index, args, result) -> None ----------

def _verify_pda(tr, i, args, result):
    arr = args[0]
    tr.add("pda.cells_scanned", arr.F * arr.K)
    grid = arr.grid
    _, occ = np.unique(grid[grid != 0], return_counts=True)
    tr.add("pda.symbol_pairs", int((occ * (occ - 1) // 2).sum()))


def _half_sum_pairs(tr, i, args, result):
    tr.add("packing.half_sum_pairs", sum(math.comb(len(set(b)), 2) for b in args[1]))


def _verify_phf(tr, i, args, result):
    phf = args[0]
    tr.add("designs.phf_columns", phf.m)
    tr.add("designs.phf_triples", math.comb(phf.m, phf.t))


def _tradeoff_sweep(tr, i, args, result):
    tr.add("schemes.points", len(result))


def _place(tr, i, args, result):
    packet_len = args[1].packet_len
    cached = sum(result.cached_bytes(k, packet_len) for k in range(len(result.users)))
    tr.add("simulate.cache_bytes", cached)


def _deliver(tr, i, args, result):
    wire = xor = 0
    for txn in result.transmissions:
        n = len(txn.payload)
        wire += n
        xor += (len(txn.contributors) - 1) * n
    tr.add("simulate.wire_bytes", wire)
    tr.add("simulate.xor_bytes", xor)
    tr.add("simulate.wire_bytes_nominal", args[0].S * args[1].packet_len)


def _serialize_read(tr, i, args, result):
    # Count text once, at the outermost serialize call (load_pda -> pda_from_text).
    if tr.layer_of_span(tr.parents[i]) != "serialize":
        tr.add("serialize.bytes_read", len(args[0]))


def _serialize_write(tr, i, args, result):
    tr.add("serialize.bytes_written", len(result))


HOOKS = {
    "pda.verify_pda": _verify_pda,
    "packing.verify_nhsdp": _half_sum_pairs,
    "packing.half_sum_set": _half_sum_pairs,
    "designs.verify_phf": _verify_phf,
    "schemes.tradeoff_sweep": _tradeoff_sweep,
    "simulate.place": _place,
    "simulate.deliver": _deliver,
}


def _hook_for(name: str):
    if name in HOOKS:
        return HOOKS[name]
    layer, _, func = name.partition(".")
    if layer == "serialize" and ("_from_" in func or func == "load_pda"):
        return _serialize_read
    if layer == "serialize" and "_to_" in func:
        return _serialize_write
    return None


class Tracer:
    """Collects spans and counters for the layer functions while installed."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.ok = array("b")
        self._stack = [-1]
        self.op = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.probes: list[tuple] = []  # (open spans, next span, op, start, end)
        self._bindings = self._collect_bindings()
        self._probe_id = self._name_id(PROBE_SPAN)

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def layer_of_span(self, i: int) -> str | None:
        return None if i < 0 else self.span_names[self.names[i]].partition(".")[0]

    def record_probe(self, start: float, end: float) -> None:
        """Keep a speed probe, run from a signal handler, as its own span.

        The handler can interrupt a wrapper between reading the clock and
        storing the reading, so it only notes the open spans and the span
        being opened; ``columns`` picks the parent from the final timestamps.
        """
        self.probes.append((tuple(self._stack), len(self.starts), self.op, start, end))

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _collect_bindings(self):
        """(owner, attribute, original, wrapper) for every rebinding to make."""
        originals = {}  # function object -> span name
        classmethods = []  # (class, attribute, classmethod object, span name)
        for layer in LAYERS:
            mod = importlib.import_module(f"nhsdp.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = f"{layer}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for cattr, cobj in vars(obj).items():
                        if isinstance(cobj, classmethod) and not cattr.startswith("_"):
                            classmethods.append((obj, cattr, cobj, f"{layer}.{attr}.{cattr}"))
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nhsdp" or mod_name.startswith("nhsdp.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    bindings.append((mod, attr, obj, wrappers[obj]))
        for cls, attr, cm, name in classmethods:
            bindings.append((cls, attr, cm, classmethod(self._wrap(cm.__func__, name))))
        return bindings

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        count_id = self._name_id(COUNT_SPAN)
        hook = _hook_for(name)
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, ok, stack = self.starts, self.ends, self.ok, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            ops.append(self.op)
            ends.append(0.0)
            ok.append(1)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                ok[i] = 0
                stack.pop()
                raise
            ends[i] = clock()
            stack.pop()
            if hook is not None:
                j = len(names)
                names.append(count_id)
                parents.append(parent)
                ops.append(self.op)
                ends.append(0.0)
                ok.append(1)
                stack.append(j)
                starts.append(clock())
                hook(self, i, args, result)
                ends[j] = clock()
                stack.pop()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped attribute for the duration of the block."""
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)

    def _probe_rows(self) -> list[tuple[int, int, float, float]]:
        """(parent, op, start, end) of every probe inside a traced CLI call.

        The parent is the innermost candidate span whose interval contains
        the probe; a probe between CLI calls has none and is dropped.
        """
        rows = []
        n = len(self.starts)
        for stack, pending, op, start, end in self.probes:
            inside = [i for i in (*stack, pending) if 0 <= i < n
                      and self.starts[i] <= start and end <= self.ends[i]]
            if inside:
                rows.append((max(inside, key=lambda i: self.starts[i]), op, start, end))
        return rows

    def columns(self) -> dict[str, np.ndarray]:
        """Every span as columns; the probe spans come last."""
        probes = np.array(self._probe_rows(), dtype=np.float64).reshape(-1, 4)
        n = len(probes)

        def col(arr, dtype, extra):
            return np.concatenate([np.frombuffer(arr, dtype=dtype), extra.astype(dtype)])

        return {
            "name": col(self.names, np.int32, np.full(n, self._probe_id)),
            "parent": col(self.parents, np.int32, probes[:, 0]),
            "op": col(self.ops, np.int32, probes[:, 1]),
            "start": col(self.starts, np.float64, probes[:, 2]),
            "end": col(self.ends, np.float64, probes[:, 3]),
            "ok": col(self.ok, np.int8, np.ones(n)),
        }

    def write(self, path) -> None:
        """Write every span, plus the name table, as one ``.npz`` file."""
        np.savez(path, names=np.array(self.span_names), **self.columns())

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        ``<layer>.self_s`` is span time minus child-span time, summed over the
        layer; together with ``trace.count_s`` (counter hooks) and
        ``trace.probe_s`` (speed probes) these add up to ``trace.wall_s``, the
        summed time of the root ``cli.main`` spans.  ``<fn>_s`` figures are
        inclusive span times of one function.
        """
        cols = self.columns()
        name, parent, ok = cols["name"], cols["parent"], cols["ok"]
        dur = cols["end"] - cols["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - child
        n_names = len(self.span_names)
        by_name = np.bincount(name, weights=dur, minlength=n_names)
        self_by_name = np.bincount(name, weights=self_time, minlength=n_names)
        ids = self._name_ids

        def incl(fn):
            return float(by_name[ids[fn]]) if fn in ids else 0.0

        def ms_pct(fn, q):
            if fn not in ids:
                return 0.0
            d = dur[name == ids[fn]]
            return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

        def count(fn, only_ok=None):
            if fn not in ids:
                return 0
            sel = name == ids[fn]
            if only_ok is not None:
                sel &= ok == int(only_ok)
            return int(sel.sum())

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                float(self_by_name[i]) for n, i in ids.items() if n.partition(".")[0] == layer
            )
        for span, key in ((COUNT_SPAN, "trace.count_s"), (PROBE_SPAN, "trace.probe_s")):
            m[key] = float(self_by_name[ids[span]]) if span in ids else 0.0
        m["trace.wall_s"] = float(dur[~nested].sum())
        m["trace.spans"] = dur.size
        m["cli.calls"] = count("cli.main")

        m["simulate.deliver_s"] = incl("simulate.deliver")
        m["simulate.decode_s"] = incl("simulate.decode")
        m["simulate.place_s"] = incl("simulate.place")
        for fn, key in (("simulate.deliver", "deliver"), ("simulate.decode", "decode")):
            m[f"simulate.{key}_ms_p50"] = ms_pct(fn, 50)
            m[f"simulate.{key}_ms_p90"] = ms_pct(fn, 90)
        sweep = ids.get("simulate.exhaustive_demand_check")
        m["simulate.sweep_self_s"] = 0.0 if sweep is None else float(self_by_name[sweep])
        m["simulate.demands"] = count("simulate.deliver", True)
        m["simulate.users_decoded"] = count("simulate.decode", True)
        m["simulate.decode_failures"] = count("simulate.decode", False)

        for fn in ("transcript_to_json", "load_pda", "pda_to_text"):
            m[f"serialize.{fn}_s"] = incl(f"serialize.{fn}")
        m["serialize.json_s"] = sum(
            float(by_name[i]) for n, i in ids.items() if n.startswith("serialize.") and "json" in n
        )

        for fn in ("verify_pda", "conjugate_pda", "group_pda_divisible", "pda_stats",
                   "pda_from_nhsdp"):
            m[f"pda.{fn}_s"] = incl(f"pda.{fn}")
        for fn in ("solve_problem1_exact", "ds_search", "construct_nhsdp", "verify_nhsdp"):
            m[f"packing.{fn}_s"] = incl(f"packing.{fn}")
        m["schemes.tradeoff_sweep_s"] = incl("schemes.tradeoff_sweep")
        for fn in ("verify_phf", "phf_from_ntap", "ntap_construct"):
            m[f"designs.{fn}_s"] = incl(f"designs.{fn}")

        for counter in COUNTERS:
            m[counter] = self.counters.get(counter, 0)
        verify_s = m["pda.verify_pda_s"]
        m["pda.pairs_per_s"] = m["pda.symbol_pairs"] / verify_s if verify_s else 0.0
        return m

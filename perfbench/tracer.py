"""Spans and counts at tspga's layer boundaries, recorded from outside.

The traced run replaces each layer's public functions with timing wrappers
under the name the caller looks them up by: the modules use
``from .x import f``, so ``ga.variation`` and ``operators.variation`` are
separate bindings and each call site is patched where it resolves. A span is
(id, parent id, name, start, end); spans stay in memory and are written out
when the run ends. RngStream methods get counting wrappers only, because a
span per scalar draw would cost more than the draw.

Process-pool workers forked while the tracer is installed inherit the
wrappers. A fork hook empties the child's copy of the parent's spans and
counts, and the child appends its own to files in the trace directory each
time its outermost span closes, since pool workers exit without running
cleanup handlers. Spans in a worker keep the parent's open span as their
parent, so a comparison's cells nest under its run_comparison span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import is_permutation

SPAN_DTYPE = np.dtype(
    [("id", "<i8"), ("parent", "<i8"), ("name", "<i4"), ("start", "<f8"), ("end", "<f8")]
)


def _count_variation(counts, args, result):
    counts["operators.children"] += result.tours.shape[0]


def _count_one(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_dm(counts, args, result):
    counts["tsplib.dm_bytes"] += result.nbytes


def _count_tour_lengths(counts, args, result):
    counts["tsplib.tours_scored"] += len(result)


def _count_comparison(counts, args, result):
    cfg = args[0]
    counts["experiment.cells"] += cfg.runs * len(cfg.operators)


def _count_csv(counts, args, result):
    counts["experiment.csv_bytes"] += os.path.getsize(args[1])


def _count_evolve(tour_length):
    """Count generations and check every cell the wrapper sees.

    tour_length is the unwrapped tsplib function, so checking a cell adds
    nothing to the tsplib spans or counts.
    """

    def count(counts, args, result):
        counts["ga.generations"] += result.generations_run
        dm = args[1]
        bests = [rec.best_so_far for rec in result.trace]
        ok = (
            is_permutation(result.best_tour, dm.shape[0])
            and tour_length(dm, result.best_tour) == result.best_length
            and all(a >= b for a, b in zip(bests, bests[1:]))
            and (not bests or bests[-1] == result.best_length)
        )
        counts["check.cells"] += 1
        counts["check.cells_failed"] += 0 if ok else 1

    return count


def traced_functions(tsplib) -> dict:
    """Span name -> count callback (or None) of every traced function.

    Span names are "<layer>.<function>", the layer being the module that
    defines the function, whichever module calls it. tsplib is the unwrapped
    module, whose tour_length checks cells.
    """
    mutate_count = _count_one("operators.mutate_calls")
    evaluate_count = _count_one("population.evaluate_calls")
    return {
        "cli.main": None,
        "experiment.run_comparison": _count_comparison,
        "experiment.emit_convergence_csv": _count_csv,
        "ga.evolve": _count_evolve(tsplib.tour_length),
        "operators.variation": _count_variation,
        "operators.wheel_index": None,
        "operators.crossover_ox": _count_one("operators.crossover_ox_calls"),
        "operators.mutate_rsm": mutate_count,
        "operators.mutate_psm": mutate_count,
        "operators.mutate_hprm": mutate_count,
        "population.init_population": None,
        "population.evaluate": evaluate_count,
        "tsplib.load_instance": None,
        "tsplib.load_tour": None,
        "tsplib.parse_instance": None,
        "tsplib.parse_tour": None,
        "tsplib.build_distance_matrix": _count_dm,
        "tsplib.tour_length": _count_one("tsplib.tours_scored"),
        "tsplib.tour_lengths": _count_tour_lengths,
    }


def call_sites(traced) -> list:
    """(module, attribute, span name) for every binding of a traced function.

    Scans every loaded tspga module for functions defined in tspga whose
    span name is in ``traced``, under whatever attribute they are bound, so
    a new ``from .x import f`` is traced where it resolves.
    """
    sites = []
    for modname, module in sorted(sys.modules.items()):
        if modname != "tspga" and not modname.startswith("tspga."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType) and value.__module__.startswith("tspga."):
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if name in traced:
                    sites.append((module, attr, name))
    missing = set(traced) - {name for _, _, name in sites}
    if missing:
        print(f"tracer: no binding of {', '.join(sorted(missing))}; those metrics read 0", file=sys.stderr)
    return sites


class Tracer:
    """Installs the wrappers, holds spans and counts, writes them out."""

    def __init__(self, tspga, child_dir: Path):
        self._tspga = tspga
        self._child_dir = Path(child_dir)
        self.names: list[str] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._ids, self._parents = array("q"), array("q")
        self._names, self._starts, self._ends = array("i"), array("d"), array("d")
        self._stack: list[int] = []
        self._seq = 0
        self._id_base = os.getpid() << 32
        self._in_child = False
        self._base_depth = 0
        self._child_file = ""
        self._restore: list[tuple[object, str, object]] = []
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        traced = traced_functions(self._tspga.tsplib)
        for module, attr, name in call_sites(traced):
            self._patch(module, attr, self._wrap(getattr(module, attr), self._name_index(name), traced[name]))
        self._install_rng_counts()
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name_index: int, count):
        tracer = self
        stack = self._stack
        ids, parents, names = self._ids, self._parents, self._names
        starts, ends = self._starts, self._ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            tracer._seq += 1
            sid = tracer._id_base + tracer._seq
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                names.append(name_index)
                starts.append(t0)
                ends.append(t1)
            if count is not None:
                count(tracer.counts, args, result)
            if tracer._in_child and len(stack) == tracer._base_depth:
                tracer._flush_child()
            return result

        return traced

    def _install_rng_counts(self) -> None:
        cls = self._tspga.rng.RngStream
        counts = self.counts
        random, randint = cls.random, cls.randint
        random_array, permutation = cls.random_array, cls.permutation

        def counted_random(rng):
            counts["rng.scalar_calls"] += 1
            counts["rng.values_drawn"] += 1
            return random(rng)

        def counted_randint(rng, lo, hi):
            counts["rng.scalar_calls"] += 1
            counts["rng.values_drawn"] += 1
            return randint(rng, lo, hi)

        def counted_random_array(rng, k):
            counts["rng.array_calls"] += 1
            counts["rng.values_drawn"] += int(k)
            return random_array(rng, k)

        def counted_permutation(rng, n):
            counts["rng.array_calls"] += 1
            counts["rng.values_drawn"] += int(n)
            return permutation(rng, n)

        self._patch(cls, "random", counted_random)
        self._patch(cls, "randint", counted_randint)
        self._patch(cls, "random_array", counted_random_array)
        self._patch(cls, "permutation", counted_permutation)

    # -- forked workers ---------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        pid = os.getpid()
        self._in_child = True
        self._base_depth = len(self._stack)
        self._id_base = pid << 32
        self._seq = 0
        self._child_file = str(self._child_dir / f"child-{pid}-{os.urandom(4).hex()}")
        for key in self.counts:
            self.counts[key] = 0
        self._clear_spans()

    def _clear_spans(self) -> None:
        for column in (self._ids, self._parents, self._names, self._starts, self._ends):
            del column[:]

    def _flush_child(self) -> None:
        with open(self._child_file + ".spans", "ab") as f:
            self._span_array().tofile(f)
        Path(self._child_file + ".counts.json").write_text(json.dumps(self.counts))
        self._clear_spans()

    # -- reading out ------------------------------------------------------

    def _span_array(self) -> np.ndarray:
        out = np.empty(len(self._ids), dtype=SPAN_DTYPE)
        out["id"], out["parent"], out["name"] = self._ids, self._parents, self._names
        out["start"], out["end"] = self._starts, self._ends
        return out

    def total_counts(self) -> dict[str, int]:
        """This process's counts plus those flushed so far by forked workers."""
        total = dict(self.counts)
        for path in sorted(self._child_dir.glob("child-*.counts.json")):
            for key, value in json.loads(path.read_text()).items():
                total[key] = total.get(key, 0) + value
        return total

    def spans(self) -> np.ndarray:
        """Every span recorded so far, this process's and its workers'."""
        parts = [self._span_array()]
        for path in sorted(self._child_dir.glob("child-*.spans")):
            parts.append(np.fromfile(path, dtype=SPAN_DTYPE))
        return np.concatenate(parts)

    def write(self, path: Path) -> None:
        """Write all spans and the span-name table to one .npz file."""
        np.savez(path, spans=self.spans(), names=np.array(self.names))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_times(spans: np.ndarray, names: list[str]) -> dict:
    """Inclusive time per span name and self time per layer.

    A layer's self time is the time inside its spans not covered by spans
    of other layers nested in them. Nested spans of the same layer merge
    into the outermost one, so each instant counts once for a layer.
    Children that overlap (cells run by two workers under one comparison)
    are covered as the union of their intervals, so waiting on workers is
    the comparison's self time. Also returns the operators layer's self
    time inside variation, reported as operators.variation_s.
    """
    layers = sorted({layer_of(n) for n in names})
    name_layer = np.array([layers.index(layer_of(n)) for n in names], dtype=np.int64)
    if spans.size == 0:
        return {"by_name": {}, "layer_self": {}, "variation_self": 0.0}
    sp = spans[np.argsort(spans["start"], kind="stable")]
    n = sp.size
    start, end, name = sp["start"], sp["end"], sp["name"]
    dur = end - start

    by_id = np.argsort(sp["id"])
    pos = np.clip(np.searchsorted(sp["id"][by_id], sp["parent"]), 0, n - 1)
    pidx = np.where(sp["id"][by_id][pos] == sp["parent"], by_id[pos], -1)

    layer = name_layer[name]
    idx = np.arange(n)
    has_parent = pidx >= 0
    same_layer = has_parent & (layer[np.maximum(pidx, 0)] == layer)
    group = np.where(same_layer, pidx, idx)
    while True:
        nxt = group[group]
        if np.array_equal(nxt, group):
            break
        group = nxt
    entry = group == idx

    # Union of each group's cross-layer children. Offsetting every group's
    # times by its rank times the longest span keeps one running maximum
    # from carrying over between groups.
    child = entry & has_parent
    owner = group[pidx[child]]
    cs = start[child] - start[owner]
    ce = end[child] - start[owner]
    order = np.lexsort((cs, owner))
    owner, cs, ce = owner[order], cs[order], ce[order]
    _, rank = np.unique(owner, return_inverse=True)
    shift = rank * (float(dur.max()) + 1.0)
    cs, ce = cs + shift, ce + shift
    reach = np.concatenate(([-np.inf], np.maximum.accumulate(ce)[:-1])) if ce.size else ce
    covered = np.maximum(0.0, ce - np.maximum(cs, reach))
    cover = np.bincount(owner, weights=covered, minlength=n)
    self_time = np.where(entry, dur - cover, 0.0)

    name_total = np.bincount(name, weights=dur, minlength=len(names))
    layer_total = np.bincount(layer, weights=self_time, minlength=len(layers))
    variation = names.index("operators.variation") if "operators.variation" in names else -1
    return {
        "by_name": {names[i]: float(name_total[i]) for i in range(len(names))},
        "layer_self": {layers[i]: float(layer_total[i]) for i in range(len(layers))},
        "variation_self": float(self_time[entry & (name == variation)].sum()),
    }

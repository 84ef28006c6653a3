"""Outside-in tracing of knotquiver's public functions.

The benchmark wraps the public names listed in ``WRAPPED`` from its own
code, so that per-layer self times and work counts need no change to the
library.  Spans are kept in memory as ``[name, start, end, parent, error]``
and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module under knotquiver, public name, layer).  Every name must exist:
# a refactor that drops one must fail the traced run, not lose a layer.
WRAPPED = [
    ("cli", "main", "cli.self"),
    ("corpus", "load_corpus", "corpus.load"),
    ("diagram", "parse_pd", "diagram.parse"),
    ("diagram", "LinkDiagram.validate", "diagram.parse"),
    ("quiver", "build_quiver", "quiver.build"),
    ("quiver", "build_potential", "quiver.build"),
    ("oracle", "alexander_det", "oracle.det"),
    ("verify", "verify_diagram", "verify.self"),
    ("verify", "segment_pipeline", "verify.self"),
    ("states", "enumerate_states", "states.enumerate"),
    ("states", "build_lattice", "states.lattice"),
    ("states", "state_sum_alexander", "states.statesum"),
    ("reps", "state_module", "reps.state_module"),
    ("reps", "link_module", "reps.link_module"),
    ("reps", "enumerate_submodules", "reps.submodules"),
    ("reps", "lattice_iso_check", "reps.iso_check"),
    ("reps", "compute_partition", "reps.partition"),
    ("reps", "t_direct", "reps.partition"),
    ("reps", "check_relations", "reps.relations"),
    ("poly", "MultiPoly.from_vectors", "poly.fpoly"),
    ("poly", "MultiPoly.specialize", "poly.fpoly"),
    ("poly", "MultiPoly.from_json", "poly.from_json"),
    ("poly", "LaurentPoly.from_json", "poly.from_json"),
    ("cache", "RunCache.get", "cache.get"),
    ("cache", "RunCache.put", "cache.put"),
]

# work done per call, read from the result: counter name -> (span name, count)
COUNTERS = {
    "states.states": ("states.enumerate_states", len),
    "states.covers": ("states.build_lattice", lambda lat: len(lat.covers)),
    "reps.submodules": ("reps.enumerate_submodules", lambda ml: ml.size),
    "reps.submodule_covers": ("reps.enumerate_submodules", lambda ml: len(ml.covers)),
    "cache.hits": ("cache.RunCache.get", lambda hit: int(hit is not None)),
    "cache.misses": ("cache.RunCache.get", lambda hit: int(hit is None)),
}


class MissingName(LookupError):
    """A name the tracer wraps is no longer defined by the library."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counters = [(c, f) for c, (span, f) in COUNTERS.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                span[2] = perf_counter()
            for counter, count in counters:
                self.counts[counter].append(count(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in ``WRAPPED`` wherever knotquiver binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "knotquiver" or key.startswith("knotquiver.")
        ]
        for module_name, attr, _layer in WRAPPED:
            module = sys.modules.get(f"knotquiver.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(method) if owner is not None else None
            if raw is None:
                self.uninstall()
                raise MissingName(f"knotquiver.{module_name}.{attr} no longer exists")
            name = f"{module_name}.{attr}"
            if owner_name:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                setattr(owner, method, wrapped)
                self._restore.append((owner, method, raw))
                continue
            wrapped = self._wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, raw))

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore.clear()

    def work_signature(self) -> str:
        """Digest of every call count and per-call work count, in call order."""
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        data = {"calls": calls, "counts": self.counts}
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _err in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for k, (name, start, end, _parent, _err) in enumerate(spans):
        out[name] += end - start - child[k]
    return dict(out)


LAYER_OF = {f"{m}.{a}": layer for m, a, layer in WRAPPED}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and work counts of one traced pass."""
    by_layer: dict[str, float] = defaultdict(float)
    for name, seconds in self_times(tracer.spans).items():
        by_layer[LAYER_OF[name]] += seconds
    calls: dict[str, int] = defaultdict(int)
    undefined = 0
    for name, _start, _end, _parent, err in tracer.spans:
        calls[name] += 1
        if name == "reps.compute_partition" and err == "PartitionUndefinedError":
            undefined += 1
    out = {f"{layer}_s": by_layer.get(layer, 0.0) for layer in sorted(set(LAYER_OF.values()))}
    out.update(
        {
            "reps.relations_calls": calls["reps.check_relations"],
            "reps.state_modules": calls["reps.state_module"],
            "reps.partition_undefined": undefined,
            "states.enumerate_calls": calls["states.enumerate_states"],
            "oracle.det_calls": calls["oracle.alexander_det"],
        }
    )
    out.update({c: sum(tracer.counts.get(c, ())) for c in COUNTERS})
    return out

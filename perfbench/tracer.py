"""Spans and counters around the public entry points of the engine modules.

`Tracer.install()` replaces functions and methods of grpverify.perm,
smallgroup, construct, lattice and autmorph with wrappers that record a
span (name, start, end, parent) or bump a counter.  It must run before
grpverify.claims or grpverify.cli is imported: both bind names such as
`subgroup_classes` at import time, and a wrapper installed later would
never be called from them.

Spans are kept in flat arrays in memory and written out once, by the
benchmark, when the run ends.  A span's self time is its duration minus
the time covered by its direct children; every `<module>.<fn>_s` metric
is a sum of self times, so the metrics of one run add up instead of
counting nested work twice.
"""

from __future__ import annotations

import functools
import time
from array import array

# (module, attribute or "Class.method", span name)
SPANS = (
    ("construct", "build", "construct.build"),
    ("construct", "GroupHandle.materialized", "construct.materialize"),
    ("perm", "PermGroup.__init__", "perm.schreier_sims"),
    ("smallgroup", "MaterializedGroup.close", "smallgroup.close"),
    ("smallgroup", "MaterializedGroup.conjugacy_classes",
     "smallgroup.conjugacy_classes"),
    ("smallgroup", "MaterializedGroup.normal_closure", "smallgroup.normal_closure"),
    ("smallgroup", "MaterializedGroup.centralizer", "smallgroup.centralizer"),
    ("smallgroup", "MaterializedGroup.normalizer", "smallgroup.normalizer"),
    ("lattice", "subgroup_classes", "lattice.subgroup_classes"),
    ("lattice", "all_subgroups", "lattice.all_subgroups"),
    ("lattice", "sweep_bound", "lattice.sweep_bound"),
    ("lattice", "normal_subgroups", "lattice.normal_subgroups"),
    ("lattice", "j_analysis", "lattice.j_analysis"),
    ("lattice", "quotient", "lattice.quotient"),
    ("lattice", "sub_materialized", "lattice.sub_materialized"),
    ("autmorph", "automorphism_group", "autmorph.automorphism_group"),
    ("autmorph", "find_isomorphism", "autmorph.find_isomorphism"),
    ("autmorph", "is_characteristic", "autmorph.is_characteristic"),
    ("autmorph", "chermak_delgado", "autmorph.chermak_delgado"),
)

# span names whose calls are reported as a count as well as a time
CALL_COUNTS = {
    "construct.build": "construct.build_calls",
    "smallgroup.close": "smallgroup.close_calls",
    "autmorph.automorphism_group": "autmorph.automorphism_group_calls",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        # plain counters, bumped by the wrappers below
        self.counts = {
            "perm.compose_calls": 0,
            "smallgroup.mul_calls": 0,
            "construct.build_hits": 0,
            "construct.materialized_elements": 0,
            "lattice.classes_found": 0,
            "lattice.subgroups_found": 0,
        }
        self._seen: dict[int, object] = {}  # results already counted, by id

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(result) runs after each call."""
        nid = self._intern(name)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _first_time(self, obj) -> bool:
        """True the first time this object is returned by a wrapped call."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj  # keep it alive so its id stays unique
        return True

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the engine's entry points; call before importing claims/cli."""
        import importlib

        from grpverify import perm, smallgroup

        counts = self.counts

        def on_build(handle):
            if not self._first_time(handle):
                counts["construct.build_hits"] += 1

        def on_materialized(m):
            if self._first_time(m):
                counts["construct.materialized_elements"] += m.n

        def counting(key):
            def on_list(result):
                if self._first_time(result):
                    counts[key] += len(result)
            return on_list

        hooks = {
            "construct.build": on_build,
            "construct.materialize": on_materialized,
            "lattice.subgroup_classes": counting("lattice.classes_found"),
            "lattice.all_subgroups": counting("lattice.subgroups_found"),
        }
        for mod_name, attr, span in SPANS:
            mod = importlib.import_module(f"grpverify.{mod_name}")
            owner = mod
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(mod, cls_name)
            setattr(owner, attr,
                    self.spanned(span, getattr(owner, attr), hooks.get(span)))

        compose = perm.compose

        def counted_compose(a, b):
            counts["perm.compose_calls"] += 1
            return compose(a, b)

        perm.compose = counted_compose
        mul = smallgroup.MaterializedGroup.mul

        def counted_mul(self, i, j):
            counts["smallgroup.mul_calls"] += 1
            return mul(self, i, j)

        smallgroup.MaterializedGroup.mul = counted_mul

    # -- export and summary -------------------------------------------------

    def export(self) -> dict:
        """Spans and counters as plain lists, for a pipe or a trace file."""
        return {
            "names": list(self.names),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counts": dict(self.counts),
        }


def merge(parts: list[dict]) -> dict:
    """Concatenate exported traces; each part becomes its own request."""
    names: list[str] = []
    ids: dict[str, int] = {}
    out = {"names": names, "name": [], "start": [], "end": [], "parent": [],
           "request": [], "counts": {}}
    for req, part in enumerate(parts):
        base = len(out["name"])
        remap = []
        for n in part["names"]:
            if n not in ids:
                ids[n] = len(names)
                names.append(n)
            remap.append(ids[n])
        out["name"].extend(remap[i] for i in part["name"])
        out["start"].extend(part["start"])
        out["end"].extend(part["end"])
        out["parent"].extend(p + base if p >= 0 else -1 for p in part["parent"])
        out["request"].extend([req] * len(part["name"]))
        for k, v in part["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
    return out


def span_stats(trace: dict) -> dict:
    """name -> [self seconds, total seconds, calls] over a (merged) trace."""
    names, name, start, end, parent = (trace["names"], trace["name"],
                                       trace["start"], trace["end"],
                                       trace["parent"])
    covered = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    stats: dict[str, list] = {}
    for i, nid in enumerate(name):
        dur = end[i] - start[i]
        s = stats.setdefault(names[nid], [0.0, 0.0, 0])
        s[0] += dur - covered[i]
        s[1] += dur
        s[2] += 1
    return stats


def closes_inside_subgroup_classes(trace: dict) -> int:
    """close calls made, directly or not, from inside subgroup_classes."""
    names, name, parent = trace["names"], trace["name"], trace["parent"]
    if "lattice.subgroup_classes" not in names or "smallgroup.close" not in names:
        return 0
    sc = names.index("lattice.subgroup_classes")
    close = names.index("smallgroup.close")
    # parents are recorded before their children, so one forward pass works
    inside = [False] * len(name)
    n = 0
    for i, p in enumerate(parent):
        inside[i] = p >= 0 and (inside[p] or name[p] == sc)
        n += inside[i] and name[i] == close
    return n


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run: self times, counts, ratios."""
    stats = span_stats(trace)
    counts = trace["counts"]
    out = {f"{span}_s": stats.get(span, [0.0])[0] for _, _, span in SPANS}
    for span, key in CALL_COUNTS.items():
        out[key] = stats.get(span, [0, 0, 0])[2]
    for key in ("construct.materialized_elements", "perm.compose_calls",
                "smallgroup.mul_calls", "lattice.classes_found",
                "lattice.subgroups_found"):
        out[key] = counts.get(key, 0)
    builds = out["construct.build_calls"]
    out["construct.cache_hit_ratio"] = (
        counts.get("construct.build_hits", 0) / builds if builds else 0.0)
    closes = closes_inside_subgroup_classes(trace)
    out["lattice.classes_per_close"] = (
        out["lattice.classes_found"] / closes if closes else 0.0)
    return out

"""Per-layer metrics from the spans that tracer.py records.

A span's self time is its duration minus that of its direct children.  A
name's inclusive time counts only spans with no ancestor of the same
group, so recursion and nested entry points (``lp_separate`` calling
``feasibility_certificate``) are not counted twice.  Every value is per
traced pass.

Which end-to-end metric each layer metric should move:

  homlinalg.snf_factor.*          wall_s on homology and kgroups
  homlinalg.snf_transform.*, homlinalg.lift.s, homlinalg.complex_check.s,
  cyclicbar.*, simplicialx.*      wall_s (and peak_rss_mb) on homology
  homlinalg.lp.*, polytopelab.*   wall_s on polytope
  wittlab.*                       wall_s on kgroups
  semigroup.s, cli.self_s         wall_s everywhere
"""

from __future__ import annotations

# metric name -> unit, in report order
PER_LAYER = {
    "homlinalg.snf_factor.s": "s",
    "homlinalg.snf_factor.calls": "count",
    "homlinalg.snf_factor.nnz_in": "count",
    "homlinalg.snf_transform.s": "s",
    "homlinalg.snf_transform.calls": "count",
    "homlinalg.lift.s": "s",
    "homlinalg.complex_check.s": "s",
    "homlinalg.lp.c1.s": "s",
    "homlinalg.lp.c2c3.s": "s",
    "homlinalg.lp.calls": "count",
    "homlinalg.lp.tableau_entries": "count",
    "homlinalg.lp.infeasible_frac": "ratio",
    "polytopelab.c1.self_s": "s",
    "polytopelab.c2c3.self_s": "s",
    "polytopelab.polytopes": "count",
    "polytopelab.c1_attempts_per_verdict": "ratio",
    "cyclicbar.bar_complex.s": "s",
    "cyclicbar.bar_complex.dim": "count",
    "cyclicbar.cone.s": "s",
    "cyclicbar.connes.self_s": "s",
    "simplicialx.x_complex.s": "s",
    "simplicialx.x_complex.dim": "count",
    "simplicialx.sigma.s": "s",
    "wittlab.kgroup.self_s": "s",
    "wittlab.kgroup.calls": "count",
    "wittlab.ghost.s": "s",
    "semigroup.s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

_LP = "homlinalg.lp"
_C1, _C2C3 = "polytopelab.c1", "polytopelab.c2c3"


def _group(name: str) -> str:
    return _LP if name.startswith(_LP + ".") else name


class _Totals:
    def __init__(self):
        self.incl: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.lp = {"c1": 0, "c2c3": 0, "calls": 0, "entries": 0,
                   "c2c3_feasibility": 0, "c2c3_infeasible": 0}

    def add(self, side: dict) -> None:
        names, spans = side["names"], side["spans"]
        for key, v in side["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + v
        child_ns = [0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child_ns[s[1]] += s[3] - s[2]
        # groups on the path from the root to each span, itself included;
        # parents are recorded before their children
        paths: list[frozenset] = []
        interned: dict = {}
        for i, (nid, parent, t0, t1, note) in enumerate(spans):
            name = names[nid]
            group = _group(name)
            above = paths[parent] if parent >= 0 else frozenset()
            key = (above, group)
            path = interned.get(key)
            if path is None:
                path = interned[key] = above | {group}
            paths.append(path)
            dur = t1 - t0
            self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns[i]
            self.calls[group] = self.calls.get(group, 0) + 1
            if group in above:
                continue
            self.incl[group] = self.incl.get(group, 0) + dur
            if group == _LP:
                where = "c1" if _C1 in above else "c2c3" if _C2C3 in above else None
                if where:
                    self.lp[where] += dur
                self.lp["calls"] += 1
                self.lp["entries"] += note[0] if note else 0
            if name == _LP + ".feasibility" and _C2C3 in above and note:
                self.lp["c2c3_feasibility"] += 1
                self.lp["c2c3_infeasible"] += note[1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sidecars: list[dict], passes: int) -> dict:
    """Every PER_LAYER metric except trace.overhead_frac, per traced pass.

    Times are in seconds as measured; the caller scales them.  A ratio
    whose denominator is 0 reads 0.
    """
    t = _Totals()
    for side in sidecars:
        t.add(side)

    def incl(group):
        return t.incl.get(group, 0) * 1e-9 / passes

    def own(*names):
        return sum(t.self_ns.get(n, 0) for n in names) * 1e-9 / passes

    def count(value):
        return value / passes

    return {
        "homlinalg.snf_factor.s": incl("homlinalg.snf_factor"),
        "homlinalg.snf_factor.calls": count(t.calls.get("homlinalg.snf_factor", 0)),
        "homlinalg.snf_factor.nnz_in": count(t.counters.get("snf_factor.nnz_in", 0)),
        "homlinalg.snf_transform.s": incl("homlinalg.snf_transform"),
        "homlinalg.snf_transform.calls":
            count(t.calls.get("homlinalg.snf_transform", 0)),
        "homlinalg.lift.s": own("homlinalg.lift"),
        "homlinalg.complex_check.s": own("homlinalg.complex_check"),
        "homlinalg.lp.c1.s": t.lp["c1"] * 1e-9 / passes,
        "homlinalg.lp.c2c3.s": t.lp["c2c3"] * 1e-9 / passes,
        "homlinalg.lp.calls": count(t.lp["calls"]),
        "homlinalg.lp.tableau_entries": count(t.lp["entries"]),
        "homlinalg.lp.infeasible_frac":
            _ratio(t.lp["c2c3_infeasible"], t.lp["c2c3_feasibility"]),
        "polytopelab.c1.self_s": own(_C1),
        "polytopelab.c2c3.self_s": own(_C2C3),
        "polytopelab.polytopes": count(t.counters.get("polytopes", 0)),
        "polytopelab.c1_attempts_per_verdict":
            _ratio(t.counters.get("c1.calls", 0), t.counters.get("escalate.calls", 0)),
        "cyclicbar.bar_complex.s": incl("cyclicbar.bar_complex"),
        "cyclicbar.bar_complex.dim": count(t.counters.get("bar_complex.dim", 0)),
        "cyclicbar.cone.s": incl("cyclicbar.cone"),
        "cyclicbar.connes.self_s": own("cyclicbar.connes"),
        "simplicialx.x_complex.s": incl("simplicialx.x_complex"),
        "simplicialx.x_complex.dim": count(t.counters.get("x_complex.dim", 0)),
        "simplicialx.sigma.s": incl("simplicialx.sigma"),
        "wittlab.kgroup.self_s": own("wittlab.kgroup"),
        "wittlab.kgroup.calls": count(t.counters.get("kgroup.calls", 0)),
        "wittlab.ghost.s": incl("wittlab.ghost"),
        "semigroup.s": incl("semigroup"),
        "cli.self_s": own("cli.main", "cli.cell"),
    }

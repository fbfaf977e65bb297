"""Outside-in span recorder for one `cuspk` process.

`install()` wraps public functions of each cuspk module from outside the
program and rebinds every name under which a module imported them
(``polytopelab.lp_optimize``, ``simplicialx.relative_homology_bar``,
``wittlab.snf_diagonal``, the ``cli._CELLS`` entries, ...).  Each call of a
wrapped function records one span: name, start, end, parent span and run
id.  Spans and counters stay in memory and are written once, by `dump()`.

Nothing under ``src/`` is edited; the wrappers live only in the traced
process.  Spans recorded in ``--jobs`` pool workers are not collected.
"""

from __future__ import annotations

import json
import sys
import time

_clock = time.perf_counter_ns


class Recorder:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [name_id, parent_index, start_ns, end_ns, note] per span
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, counter=None):
        """Return fn wrapped in a span.

        name is a span name, a callable (args, kwargs) -> span name, or None
        for a count-only wrapper.  counter(rec, args, kwargs, result, idx)
        runs after each call; idx is the call's span index, or -1.
        """
        spans, stack = self.spans, self._stack
        fixed = None if name is None or callable(name) else self._name_id(name)

        def wrapper(*args, **kwargs):
            if name is None:
                idx = -1
                result = fn(*args, **kwargs)
            else:
                nid = fixed if fixed is not None else self._name_id(name(args, kwargs))
                rec = [nid, stack[-1] if stack else -1, _clock(), 0, None]
                idx = len(spans)
                spans.append(rec)
                stack.append(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = _clock()
                    stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result, idx)
            return result

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "run_id": self.run_id, "names": self.names,
                       "spans": self.spans, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# what to wrap


def _snf_name(args, kwargs):
    transforms = kwargs.get("transforms", args[1] if len(args) > 1 else False)
    return "homlinalg.snf_transform" if transforms else "homlinalg.snf_factor"


def _snf_counter(rec, args, kwargs, result, idx):
    if _snf_name(args, kwargs) == "homlinalg.snf_factor":
        rec.count("snf_factor.nnz_in", args[0].nnz)


def _lp_counter(rows, cols):
    """Note [tableau rows x columns from the arguments, 1 if infeasible]."""
    def counter(rec, args, kwargs, result, idx):
        infeasible = isinstance(result, tuple) and result[0] == "infeasible"
        rec.spans[idx][4] = [rows(args) * cols(args), int(infeasible)]
    return counter


def _distinct_dim(key):
    seen = set()

    def counter(rec, args, kwargs, result, idx):
        if id(result) not in seen:
            seen.add(id(result))
            rec.count(key, sum(result.dim(q) for q in result.basis))
    return counter


def _calls(key):
    def counter(rec, args, kwargs, result, idx):
        rec.count(key)
    return counter


def _count_polytopes(rec, args, kwargs, result, idx):
    rec.count("polytopes", len(result))


def _targets():
    """(owner, attribute, span name, counter) for every wrapped callable."""
    from cuspk import (cli, cyclicbar, homlinalg, polytopelab, semigroup,
                       simplicialx, wittlab)

    H, P, C, X, W = homlinalg, polytopelab, cyclicbar, simplicialx, wittlab
    out = [
        (H, "smith_normal_form", _snf_name, _snf_counter),
        (H.HomologyEngine, "_data", "homlinalg.lift", None),
        (H.HomologyEngine, "generators", "homlinalg.lift", None),
        (H.HomologyEngine, "coordinates", "homlinalg.lift", None),
        (H.ChainComplex, "__init__", "homlinalg.complex_check", None),
        (H, "lp_optimize", "homlinalg.lp.optimize",
         _lp_counter(lambda a: len(a[1]), lambda a: len(a[0]))),
        (H, "lp_separate", "homlinalg.lp.separate",
         _lp_counter(lambda a: len(a[1]) + 1, lambda a: len(a[0]))),
        (H, "feasibility_certificate", "homlinalg.lp.feasibility",
         _lp_counter(lambda a: len(a[1]), lambda a: len(a[0]))),
        (P, "check_c1", "polytopelab.c1", _calls("c1.calls")),
        (P, "escalate", None, _calls("escalate.calls")),
        (P, "_divisor_statement", "polytopelab.c2c3", None),
        (P, "check_c2_c3", "polytopelab.c2c3", None),
        (P, "check_c4", "polytopelab.c4", None),
        (P, "run_conjecture_checks", "polytopelab.run", None),
        (P, "q_union", None, _count_polytopes),
        (C, "relative_bar_complex", "cyclicbar.bar_complex",
         _distinct_dim("bar_complex.dim")),
        (C, "relative_cone", "cyclicbar.cone", None),
        (C, "connes_factor_bar", "cyclicbar.connes", None),
        (C, "connes_factor_small", "cyclicbar.connes", None),
        (C, "ty_agreement_check", "cyclicbar.ty", None),
        (X, "x_complex", "simplicialx.x_complex", _distinct_dim("x_complex.dim")),
        (X, "build_sigma", "simplicialx.sigma", None),
        (X, "fixed_point_check", "simplicialx.sigma", None),
        (X, "conjecture_b_homology_check", "simplicialx.conjB", None),
        (W, "relative_k_group", "wittlab.kgroup", _calls("kgroup.calls")),
        (cli, "main", "cli.main", None),
    ]
    for fname in ("ghost", "unghost", "witt_F", "witt_V", "witt_mul",
                  "witt_add", "witt_neg", "witt_restrict"):
        out.append((W, fname, "wittlab.ghost", None))
    for fname in ("ell", "is_member", "truncation_S", "divide_set", "weights",
                  "bezout"):
        out.append((semigroup, fname, "semigroup", None))
    for fn in cli._CELLS.values():
        out.append((cli, fn.__name__, "cli.cell", None))
    return out


def install(run_id: int) -> Recorder:
    """Wrap every target and rebind each name that refers to it."""
    rec = Recorder(run_id)
    modules = [m for name, m in sys.modules.items()
               if name == "cuspk" or name.startswith("cuspk.")]
    for owner, attr, name, counter in _targets():
        original = getattr(owner, attr)
        wrapped = rec.wrap(original, name, counter)
        setattr(owner, attr, wrapped)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
    return rec

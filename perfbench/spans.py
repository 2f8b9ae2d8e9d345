"""Spans around the calls into each hpppt layer, recorded from outside.

The tracer replaces module-level names (for example
`hpppt.exploration.mean_shift`) with wrappers that record a span: name,
start, end and the index of the enclosing span. A call made inside the
package through such a name is therefore seen; a call the package makes
through another binding of the same function is not. Self time is a
span's duration minus the durations of its direct children.
"""

import time
from collections import defaultdict

# (module, attribute, span name): every binding through which the package
# or the benchmark reaches a traced function
TARGETS = (
    ("hpppt.solver", "solve", "solver.solve"),
    ("hpppt.lifelong", "solve", "solver.solve"),
    ("hpppt.exploration", "solve", "solver.solve"),
    ("hpppt.solver", "build_heuristic_table", "solver.build_heuristic_table"),
    ("hpppt.lifelong", "greedy_solve", "baselines.greedy"),
    ("hpppt.exploration", "greedy_solve", "baselines.greedy"),
    ("hpppt.lifelong", "blind_hpp_solve", "baselines.blind"),
    ("hpppt.exploration", "blind_hpp_solve", "baselines.blind"),
    ("hpppt.lifelong", "run_mission", "lifelong.run_mission"),
    ("hpppt.lifelong", "plan_next", "lifelong.plan_next"),
    ("hpppt.lifelong", "update", "lifelong.update"),
    ("hpppt.exploration", "run_exploration", "exploration.run"),
    ("hpppt.exploration", "reveal", "grid.reveal"),
    ("hpppt.exploration", "extract_frontiers", "grid.extract_frontiers"),
    ("hpppt.exploration", "grid_distances", "grid.grid_distances"),
    ("hpppt.grid", "grid_distances", "grid.grid_distances"),
    ("hpppt.exploration", "shortest_path_cells", "grid.shortest_path_cells"),
    ("hpppt.exploration", "assign_probability",
     "exploration.assign_probability"),
    ("hpppt.exploration", "mean_shift", "exploration.mean_shift"),
    ("hpppt.exploration", "cluster_goals", "exploration.cluster_goals"),
    ("hpppt.exploration", "build_search_graph",
     "exploration.build_search_graph"),
)

SOLVER_COUNTERS = ("expansions", "generations", "pruned_extracted",
                   "pruned_generated")


class Tracer:
    """Collects spans in memory; install() patches TARGETS, uninstall()
    restores the original functions."""

    def __init__(self, modules):
        self.modules = modules  # module name -> module object
        self.spans = []         # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.peak_open = 0
        self._stack = []
        self._saved = []

    def span(self, name, fn, /, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()
        self._count(name, args, out)
        return out

    def _count(self, name, args, out):
        if name == "solver.solve":
            st = out.stats
            for key in SOLVER_COUNTERS:
                self.counts["solver." + key] += getattr(st, key)
            self.peak_open = max(self.peak_open, st.peak_open)
        elif name == "exploration.assign_probability":
            self.counts["exploration.frontier_cells"] += len(args[1])
        elif name == "exploration.cluster_goals":
            self.counts["exploration.goals"] += len(out)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        for mod_name, attr, name in TARGETS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.peak_open = 0

    def totals(self):
        """Per span name: (calls, total seconds, self seconds, durations)."""
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            calls, total, own, each = out.get(name, (0, 0.0, 0.0, []))
            each.append(dur[i])
            out[name] = (calls + 1, total + dur[i], own + dur[i] - child[i],
                         each)
        return out

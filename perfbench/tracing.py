"""Outside-in spans for the traced benchmark run.

Nothing inside `nearcomm` knows about these spans: the tracer replaces
module attributes with timing wrappers and puts the originals back when
the run ends.  `pipeline` and `projections` import `commuting_approximation`,
`op_norm`, `band_smooth`, `partition` and `spectral_decomp` by name, so each
name is wrapped in the module that calls it.  Wrapping `nearcomm.jointdiag`
alone would see nothing, and wrapping `pipeline.commuting_approximation`
apart from `projections.commuting_approximation` is what splits block
solves from edge solves.

Spans (name, start, end, parent) stay in memory; `dump` writes them out
once the run is over.  End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _solver_attrs(args, result):
    report = getattr(result, "report", None)
    return {"sweeps": int(report.sweeps), "converged": bool(report.converged)} if report else {}


def _edge_attrs(args, result):
    # _window_core(am, bm, decomp, t, ...): the cut point t names the edge
    return {"t": float(args[3])}


def _path_attrs(args, result):
    return {"states": len(result.states)}


# (module, attribute, span name, attribute hook).  A span name shared by two
# rows is one layer reached from two callers; `@caller` keeps them apart.
WRAPS = (
    ("pipeline", "theorem_c_correct", "pipeline.theorem_c_correct", None),
    ("pipeline", "band_smooth", "kernels.band_smooth", None),
    ("pipeline", "partition", "projections.partition", None),
    ("pipeline", "tridiagonal_check", "pipeline.tridiagonal_check", None),
    ("pipeline", "commuting_approximation", "jointdiag.block", _solver_attrs),
    ("pipeline", "op_norm", "hermitian.op_norm@pipeline", None),
    ("projections", "_window_core", "projections.window_core", _edge_attrs),
    ("projections", "commuting_approximation", "jointdiag.edge", _solver_attrs),
    ("projections", "op_norm", "hermitian.op_norm@projections", None),
    ("projections", "spectral_decomp", "hermitian.spectral_decomp@projections", None),
    ("kernels", "spectral_decomp", "hermitian.spectral_decomp@kernels", None),
    ("jointdiag", "op_norm", "hermitian.op_norm@jointdiag", None),
    ("kms", "theorem_b_inequality", "kms.theorem_b_inequality", None),
    ("kms", "close_projection_isometry", "kms.close_projection_isometry", None),
    ("kms", "perturbed_functional", "kms.perturbed_functional", None),
    ("kms", "gibbs", "kms.gibbs", None),
    ("car", "quasi_free_flow", "car.quasi_free_flow", None),
    ("car.QuasiFreeFlow", "evolve", "car.evolve", None),
    ("car", "wick_unitary", "car.wick_unitary", None),
    ("measurepath", "three_point_path", "measurepath.three_point_path", _path_attrs),
)


class Tracer:
    """Span recorder that installs the WRAPS wrappers for its lifetime.

    Use as a context manager, which may be entered more than once;
    `missing` lists wrap targets that the package no longer has, so a
    renamed function shows instead of silently reading zero.
    """

    def __init__(self, *extra):
        self.spans: list = []       # [name, start, end, parent index, attrs]
        self.missing: list = []
        self._extra = extra         # more (object, attribute, span name) to wrap
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, owner, attr: str, name: str, hook):
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                record[4] = hook(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def __enter__(self):
        import nearcomm
        for owner_path, attr, name, hook in WRAPS:
            owner = nearcomm
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                target = f"{owner_path}.{attr}"
                if target not in self.missing:
                    self.missing.append(target)
                    print(f"tracing: no {target} to wrap", file=sys.stderr)
                continue
            self._wrap(owner, attr, name, hook)
        for owner, attr, name in self._extra:
            self._wrap(owner, attr, name, None)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(spans) -> dict:
    """Per-layer self times and exact counts over all recorded spans.

    Self time is a span's duration minus the durations of its child spans.
    The `rotated_s` and `diagonal_s` times are whole durations, children
    included, of the core ops' Haar-rotated and diagonal pairs, and
    `.rotated` counts only the solves made for the Haar-rotated pairs.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = {}
    total_s: dict = {}
    calls: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    # the core op's pair each span ran under: a parent precedes its children
    pair = [None] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        pair[i] = name if name.startswith("op.") and name.endswith("_pair") else (
            pair[parent] if parent >= 0 else None)

    def solver(name, under=None):
        solves = [s[4] or {} for i, s in enumerate(spans)
                  if s[0] == name and under in (None, pair[i])]
        sweeps = sum(a.get("sweeps", 0) for a in solves)
        return {
            "self_s": self_s.get(name, 0.0),
            "calls": len(solves),
            "sweeps_per_solve": sweeps / len(solves) if solves else 0.0,
            "unconverged": sum(1 for a in solves if a.get("converged") is False),
        }

    edge, block = solver("jointdiag.edge"), solver("jointdiag.block")
    edge_rotated = solver("jointdiag.edge", under="op.rotated_pair")

    # distinct cut points per partition call: a silent rebuild repeats them
    # with fresh inner solves, which raises inner_solves_per_edge
    cut_points: dict = {}
    for name, _, _, parent, attrs in spans:
        if name == "projections.window_core":
            cut_points.setdefault(parent, set()).add(attrs["t"])
    edges = sum(len(ts) for ts in cut_points.values())

    tridiag = {i for i, s in enumerate(spans) if s[0] == "pipeline.tridiagonal_check"}
    op_norm_names = [n for n in calls if n.startswith("hermitian.op_norm@")]
    decomp_names = [n for n in calls if n.startswith("hermitian.spectral_decomp@")]

    return {
        "jointdiag.edge.self_s": edge["self_s"],
        "jointdiag.edge.calls": edge["calls"],
        "jointdiag.edge.sweeps_per_solve": edge["sweeps_per_solve"],
        "jointdiag.edge.sweeps_per_solve.rotated": edge_rotated["sweeps_per_solve"],
        "jointdiag.edge.unconverged": edge["unconverged"],
        "jointdiag.block.self_s": block["self_s"],
        "jointdiag.block.calls": block["calls"],
        "jointdiag.block.sweeps_per_solve": block["sweeps_per_solve"],
        "pipeline.tridiagonal_check.self_s": self_s.get("pipeline.tridiagonal_check", 0.0),
        "pipeline.tridiagonal_check.op_norm_calls": sum(
            1 for s in spans if s[0] == "hermitian.op_norm@pipeline" and s[3] in tridiag),
        "hermitian.op_norm.self_s.pipeline": self_s.get("hermitian.op_norm@pipeline", 0.0),
        "hermitian.op_norm.calls": sum(calls[n] for n in op_norm_names),
        "hermitian.op_norm.self_s.projections": self_s.get("hermitian.op_norm@projections", 0.0),
        "hermitian.op_norm.self_s.jointdiag": self_s.get("hermitian.op_norm@jointdiag", 0.0),
        "hermitian.spectral_decomp.calls": sum(calls[n] for n in decomp_names),
        "hermitian.spectral_decomp.self_s": sum(self_s[n] for n in decomp_names),
        "projections.partition.self_s": (self_s.get("projections.partition", 0.0)
                                         + self_s.get("projections.window_core", 0.0)),
        "projections.edges": edges,
        "projections.inner_solves": edge["calls"],
        "projections.inner_solves_per_edge": edge["calls"] / edges if edges else 0.0,
        "kernels.band_smooth.self_s": self_s.get("kernels.band_smooth", 0.0),
        "pipeline.theorem_c_correct.self_s": self_s.get("pipeline.theorem_c_correct", 0.0),
        "pipeline.theorem_c_correct.rotated_s": total_s.get("op.rotated_pair", 0.0),
        "pipeline.theorem_c_correct.diagonal_s": total_s.get("op.diagonal_pair", 0.0),
        "kms.theorem_b_inequality.self_s": self_s.get("kms.theorem_b_inequality", 0.0),
        "kms.close_projection_isometry.self_s": self_s.get("kms.close_projection_isometry", 0.0),
        "kms.perturbed_functional.self_s": self_s.get("kms.perturbed_functional", 0.0),
        "kms.gibbs.self_s": self_s.get("kms.gibbs", 0.0),
        "car.quasi_free_flow.self_s": self_s.get("car.quasi_free_flow", 0.0),
        "car.evolve.self_s": self_s.get("car.evolve", 0.0),
        "car.wick_unitary.self_s": self_s.get("car.wick_unitary", 0.0),
        "measurepath.three_point_path.self_s": self_s.get("measurepath.three_point_path", 0.0),
        "measurepath.states": sum((s[4] or {}).get("states", 0) for s in spans
                                  if s[0] == "measurepath.three_point_path"),
    }

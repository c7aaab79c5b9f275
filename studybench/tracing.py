"""Spans and counts recorded around setd's public functions, from outside.

A :class:`Tracer` replaces the module attributes through which
``setd.harness`` and ``setd.integrators`` reach each layer with wrappers
that record one span per call -- name, start, end and the index of the
enclosing span -- plus the call's work counts (actions, Krylov substeps,
matvec bytes, steps). Spans live in flat in-memory arrays and are written
out once, when the run ends. Nothing in the library changes; ``uninstall``
puts every attribute back.

The run is single-threaded (study ``threads = 1``), so spans nest strictly
and a span's self time is its duration minus the summed durations of its
direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


def _matvec_bytes(op):
    """Bytes one CSR product touches, computed from nnz and n (not measured):
    values and column indices once per stored entry, the row pointers, the
    operand read once and the result written once."""
    return (op.nnz * (op.data.itemsize + op.indices.itemsize)
            + (op.n_rows + 1) * op.indptr.itemsize + 8 * (op.n_cols + op.n_rows))


class Tracer:
    """Install wrappers, record spans and counts, and reduce them to metrics."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = defaultdict(int)
        self._patched = []

    # -- recording ----------------------------------------------------------
    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span named ``name``.

        ``count(counts, args, result)`` adds the call's work counts after it
        returns; a call that raises records its span but no counts.
        """
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def install(self, setd):
        """Wrap every layer boundary the study crosses."""
        harness, integrators = setd.harness, setd.integrators

        def cell(c, args, _):
            c["harness.cells"] += 1
            c["integrators.steps"] += args[1].steps

        def reference(c, args, _):
            # the harness runs both references over every fine step of the path
            c["reference.steps"] += args[1].steps

        def action(c, _, result):
            c["krylov.actions"] += 1
            c["krylov.substeps"] += result.restarts_used + 1

        def matvec(c, args, _):
            c["sparse.matvecs"] += 1
            c["sparse.matvec_bytes_computed"] += _matvec_bytes(args[0])

        def block(c, args, _):
            c["kernels.normal_blocks"] += 1
            if args[5] == 0:
                c["kernels.stream0_blocks"] += 1

        def one(key):
            def add(c, _args, _result):
                c[key] += 1
            return add

        def make_solver(fn):
            def make(*args, **kwargs):
                return self.wrap("integrators.solve", fn(*args, **kwargs),
                                 one("integrators.solves"))
            return make

        self.patch(harness, "run", "integrators.run", cell)
        self.patch(harness, "make_path", "noise.make_path")
        self.patch(harness, "evolve_exact", "reference.evolve_exact", reference)
        self.patch(harness, "finest_reference", "reference.finest_reference", reference)
        self.patch(harness, "rms_l2_error", "harness.rms_l2_error")
        self.patch(harness, "fit_order", "harness.fit_order")
        self.patch(harness, "assemble_fem", "operators.assemble_fem")
        self.patch(harness, "assemble_fv", "operators.assemble_fv")
        self.patch(setd.darcy, "solve_darcy", "darcy.solve_darcy", one("darcy.solves"))
        self.patch(integrators, "phi0_action", "krylov.phi0_action", action)
        self.patch(integrators, "phi1_action", "krylov.phi1_action", action)
        self.patch(integrators, "sample_increment", "noise.sample_increment",
                   one("noise.increments"))
        original = integrators.make_implicit_solver
        self._patched.append((integrators, "make_implicit_solver", original))
        integrators.make_implicit_solver = self.wrap(
            "integrators.make_implicit_solver", make_solver(original),
            one("integrators.factors"))
        self.patch(setd.sparse.SparseOperator, "matvec", "sparse.matvec", matvec)
        self.patch(setd.kernels, "normal_block", "kernels.normal_block", block)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------
    def mark(self):
        """A position in the span arrays, to reduce one round at a time."""
        return len(self.start), dict(self.counts)

    def span_arrays(self, lo=0, hi=None):
        hi = len(self.start) if hi is None else hi
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        t0 = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        t1 = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        return ids, par, t0, t1

    def by_name(self, lo=0, hi=None):
        """{span name: (calls, inclusive seconds, self seconds)} over [lo, hi)."""
        ids, par, t0, t1 = self.span_arrays(lo, hi)
        dur = t1 - t0
        n = len(dur)
        inner = par >= lo
        child = np.bincount(par[inner] - lo, weights=dur[inner], minlength=n)[:n]
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        excl = np.bincount(ids, weights=self_t, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def save(self, path, lo=0, hi=None):
        """Write spans [lo, hi) with times from the first of them; parent
        indices stay those of the full table (-1 for a top-level span)."""
        ids, par, t0, t1 = self.span_arrays(lo, hi)
        origin = t0[0] if len(t0) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            parent=np.where(par >= lo, par - lo, -1),
                            start=t0 - origin, end=t1 - origin)


def layer_metrics(spans, counts):
    """Per-layer metrics of one round from its span table and its counts."""
    def incl(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def excl(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    actions = counts.get("krylov.actions", 0)
    matvecs = counts.get("sparse.matvecs", 0)
    out = {
        "krylov.actions": (actions, "count"),
        "krylov.action_s": (incl("krylov.phi0_action", "krylov.phi1_action"), "s"),
        "krylov.self_s": (excl("krylov.phi0_action", "krylov.phi1_action"), "s"),
        "krylov.substeps": (counts.get("krylov.substeps", 0), "count"),
        "krylov.substeps_per_action": (
            counts.get("krylov.substeps", 0) / actions if actions else 0.0,
            "substeps/action"),
        "sparse.matvecs": (matvecs, "count"),
        "sparse.matvec_s": (incl("sparse.matvec"), "s"),
        "sparse.matvecs_per_action": (matvecs / actions if actions else 0.0,
                                      "matvecs/action"),
        "sparse.matvec_bytes_computed": (counts.get("sparse.matvec_bytes_computed", 0), "B"),
        "noise.increments": (counts.get("noise.increments", 0), "count"),
        "noise.increment_s": (incl("noise.sample_increment"), "s"),
        "kernels.normal_blocks": (counts.get("kernels.normal_blocks", 0), "count"),
        "kernels.stream0_blocks": (counts.get("kernels.stream0_blocks", 0), "count"),
        "kernels.normal_block_s": (incl("kernels.normal_block"), "s"),
        "integrators.steps": (counts.get("integrators.steps", 0), "count"),
        "integrators.self_s": (excl("integrators.run"), "s"),
        "integrators.solves": (counts.get("integrators.solves", 0), "count"),
        "integrators.factors": (counts.get("integrators.factors", 0), "count"),
        "reference.steps": (counts.get("reference.steps", 0), "count"),
        "reference.self_s": (excl("reference.evolve_exact", "reference.finest_reference"), "s"),
        "harness.cells": (counts.get("harness.cells", 0), "count"),
        "harness.cell_s": (incl("integrators.run"), "s"),
        "harness.reduce_s": (incl("harness.rms_l2_error", "harness.fit_order"), "s"),
        "operators.assemble_s": (incl("operators.assemble_fem", "operators.assemble_fv"), "s"),
        "darcy.solves": (counts.get("darcy.solves", 0), "count"),
    }
    # Times of layers that some workloads never enter: reported in the run
    # record, not as metrics, since they read exactly 0 there.
    extra = {
        "integrators.solve_s": incl("integrators.solve"),
        "integrators.factor_s": incl("integrators.make_implicit_solver"),
        "darcy.solve_s": incl("darcy.solve_darcy"),
        "reference.incl_s": incl("reference.evolve_exact", "reference.finest_reference"),
    }
    return out, extra

"""Span recording around the library's layer boundaries, from outside ``src/``.

A :class:`Tracer` replaces callables with timing wrappers at the names their
callers look up (``recon`` imports ``build_surrogate`` by name, so the wrapper
goes on ``spultra.recon.build_surrogate``, and so on). Each span records its
name, start, end and parent span; spans stay in memory and are summarised or
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    """Records nested spans for one workload run (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.subset_gradient_bytes = 0.0
        self.nonpositive_frac = None
        self._labels = None
        self.labels_changed = 0
        self.labels_base = 0

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper; ``name`` may be a function of the call's arguments.
        ``before(args)`` runs inside the span first; ``after(result, args)``
        runs once the span is closed, so neither is charged to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = len(self.spans)
            self.spans.append([label, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, owner, attr, name, **hooks):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    # -- probes --------------------------------------------------------------

    def _reset_labels(self, _args):
        self._labels = None

    def _count_label_changes(self, state, _args):
        labels = state.labels
        if self._labels is not None and self._labels.shape == labels.shape:
            self.labels_changed += int((self._labels != labels).sum())
            self.labels_base += labels.size
        self._labels = labels.copy()

    def _subset_bytes(self, _result, args):
        """Bytes one subset gradient streams, computed from the CSR arrays:
        the subset block is read twice (A_s x and A_s^T r), plus x, the
        gathered y/w/residual and the output image."""
        system, s = args[0], args[1]
        a = system.sub[s]
        matrix = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        vectors = 8 * (2 * a.shape[1] + 3 * a.shape[0])
        self.subset_gradient_bytes += 2 * matrix + vectors

    def _record_nonpositive(self, fraction, _args):
        self.nonpositive_frac = float(fraction)

    def install_stages(self, pipeline):
        """Wrap the pipeline stages only; an untraced run times nothing else."""
        for stage in ("simulate", "learn", "evaluate"):
            self.patch(pipeline, f"stage_{stage}", f"pipeline.stage_{stage}")
        self.patch(pipeline, "stage_reconstruct",
                   lambda cfg, out, method: f"pipeline.stage_reconstruct.{method}",
                   before=self._reset_labels)

    def install_layers(self, spultra):
        """Wrap the traced callables of every layer below the pipeline."""
        pipeline, recon = spultra.pipeline, spultra.recon
        spstats, sim = spultra.spstats, spultra.sim

        for owner in (spstats, sim, recon):
            self.patch(owner, "forward_project", "geometry.forward_project")
        for owner in (pipeline, recon):
            self.patch(owner, "post_log_convert", "spstats.post_log_convert")
        self.patch(recon, "build_surrogate", "spstats.build_surrogate")
        self.patch(recon, "neg_log_likelihood", "spstats.neg_log_likelihood")

        cls = recon.SubsetSystem
        self.patch(cls, "__init__", "recon.SubsetSystem.init")
        self.patch(cls, "subset_gradient", "recon.SubsetSystem.subset_gradient",
                   after=self._subset_bytes)
        self.patch(cls, "gram_diag", "recon.SubsetSystem.gram_diag")
        self.patch(recon.UltraQuadReg, "grad", "recon.UltraQuadReg.grad")
        self.patch(recon.EdgePreservingReg, "grad", "recon.EdgePreservingReg.grad")
        self.patch(recon, "os_lalm_image_update", "recon.os_lalm_image_update")
        self.patch(recon, "compute_kappa", "geometry.compute_kappa")
        self.patch(pipeline, "fbp_reconstruct", "recon.fbp_reconstruct")

        self.patch(recon, "sparse_code_and_cluster", "ultra.sparse_code_and_cluster",
                   after=self._count_label_changes)
        self.patch(recon, "regularizer_value", "ultra.regularizer_value")
        self.patch(recon, "regularizer_majorizer_diag", "ultra.regularizer_majorizer_diag")
        self.patch(recon, "extract_patches", "ultra.extract_patches")
        self.patch(recon, "accumulate_patches", "ultra.accumulate_patches")
        self.patch(pipeline, "learn_transforms", "ultra.learn_transforms")

        self.patch(pipeline, "simulate_prelog", "sim.simulate_prelog")
        self.patch(pipeline, "nonpositive_fraction", "sim.nonpositive_fraction",
                   after=self._record_nonpositive)

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """The duration of every finished span called ``name``, in call order."""
        return [end - start for label, start, end, _parent in self.spans
                if label == name and end is not None]

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total minus
        the time covered by direct children), plus each name's total inside
        every top-level pipeline stage."""
        per = {}
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stage_of = []  # the top-level span (a pipeline stage) each span runs under
        for name, _start, _end, parent in self.spans:
            stage_of.append(name if parent < 0 else stage_of[parent])
        within: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            rec = per.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            stage = within.setdefault(stage_of[i], {})
            stage[name] = stage.get(name, 0.0) + end - start
        if "recon.SubsetSystem.subset_gradient" in per:
            per["recon.SubsetSystem.subset_gradient"]["gb_computed"] = \
                self.subset_gradient_bytes / 1e9
        return {"per_name": per, "within_stage": within,
                "nonpositive_frac": self.nonpositive_frac,
                "labels_changed": self.labels_changed, "labels_base": self.labels_base}

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

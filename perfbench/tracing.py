"""Span tracing of morkit's public functions, installed from outside.

Wrappers replace each traced function in every ``morkit`` namespace that
holds it, because a module that did ``from .fom import fom_solve`` keeps its
own binding and would otherwise bypass the wrapper. Methods are wrapped on
their class. Spans live in memory as ``(name, parent, start, end)`` tuples;
the parent index makes self time computable. Nothing here is imported by an
untraced run.
"""

import functools
import json
import os
import sys
import time

# (module, attribute path) of every traced callable; methods as "Class.method"
TRACED = [
    ("fom", "assemble_thermal_block"),
    ("fom", "assemble_gaussian_poisson"),
    ("fom", "fom_solve"),
    ("fom", "solve_gaussian_poisson"),
    ("fom", "nonlinear_solve"),
    ("fom", "AffineSystem.gram_solve"),
    ("fom", "NonlinearFom.jacobian"),
    ("rb", "greedy"),
    ("rb", "project"),
    ("rb", "rom_solve"),
    ("rb", "save_rom"),
    ("rb", "load_rom"),
    ("certification", "build_coercivity_model"),
    ("certification", "riesz_offline"),
    ("certification", "residual_dual_norm"),
    ("certification", "coercivity_lb"),
    ("certification", "error_bounds"),
    ("certification", "CertifiedErrorEstimator.delta_function"),
    ("interpolation", "eim_build"),
    ("interpolation", "mdeim_build"),
    ("interpolation", "mdeim_reconstruct"),
    ("interpolation", "mdeim_nonlinear_solve"),
    ("linalg", "solve"),
    ("linalg", "orthonormalize"),
    ("linalg", "svd"),
    ("morphing", "read_point_cloud"),
    ("morphing", "write_point_cloud"),
    ("morphing", "morph_from_descriptor"),
    ("morphing", "deform"),
    ("morphing", "ffd_weights"),
    ("morphing", "idw_weights"),
    ("morphing", "ffd_deform"),
    ("morphing", "idw_deform"),
    ("active_subspaces", "sample_gradients"),
    ("active_subspaces", "estimate_subspace"),
    ("active_subspaces", "export_summary_csv"),
    ("cli", "main"),
]

# file-path argument whose size is recorded as the span's byte count
_BYTES_ARG = {"morphing.read_point_cloud", "morphing.write_point_cloud"}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.bytes = {name: 0 for name in _BYTES_ARG}
        self._stack = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        byte_counts = self.bytes if name in _BYTES_ARG else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end)
                if byte_counts is not None and os.path.exists(args[0]):
                    byte_counts[name] += os.path.getsize(args[0])

        return wrapper

    def install(self):
        """Replace every traced callable in all loaded morkit namespaces."""
        import morkit

        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "morkit" or key.startswith("morkit.")]
        for module_name, attr in TRACED:
            module = getattr(morkit, module_name)
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def aggregate(self):
        """calls, total seconds and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for module, attr in TRACED:
            base = f"{module}.{attr}"
            out[f"{base}.calls"] = 0
            out[f"{base}.s"] = 0.0
            out[f"{base}.self_s"] = 0.0
        for sid, (name, parent, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[sid]
        for name, count in self.bytes.items():
            out[f"{name}.bytes"] = count
        return out

    def dump(self, path, meta):
        """Write the spans recorded so far as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "parent", "start", "end"],
                       "spans": self.spans}, fh)

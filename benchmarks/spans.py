"""Span timers for the traced run, kept outside the package.

`Tracer.install` replaces each name a module imports from another module
(and a few public functions other code calls by their module-level name)
with a wrapper that times the call as a span. Spans are aggregated in memory
per (phase, span name): call count, total time, and self time, which is the
total minus the time of spans nested inside it. `uninstall` puts every
original back, so untraced rounds run the package unmodified.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from checks import ANGLE_LIMIT

# (module, attribute, span name): the calls that cross a module boundary,
# including the benchmark's own calls through the package namespace.
PATCHES = (
    ("rotmole", "forward", "adapter.forward"),
    ("rotmole", "backward", "autograd.backward"),
    ("rotmole.trainer", "sample_batch", "synth.sample_batch"),
    ("rotmole.trainer", "forward", "adapter.forward"),
    ("rotmole.trainer", "backward", "autograd.backward"),
    ("rotmole.trainer", "zero_gradients", "autograd.zero_gradients"),
    ("rotmole.trainer", "trainable_params", "adapter.trainable_params"),
    ("rotmole.autograd", "forward", "adapter.forward"),
    ("rotmole.autograd", "backward", "autograd.backward"),
    ("rotmole.autograd", "zero_gradients", "autograd.zero_gradients"),
    ("rotmole.autograd", "finite_diff_grad", "autograd.finite_diff_grad"),
    ("rotmole.autograd", "trainable_params", "adapter.trainable_params"),
    ("rotmole.autograd", "sigmoid", "numkit.sigmoid"),
    ("rotmole.autograd", "rotation_matrix_2d", "rotation.rotation_matrix_2d"),
    ("rotmole.adapter", "softmax", "numkit.softmax"),
    ("rotmole.adapter", "sigmoid", "numkit.sigmoid"),
    ("rotmole.adapter", "matvec", "numkit.matvec"),
    ("rotmole.adapter", "build_plane", "rotation.build_plane"),
    ("rotmole.adapter", "apply_rotation", "rotation.apply_rotation"),
    ("rotmole.adapter", "rotation_matrix_2d", "rotation.rotation_matrix_2d"),
    ("rotmole.synth", "target_output", "synth.target_output"),
    ("rotmole.synth", "build_plane", "rotation.build_plane"),
    ("rotmole.synth", "apply_rotation", "rotation.apply_rotation"),
)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = defaultdict(int)  # exact event counts
        self._stack: list[list[float]] = []
        self._saved: list = []

    def wrap(self, name: str, fn, phase: str | None = None, inspect=None):
        """Time `fn` as span `name`; `phase` switches the phase for its duration."""
        stack, stats = self._stack, self.stats

        def span(*args, **kwargs):
            outer = self.phase
            if phase is not None:
                self.phase = phase
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                entry = stats[(self.phase, name)]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[0]
                self.phase = outer
            if inspect is not None:
                inspect(result)
            return result

        span.__wrapped__ = fn
        return span

    def _count_degenerate(self, plane) -> None:
        if plane.degenerate:
            self.counts["rotation.degenerate_planes"] += 1

    def _count_clamped(self, result) -> None:
        _, cache = result
        for t in cache.decision.theta:
            if abs(t) >= ANGLE_LIMIT:
                self.counts["adapter.clamped_angles"] += 1

    def install(self) -> None:
        inspectors = {
            "rotation.build_plane": self._count_degenerate,
            "adapter.forward": self._count_clamped,
        }
        for module_name, attr, span_name in PATCHES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, inspect=inspectors.get(span_name)))
        rng_cls = sys.modules["rotmole.numkit"].Rng
        self._saved.append((rng_cls, "normals", rng_cls.normals))
        rng_cls.normals = self.wrap("numkit.Rng.normals", rng_cls.normals)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def get(self, phase: str | None, name: str) -> tuple[int, float, float]:
        """(calls, total s, self s) of span `name`, in one phase or summed over all."""
        calls = total = own = 0.0
        for (ph, nm), (c, t, s) in self.stats.items():
            if nm == name and (phase is None or ph == phase):
                calls, total, own = calls + c, total + t, own + s
        return int(calls), total, own

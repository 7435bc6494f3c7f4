"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of the traced modules, and
every public method (plus ``__call__``) of the classes they define, with a
wrapper that counts calls and sums wall time. Functions that other eventqa
modules imported by name are replaced there too, so ``pipeline`` calling
``load_checkpoint`` is seen. ``uninstall`` puts the originals back, so an
untraced stretch of the same process runs the program's own code only.

Two scopes narrow some counters:

* fine-tuning steps: calls made while ``pipeline.run_training`` runs inside
  ``pipeline.train_stage`` (the autodiff op counters and the step count);
* generation: calls made while ``lm.ToyLm.generate`` runs (decode calls per
  generate).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

from eventqa.lm import EOS

TRACED_MODULES = ("autodiff", "nn", "codec", "encoder", "connector", "lm",
                  "optim", "qa", "metrics", "checkpoint", "data", "pipeline")

STEP_OUTER = "pipeline.train_stage"
STEP_INNER = "pipeline.run_training"
GENERATE = "lm.ToyLm.generate"
ACCUMULATE = "autodiff.Tensor.accumulate_grad"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.step_calls: dict[str, int] = {}
        self.step_seconds: dict[str, float] = {}
        self.decode_in_generate = 0
        self.grad_copies = 0
        self.tokens_generated = 0
        self._depth = {STEP_OUTER: 0, STEP_INNER: 0, GENERATE: 0}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        if self._patches:
            return
        originals: dict[int, tuple] = {}   # id(function) -> (function, wrapper)
        for short in TRACED_MODULES:
            module = sys.modules[f"eventqa.{short}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{short}.{name}", obj)
                    originals[id(obj)] = (obj, wrapper)
                    self._patch(module, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(f"{short}.{name}", obj)
        # names bound by ``from .x import f`` in other eventqa modules
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("eventqa.") or module is None:
                continue
            for name, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, name, hit[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        was_on = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if was_on:
                self.install()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            key = f"{prefix}.{name}"
            if isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(self._wrap(key, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(key, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, name, self._wrap(key, raw))

    def _wrap(self, key: str, fn):
        calls, seconds = self.calls, self.seconds
        step_calls, step_seconds = self.step_calls, self.step_seconds
        depth = self._depth
        scoped = key in depth
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if scoped:
                depth[key] += 1
            if key == ACCUMULATE and args[0].grad is None:
                tracer.grad_copies += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if scoped:
                    depth[key] -= 1
                calls[key] = calls.get(key, 0) + 1
                seconds[key] = seconds.get(key, 0.0) + elapsed
                if depth[STEP_OUTER] and depth[STEP_INNER]:
                    step_calls[key] = step_calls.get(key, 0) + 1
                    step_seconds[key] = step_seconds.get(key, 0.0) + elapsed
                if depth[GENERATE] and key == "lm.ToyLm.decode":
                    tracer.decode_in_generate += 1
            if key == GENERATE:
                tracer.tokens_generated += _emitted_tokens(result[1])
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # ------------------------------------------------------------------
    # read-out

    def mean(self, key: str, scale: float) -> float:
        """Mean wall time per call of ``key``, times ``scale``."""
        n = self.calls.get(key, 0)
        if not n:
            raise KeyError(f"{key} was never called in the traced run")
        return self.seconds[key] / n * scale

    def table(self) -> dict:
        return {key: {"calls": self.calls[key],
                      "total_ms": self.seconds[key] * 1e3}
                for key in sorted(self.calls)}


def _emitted_tokens(distributions) -> int:
    """Tokens greedy decoding emitted, EOS included, from the step
    distributions ``generate`` returns (argmax per row until EOS)."""
    if not distributions:
        return 0
    done = None
    total = 0
    for probs in distributions:
        live = probs.shape[0] if done is None else int((~done).sum())
        total += live
        picked = probs.argmax(axis=-1) == EOS
        done = picked if done is None else (done | picked)
    return total

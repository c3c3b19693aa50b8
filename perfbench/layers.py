"""Per-layer wall-clock spans, recorded from outside the program.

:class:`LayerTracer` wraps each layer's public functions (the table in
:data:`LAYERS`) with a timing span while it is installed, and restores
the originals afterwards. A layer's *self time* is the duration of its
spans minus the part covered by spans nested inside them, so the self
times of all layers plus the uncovered rest add up to the traced wall
time. The wrappers only read the clock: they change no argument, return
value or exception, which the benchmark proves by requiring the traced
run's digests to equal the untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: (layer, module, class or None for module functions, attribute names)
LAYERS = (
    ("server.loop", "repro.server.loop", "EventLoop", ("run",)),
    ("server.frontend", "repro.server.frontend", "FileServer", ("_dispatch",)),
    ("server.policies", "repro.server.policies", "FIFOQueue", ("push", "pop")),
    ("server.policies", "repro.server.policies", "DRRQueue", ("push", "pop")),
    ("server.clients", "repro.server.clients", "LoadGenerator", ("on_complete",)),
    ("vfs", "repro.vfs", "FileSystemView", ("open",)),
    ("vfs", "repro.vfs", "FileHandle", ("read", "write", "fsync", "close")),
    ("core.namespace", "repro.core.filesystem", "LFS",
     ("create", "mkdir", "exists", "stat", "write_inum", "read_inum")),
    ("core.flush", "repro.core.filesystem", "LFS", ("flush",)),
    ("core.segments", "repro.core.segments", "LogWriter", ("append",)),
    ("core.cleaner", "repro.core.cleaner", "Cleaner", ("clean",)),
    ("core.checkpoint", "repro.core.filesystem", "LFS", ("checkpoint",)),
    ("core.inode_map", "repro.core.inode_map", "InodeMap", ("version_of", "get")),
    ("core.seg_usage", "repro.core.seg_usage", "SegmentUsageTable",
     ("clean_count", "add_live", "remove_live")),
    ("core.nvstage", "repro.core.filesystem", "LFS", ("sync", "fsync")),
    ("disk.nvram", "repro.disk.nvram", "NVMDevice", ("append_record",)),
    ("disk.device", "repro.disk.device", "Disk",
     ("write_blocks", "read_block", "read_blocks")),
    ("obs", "repro.obs.observation", "Observation", ("emit",)),
    ("simulator", "repro.simulator.batch", None, ("run_fleet",)),
    ("core.recovery", "repro.core.filesystem", "LFS", ("mount",)),
    ("tools.lfsck", "repro.tools.lfsck", None, ("check_filesystem",)),
    ("torture.oracle", "repro.torture.oracle", None,
     ("snapshot_namespace", "verify_recovered")),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

#: layers whose every span duration is kept, for percentiles
KEEP_DURATIONS = ("server.frontend",)


class LayerTracer:
    """Installs and removes the span wrappers; accumulates per layer."""

    def __init__(self) -> None:
        #: layer -> [calls, self_ns, inclusive_ns]
        self.totals = {layer: [0, 0, 0] for layer in LAYER_NAMES}
        #: layer -> every span duration in ns (only KEEP_DURATIONS)
        self.durations = {layer: [] for layer in KEEP_DURATIONS}
        # One child-time accumulator per open span, innermost last.
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("layer wrappers are already installed")
        for layer, module_name, class_name, attrs in LAYERS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if class_name is None:
                    self._wrap_function(layer, module, attr)
                else:
                    self._wrap_method(layer, getattr(module, class_name), attr)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` the benchmark spent inside the open span out of
        that span's self time."""
        if self._stack:
            self._stack[-1] += int(seconds * 1e9)

    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, layer: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]  # KeyError: the layer table is stale
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span(layer, raw.__func__))
        elif isinstance(raw, property):
            wrapped = property(self._span(layer, raw.fget), raw.fset, raw.fdel, raw.__doc__)
        else:
            wrapped = self._span(layer, raw)
        self._patch(cls, attr, wrapped)

    def _wrap_function(self, layer: str, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapped = self._span(layer, original)
        # ``from module import fn`` copies the binding, so every loaded
        # module of the program holding the same object is patched too.
        for name, other in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and other is not None:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, wrapped)

    def _span(self, layer: str, fn):
        if inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn):
            raise TypeError(f"{fn.__qualname__} returns before its work is done")
        totals = self.totals[layer]
        durations = self.durations.get(layer)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed - stack.pop()
                totals[2] += elapsed
                if stack:
                    stack[-1] += elapsed
                if durations is not None:
                    durations.append(elapsed)

        return span

"""Per-layer tracing from outside the program.

The tracer wraps each layer's public entry points (class attributes and
module functions, restored on :meth:`Tracer.uninstall`) and
``Kernel.spawn``.  Nothing inside ``src/`` knows it is being traced.

**Self time.**  The simulator is cooperative and single-threaded, so at
every instant exactly one frame is running: the kernel's dispatch loop,
or the innermost wrapped call of the process the kernel is stepping.
Each process gets its own frame stack, rooted at the layer that defines
its generator (a spawned cleaner worker is ``ftl.cleaner`` time, a
die-queue worker ``nand`` time).  The tracer reads the clock at every
frame push, pop and process switch and charges the interval to the
frame on top.  That is "span time minus child spans" for a scheduler
whose spans suspend: a suspended generator is not on the running stack,
so its idle time is charged to whatever ran instead.  The self times of
all layers therefore add up to the traced host time by construction,
which :func:`check_self_times` verifies.

**Spans.**  Entry points flagged ``span=True`` also record a span: name,
op id, parent span, and start/end in both host and simulated time.  A
client op's spans share its op id; processes spawned during an op
inherit it.  Spans live in typed arrays in memory and are written out
once, by :meth:`Tracer.write_spans`, after the run.

**Calls.**  :func:`profile_calls` runs a callable under cProfile and sums
the Python call counts per layer by source file.  Those counts are
deterministic for a given seed.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import inspect
import os
import pstats
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layers in report order, with the source files (under ``src/repro``)
#: that define them; a name ending in ``/`` stands for a whole package.
#: A file not listed belongs to no layer.
LAYER_FILES: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/kernel.py", "sim/resources.py"),
    "nand": ("nand/device.py", "nand/chip.py", "nand/queue.py"),
    "ftl.log": ("ftl/log.py",),
    "ftl.cleaner": ("ftl/cleaner.py", "ftl/validity.py"),
    "ftl.map": ("ftl/btree.py", "ftl/mapcache.py"),
    "ftl.vsl": ("ftl/vsl.py",),
    "core": ("core/iosnap.py", "core/cow_bitmap.py", "core/epoch_index.py",
             "core/snaptree.py"),
    "core.activation": ("core/activation.py", "core/residue.py"),
    "replicate": ("replicate/", "core/diff.py"),
    "bench": (),
}
LAYERS: Tuple[str, ...] = tuple(LAYER_FILES)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def layer_of_file(path: str) -> Optional[str]:
    """The layer a source file belongs to, or None."""
    path = os.path.abspath(path)
    if os.path.dirname(path) == BENCH_DIR:
        return "bench"
    norm = path.replace(os.sep, "/")
    marker = "/repro/"
    at = norm.rfind(marker)
    if at < 0:
        return None
    rel = norm[at + len(marker):]
    for layer, files in LAYER_FILES.items():
        for name in files:
            if rel == name or name.endswith("/") and rel.startswith(name):
                return layer
    return None


class _Stack:
    """One process's frame stack (layer indices and open span ids)."""

    __slots__ = ("layers", "spans", "op")

    def __init__(self, layer: int, op: int) -> None:
        self.layers: List[int] = [layer]
        self.spans: List[int] = [-1]
        self.op = op


class Tracer:
    """Installs layer wrappers and accumulates self time and spans."""

    #: Spans kept per accounting period; later ones are only counted.
    MAX_SPANS = 2_000_000

    def __init__(self) -> None:
        self.index = {name: i for i, name in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.calls: Dict[str, int] = {}
        self.kernel: Any = None
        self.span_names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.col_name = array("i")
        self.col_op = array("q")
        self.col_parent = array("q")
        self.col_host = array("d")
        self.col_host_end = array("d")
        self.col_sim = array("q")
        self.col_sim_end = array("q")
        self.spans_dropped = 0
        self._span_floor = 0
        self._kernel_stack = _Stack(self.index["sim"], -1)
        self._cur = self._kernel_stack
        self._last = perf_counter()
        self._started = self._last
        self._patched: List[Tuple[Any, str, Any]] = []
        self._gen_layer: Dict[str, int] = {}
        self._gen_code: Any = None
        # Observers: callbacks a workload registers to see entry-point
        # arguments and results (sim-time waits, counts).  name -> fn.
        self.on_enter: Dict[str, Callable[..., Any]] = {}
        self.on_exit: Dict[str, Callable[..., Any]] = {}

    # -- clock and stacks ----------------------------------------------------
    def _charge(self) -> float:
        now = perf_counter()
        self.self_s[self._cur.layers[-1]] += now - self._last
        self._last = now
        return now

    def set_op(self, op: int) -> None:
        """Tag spans the running process records from now on with ``op``."""
        self._cur.op = op

    def reset_clock(self) -> None:
        """Start a fresh accounting period: self times and call counts
        to zero, earlier spans no longer reported."""
        self._charge()
        self.self_s = [0.0] * len(LAYERS)
        for label in self.calls:
            self.calls[label] = 0
        self._span_floor = len(self.col_name)
        self._started = self._last

    def elapsed(self) -> float:
        """Host seconds since :meth:`reset_clock`, on the tracer's clock."""
        return self._charge() - self._started

    def _push(self, layer: int, name: str, span: bool):
        now = self._charge()
        cur = self._cur
        sid = -1
        if span:
            if len(self.col_name) - self._span_floor < self.MAX_SPANS:
                sid = len(self.col_name)
                name_id = self._name_ids.get(name)
                if name_id is None:
                    name_id = self._name_ids[name] = len(self.span_names)
                    self.span_names.append(name)
                self.col_name.append(name_id)
                self.col_op.append(cur.op)
                self.col_parent.append(cur.spans[-1])
                self.col_host.append(now)
                self.col_host_end.append(0.0)
                sim_now = self.kernel.now if self.kernel is not None else 0
                self.col_sim.append(sim_now)
                self.col_sim_end.append(sim_now)
            else:
                self.spans_dropped += 1
        cur.layers.append(layer)
        cur.spans.append(sid)
        return cur, len(cur.layers) - 1, sid

    def _pop(self, token) -> None:
        now = self._charge()
        stack, depth, sid = token
        if sid >= 0:
            self.col_host_end[sid] = now
            if self.kernel is not None:
                self.col_sim_end[sid] = self.kernel.now
        if len(stack.layers) - 1 == depth:
            stack.layers.pop()
            stack.spans.pop()
        elif depth < len(stack.layers):
            # Unwound out of order (a generator closed by the garbage
            # collector): drop this frame and anything left above it.
            del stack.layers[depth:]
            del stack.spans[depth:]

    # -- wrapping ------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, span: bool = True) -> None:
        """Replace ``owner.attr`` with a traced version (layer taken from
        the function's source file)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        func = original
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr}: static/class method")
        layer_name = layer_of_file(inspect.getsourcefile(func) or "")
        if layer_name is None:
            raise ValueError(f"{attr} is defined outside every layer")
        layer = self.index[layer_name]
        label = getattr(func, "__qualname__", attr)
        self.calls.setdefault(label, 0)
        tracer = self
        enter = self.on_enter.get(label)
        leave = self.on_exit.get(label)

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                tracer.calls[label] += 1
                token = tracer._push(layer, label, span)
                state = enter(*args, **kwargs) if enter is not None else None
                try:
                    result = yield from func(*args, **kwargs)
                    if leave is not None:
                        leave(state, result, *args, **kwargs)
                    return result
                finally:
                    tracer._pop(token)
            self._gen_layer[label] = layer
            if self._gen_code is None:
                self._gen_code = traced.__code__
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                tracer.calls[label] += 1
                token = tracer._push(layer, label, span)
                state = enter(*args, **kwargs) if enter is not None else None
                try:
                    result = func(*args, **kwargs)
                    if leave is not None:
                        leave(state, result, *args, **kwargs)
                    return result
                finally:
                    tracer._pop(token)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_spawn(self, kernel_cls: Any) -> None:
        """Wrap ``Kernel.spawn`` so each process steps on its own stack,
        rooted at the layer that defines its generator."""
        original = kernel_cls.__dict__["spawn"]
        tracer = self
        bench = self.index["bench"]
        sim = self.index["sim"]

        @functools.wraps(original)
        def spawn(kernel, gen, name=""):
            tracer.calls.setdefault("Kernel.spawn", 0)
            tracer.calls["Kernel.spawn"] += 1
            token = tracer._push(sim, "Kernel.spawn", False)
            try:
                code = getattr(gen, "gi_code", None)
                if code is not None and code is tracer._gen_code:
                    layer = tracer._gen_layer.get(gen.__qualname__, bench)
                elif code is not None:
                    found = layer_of_file(code.co_filename)
                    layer = tracer.index[found] if found else bench
                else:
                    layer = bench
                stack = _Stack(layer, tracer._cur.op)
                return original(kernel, tracer._drive(gen, stack),
                                name or getattr(gen, "__name__", "process"))
            finally:
                tracer._pop(token)

        self._patched.append((kernel_cls, "spawn", original))
        kernel_cls.spawn = spawn

    def _drive(self, gen, stack: _Stack):
        """Step ``gen`` with ``stack`` as the running stack."""
        value = None
        error: Optional[BaseException] = None
        while True:
            outer = self._cur
            self._charge()
            self._cur = stack
            try:
                if error is not None:
                    yielded = gen.throw(error)
                else:
                    yielded = gen.send(value)
            except StopIteration as stop:
                self._charge()
                self._cur = outer
                return stop.value
            except BaseException:  # lint: allow-broad-except(restores the running stack, then re-raises unchanged)
                self._charge()
                self._cur = outer
                raise
            self._charge()
            self._cur = outer
            error = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # lint: allow-broad-except(forwarded into the traced generator, as the kernel would)
                error, value = exc, None

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------------
    def span_count(self) -> int:
        return len(self.col_name) - self._span_floor

    def span_sim_ns(self, name: str) -> List[int]:
        """Simulated durations of every finished span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [self.col_sim_end[i] - self.col_sim[i]
                for i in range(self._span_floor, len(self.col_name))
                if self.col_name[i] == name_id and self.col_host_end[i]]

    def write_spans(self, path: str) -> None:
        """Write every span as one gzipped TSV row."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\top\tparent\thost_start_s\thost_end_s"
                      "\tsim_start_ns\tsim_end_ns\n")
            base = self._started
            names = self.span_names
            for i in range(self._span_floor, len(self.col_name)):
                out.write(
                    f"{i}\t{names[self.col_name[i]]}\t{self.col_op[i]}\t"
                    f"{self.col_parent[i]}\t{self.col_host[i] - base:.9f}\t"
                    f"{self.col_host_end[i] - base:.9f}\t{self.col_sim[i]}\t"
                    f"{self.col_sim_end[i]}\n")


def check_self_times(self_s: Sequence[float], measured_s: float,
                     tolerance: float = 0.01) -> float:
    """Return the relative gap between summed self time and the traced
    run's measured host time; raise if it exceeds ``tolerance``."""
    total = sum(self_s)
    gap = abs(total - measured_s) / measured_s if measured_s > 0 else 0.0
    if gap > tolerance:
        raise RuntimeError(
            f"layer self times sum to {total:.6f}s but the traced run "
            f"measured {measured_s:.6f}s (gap {gap:.2%})")
    return gap


def profile_calls(fn: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """Run ``fn`` under cProfile; return its result and Python call
    counts per layer (functions grouped by their source file)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    counts = {layer: 0 for layer in LAYERS}
    layer_cache: Dict[str, Optional[str]] = {}
    for (filename, _line, _func), row in stats.stats.items():  # type: ignore[attr-defined]
        layer = layer_cache.get(filename, "?")
        if layer == "?":
            layer = layer_of_file(filename) if filename.endswith(".py") \
                else None
            layer_cache[filename] = layer
        if layer is not None:
            counts[layer] += row[1]  # total calls, recursive included
    return result, counts

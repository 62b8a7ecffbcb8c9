"""Per-layer tracing of pleatlab from outside the library.

A :class:`Tracer` replaces the public functions and public methods of
each layer module with timing wrappers, wherever the package holds a
reference to them: in the defining module and in every other pleatlab
module that rebound the name with ``from ... import``.  Each wrapped call
is one span ``(name, start, end, parent)`` and one count.  Everything is
restored by :meth:`Tracer.uninstall`.

Self time is a span's duration minus the part of it that its child spans
cover.  Spans opened in worker threads (the ``sweep`` thread pool) have
the main thread's open span as parent.  With the interpreter lock only
one of those threads runs at a time, so their self times are scaled by
(union of their top-level intervals) / (sum of their durations), and that
union is taken off the parent's self time.  The layer self times then add
up to the time spent inside top-level spans of the main thread.
"""

import functools
import inspect
import itertools
import threading
import zipfile
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("kernel", "words", "moebius", "chartor", "plaques", "doubling",
          "lengthmap", "suite", "cli")


class _ThreadState:
    def __init__(self, is_main, keep_spans):
        self.is_main = is_main
        self.stack = []      # frames: [span index, child time, layer]
        self.calls = {}      # count key -> calls
        self.self_s = {}     # layer -> self seconds
        self.incl_s = {}     # span name -> inclusive seconds
        self.top_s = 0.0     # seconds inside this thread's top-level spans
        self.tops = []       # worker thread: (start, end, parent layer)
        self.keep = keep_spans
        self.idx = array("i")
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Wraps the layer modules' public callables; one instance per pass.

    ``layers`` maps a layer name to its module.  ``extra`` lists further
    ``(module, attribute, layer)`` callables to wrap, such as the click
    group ``cli.main``.  ``hooks`` maps a span name to
    ``hook(call, bound_arguments, tracer)`` which must return ``call()``;
    it can record derived counts with :meth:`count`.
    """

    def __init__(self, layers, extra=(), hooks=None, keep_spans=True):
        self._layers = dict(layers)
        self._extra = tuple(extra)
        self._hooks = dict(hooks or {})
        self._keep = keep_spans
        self._tls = threading.local()
        self._states = []
        self._main = None
        self._counter = itertools.count()
        self._names = []
        self._name_ids = {}
        self._patches = []   # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _owned(self, layer, module, obj):
        owner = getattr(obj, "__module__", None)
        if owner == module.__name__:
            return True
        # The kernel layer re-exports the functions of its implementation.
        impl = getattr(module, "_impl", None)
        return layer == "kernel" and impl is not None and owner == impl.__name__

    def install(self):
        originals = {}   # id(original) -> (original, span name, layer)
        for layer, module in self._layers.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
                elif callable(obj) and self._owned(layer, module, obj):
                    originals[id(obj)] = (obj, f"{layer}.{attr}", layer)
        for module, attr, layer in self._extra:
            obj = getattr(module, attr)
            originals[id(obj)] = (obj, f"{layer}.{attr}", layer)
        # Every pleatlab module that holds one of the originals, by any name.
        for site_layer, module in self._layers.items():
            for attr, obj in list(vars(module).items()):
                entry = originals.get(id(obj))
                if entry is None or entry[0] is not obj:
                    continue
                orig, span, layer = entry
                self.patch(module, attr, self._wrapper(orig, span, layer, f"{site_layer}>{span}"))

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(raw.__func__, span, layer, span))
            elif inspect.isfunction(raw):
                wrapped = self._wrapper(raw, span, layer, span)
            else:
                continue
            self.patch(cls, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the wrapper -------------------------------------------------------

    def _state(self):
        try:
            return self._tls.state
        except AttributeError:
            is_main = threading.current_thread() is threading.main_thread()
            state = _ThreadState(is_main, self._keep)
            self._tls.state = state
            self._states.append(state)
            if is_main:
                self._main = state
            return state

    def _wrapper(self, fn, span, layer, site):
        name_id = self._name_id(span)
        hook = self._hooks.get(span)
        signature = inspect.signature(fn) if hook else None
        state_of = self._state
        counter = self._counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state_of()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif not st.is_main and tracer._main is not None and tracer._main.stack:
                parent = tracer._main.stack[-1]
            else:
                parent = None
            frame = [next(counter), 0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return hook(lambda: fn(*args, **kwargs), bound.arguments, tracer)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                else:
                    st.top_s += duration
                    if not st.is_main:
                        st.tops.append((start, end, parent[2] if parent else None))
                st.self_s[layer] = st.self_s.get(layer, 0.0) + duration - frame[1]
                st.incl_s[span] = st.incl_s.get(span, 0.0) + duration
                st.calls[site] = st.calls.get(site, 0) + 1
                if st.keep:
                    st.idx.append(frame[0])
                    st.name.append(name_id)
                    st.parent.append(parent[0] if parent else -1)
                    st.start.append(start)
                    st.end.append(end)

        return wrapper

    # -- results -----------------------------------------------------------

    def count(self, key, n=1):
        """Add ``n`` to a derived count of the calling thread."""
        st = self._state()
        st.calls[key] = st.calls.get(key, 0) + n

    def thread_calls(self):
        """Counts of the calling thread so far, keyed as in :meth:`calls`."""
        return self._state().calls

    def calls(self):
        """Calls per key, summed over threads.

        ``<layer>.<function>`` counts every call; ``<site>><layer>.<function>``
        counts the calls made through the binding held by module ``site``.
        """
        out = {}
        for st in self._states:
            for key, n in st.calls.items():
                out[key] = out.get(key, 0) + n
        for key in [k for k in out if ">" in k]:
            span = key.split(">", 1)[1]
            out[span] = out.get(span, 0) + out[key]
        return out

    def inclusive_s(self):
        """Inclusive seconds per span name, summed over threads."""
        out = {}
        for st in self._states:
            for key, value in st.incl_s.items():
                out[key] = out.get(key, 0.0) + value
        return out

    def self_seconds(self):
        """Self seconds per layer, with worker-thread time scaled as above."""
        out = dict.fromkeys(LAYERS, 0.0)
        workers = [st for st in self._states if not st.is_main]
        tops = [t for st in workers for t in st.tops]
        covered = _union_length([(s, e) for s, e, _ in tops])
        summed = sum(e - s for s, e, _ in tops)
        scale = covered / summed if summed > 0 else 0.0
        for st in self._states:
            factor = 1.0 if st.is_main else scale
            for layer, value in st.self_s.items():
                out[layer] = out.get(layer, 0.0) + factor * value
        for parent_layer in {p for _, _, p in tops if p is not None}:
            out[parent_layer] -= _union_length(
                [(s, e) for s, e, p in tops if p == parent_layer])
        return out

    def main_top_level_s(self):
        """Time the main thread spent inside top-level spans."""
        return self._main.top_s if self._main is not None else 0.0

    def write_spans(self, path):
        """Write every kept span to an ``.npz`` file of parallel arrays:
        ``idx`` and ``parent`` (span indices, -1 for none), ``name`` (an
        index into ``names``), ``start`` and ``end`` (seconds on the
        ``perf_counter`` clock).  Returns the number of spans."""
        arrays = {"names": lambda: np.array(self._names)}
        for key in ("idx", "name", "parent", "start", "end"):
            arrays[key] = lambda key=key: np.concatenate(
                [np.frombuffer(getattr(st, key), dtype=getattr(st, key).typecode)
                 for st in self._states] or [np.empty(0)])
        with zipfile.ZipFile(path, "w") as zf:
            for key, build in arrays.items():
                with zf.open(f"{key}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, build())
        return sum(len(st.idx) for st in self._states)

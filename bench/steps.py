"""Exact interpreter-step counting, charged to layers.

A *step* is one ``line`` event of ``sys.settrace`` or one ``c_call`` event
of ``sys.setprofile``.  Both repeat exactly for fixed inputs and a fixed
``PYTHONHASHSEED``, which host seconds on a shared box do not, so steps are
the benchmark's measure of what the Python costs.  Each step is charged to
the layer of the frame that executes it (for a ``c_call``, the calling
frame), so per-layer counts are self costs that sum to the total.

Steps cannot see time spent *inside* one C call: a numpy kernel over ten
elements and over ten million is one step.  ``postings.kernel_calls_per_op``
and ``postings.kernel_elems_p50`` exist to cover that blind spot.

The counter also counts calls of a few named functions (``WATCHES``), found
by source file and qualified name so that nothing under ``src/`` has to
cooperate.
"""

import dis
import sys

from bench.layers import LAYERS, LAYER_INDEX, layer_of, repro_relpath

#: watch name -> (path inside the repro package, code qualified name)
WATCHES = {
    "iter_elements": ("xmldata/tree.py", "Element.iter_elements"),
    "distance": ("dht/nodeid.py", "NodeId.distance"),
    "encoded_size": ("postings/encoder.py", "encoded_size"),
    "match_document": ("query/matcher.py", "match_document"),
    "try_start": ("sim/tasks.py", "Scheduler.run.<locals>.try_start"),
    "add_task": ("sim/tasks.py", "Scheduler.add_task"),
}
#: every public top-level function of the active kernel backend module
KERNEL_WATCH = "kernel"

_GENERATOR_FLAGS = 0x20 | 0x80 | 0x200  # generator, coroutine, async generator


def _first_resume_offset(code):
    """Offset at which a generator frame sits when it is first entered."""
    for instruction in dis.get_instructions(code):
        if instruction.opname == "RESUME":
            return instruction.offset
    return -1


class StepCounter:
    """Counts steps per layer and calls of the watched functions."""

    def __init__(self, package_dir, kernel_relpath):
        self._package_dir = package_dir
        self._kernel_relpath = kernel_relpath
        # one slot per layer plus a last slot that swallows the steps of
        # the benchmark's own frames, so the hot path needs no branch
        self.steps = [0] * (len(LAYERS) + 1)
        self.calls = dict.fromkeys(list(WATCHES) + [KERNEL_WATCH], 0)
        self._entries = {}
        self._locals = [self._make_local(i) for i in range(len(LAYERS))]

    def _make_local(self, index):
        steps = self.steps

        def local(frame, event, arg):
            if event == "line":
                steps[index] += 1
            return local

        return local

    def _classify(self, code):
        layer = layer_of(code.co_filename, self._package_dir)
        if layer is None:
            entry = (None, -1, None, -1)
        else:
            index = LAYER_INDEX[layer]
            watch = None
            rel = repro_relpath(code.co_filename, self._package_dir)
            if rel is not None:
                for name, target in WATCHES.items():
                    if target == (rel, code.co_qualname):
                        watch = name
                if (
                    rel == self._kernel_relpath
                    and "." not in code.co_qualname
                    and not code.co_qualname.startswith(("_", "<"))
                ):
                    watch = KERNEL_WATCH
            resume_at = (
                _first_resume_offset(code)
                if watch is not None and code.co_flags & _GENERATOR_FLAGS
                else -1
            )
            entry = (self._locals[index], index, watch, resume_at)
        self._entries[code] = entry
        return entry

    def _on_call(self, frame, event, arg):
        code = frame.f_code
        entry = self._entries.get(code)
        if entry is None:
            entry = self._classify(code)
        watch = entry[2]
        if watch is not None and (entry[3] < 0 or frame.f_lasti <= entry[3]):
            # a generator is entered once per resume; only the first
            # entry is a call
            self.calls[watch] += 1
        return entry[0]

    def _on_profile(self, frame, event, arg):
        if event == "c_call":
            code = frame.f_code
            entry = self._entries.get(code)
            if entry is None:
                entry = self._classify(code)
            self.steps[entry[1]] += 1

    def start(self):
        sys.setprofile(self._on_profile)
        sys.settrace(self._on_call)

    def stop(self):
        sys.settrace(None)
        sys.setprofile(None)

    def total(self):
        return sum(self.steps[:-1])

    def by_layer(self):
        return dict(zip(LAYERS, self.steps))

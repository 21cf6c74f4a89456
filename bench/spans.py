"""In-memory spans around covkit's public functions, recorded from outside.

:func:`install` wraps every target at every module (or class) that binds
it, so ``cpmaps.constrained_commutant`` and ``numlin.constrained_commutant``
both land in the same span name.  Each span is ``[name, start, end, parent,
cells]``; ``parent`` indexes the enclosing span or is -1, and ``cells`` is
rows x cols of the system a ``null_space`` call solves (0 elsewhere).  Spans
stay in memory until the worker writes them out.

Private helpers (the ``_certify_*`` family and friends) are not wrapped, so
their time stays inside the public caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

# span name -> (module, attribute path) of every public function it covers
TARGETS = {
    "numlin.null_space": [("covkit.numlin", "null_space")],
    "numlin.constrained_commutant": [("covkit.numlin", "constrained_commutant")],
    "numlin.psd_factor": [("covkit.numlin", "psd_factor")],
    "numlin.lstsq_define": [("covkit.numlin", "lstsq_define")],
    "numlin.rank": [("covkit.numlin", "rank")],
    "numlin.psd_check": [("covkit.numlin", "psd_check")],
    "fingroup.build": [
        ("covkit.fingroup", "FiniteGroup.__post_init__"),
        ("covkit.fingroup", "FiniteGroup.direct_product"),
        ("covkit.fingroup", "GroupAction.__post_init__"),
        ("covkit.fingroup", "SubgroupData.__post_init__"),
        ("covkit.fingroup", "heisenberg_rep"),
    ],
    "fingroup.validate": [
        ("covkit.fingroup", "cocycle_violation"),
        ("covkit.fingroup", "rep_violation"),
    ],
    "fingroup.irrep_decompose": [("covkit.fingroup", "irrep_decompose")],
    "cstar.coefficients": [("covkit.cstar", "FiniteCStarAlgebra.coefficients")],
    "cstar.element": [("covkit.cstar", "FiniteCStarAlgebra.element")],
    "kernels.validate_kernel": [("covkit.kernels", "validate_kernel")],
    "kernels.kolmogorov_decompose": [("covkit.kernels", "kolmogorov_decompose")],
    "kernels.kernel_extremal": [("covkit.kernels", "kernel_extremal")],
    "cpmaps.cp_validate": [("covkit.cpmaps", "cp_validate")],
    "cpmaps.ksgns": [("covkit.cpmaps", "ksgns")],
    "cpmaps.kraus_extract": [("covkit.cpmaps", "kraus_extract")],
    "cpmaps.cp_extremal": [("covkit.cpmaps", "cp_extremal")],
    "instruments.validate_observable": [("covkit.instruments", "validate_observable")],
    "instruments.validate_instrument": [("covkit.instruments", "validate_instrument")],
    "instruments.naimark": [("covkit.instruments", "naimark")],
    "instruments.lambda_from_observable": [("covkit.instruments", "lambda_from_observable")],
    "instruments.observable_extremal": [("covkit.instruments", "observable_extremal")],
    "instruments.instrument_extremal": [("covkit.instruments", "instrument_extremal")],
    "instruments.B_from_instrument": [("covkit.instruments", "B_from_instrument")],
    "instruments.instrument_from_B": [("covkit.instruments", "instrument_from_B")],
    "instruments.phase_space": [("covkit.instruments", "phase_space")],
    "instruments.sample_stream": [("covkit.instruments", "sample_stream")],
    "specfile.load": [("covkit.specfile", "load")],
    "specfile.matrix_out": [("covkit.specfile", "matrix_out")],
    "cli.main": [("covkit.cli", "main")],
}


class Recorder:
    """Owns the span list and the stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, cells=0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, cells])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens on each resumption, inside its consumer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        counts_cells = name == "numlin.null_space"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cells = 0
            if counts_cells:
                shape = np.shape(args[0] if args else kwargs["a"])
                cells = int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0
            idx = self._open(name, cells)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper


def install(recorder: Recorder):
    """Wrap every target wherever covkit binds it."""
    modules = [importlib.import_module(m) for m in sorted(sys.modules) if m.split(".")[0] == "covkit"]
    for name, targets in TARGETS.items():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(recorder.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, recorder.wrap(name, raw))
                continue
            original = getattr(owner, path)
            wrapped = recorder.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children
    (children of one span never overlap: the worker is single-threaded)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]

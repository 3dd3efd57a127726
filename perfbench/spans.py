"""Spans around every public function of `openwaring`, from outside it.

`Tracer.install` wraps each public module-level function of each layer and
rebinds the name in every `openwaring` module that holds it, so calls from
inside the program are traced too.  A span records its name, parent, start
and end (on the calibrator's clock, which leaves out kernel samples) and
whether it returned; spans live in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array

#: the program's layers, one module each
LAYERS = ("poly", "numerics", "linalg", "apolarity", "bounds", "decompose",
          "verify", "cli")

#: functions whose own time or yield is reported
TIMED = ("apolarity.base_points", "numerics.univariate_roots",
         "linalg.complex_solve_lstsq", "verify.check_decomposition",
         "linalg.kernel_basis", "cli.decomposition_record",
         "cli.decomposition_from_record")
COUNTED = ("apolarity.base_points", "decompose.conic_intersection",
           "numerics.univariate_roots", "verify.check_decomposition",
           "poly.linear_power", "apolarity.essential_variables",
           "apolarity.apolar_component", "decompose.fit_coefficients")
YIELDS = ("decompose.conic_intersection", "decompose.fit_coefficients")

#: per-layer metric names in report order, with their units
METRICS = (
    [(f"{f}.calls", "calls/op") for f in COUNTED]
    + [(f"{f}.s", "s/op") for f in TIMED]
    + [(f"{f}.yield", "ratio") for f in YIELDS]
    + [(f"{layer}.calls", "calls/op") for layer in LAYERS]
    + [(f"{layer}.self_s", "s/op") for layer in LAYERS if layer != "bounds"])

OP = "op"


class Tracer:
    def __init__(self, package, clock):
        self.package = package
        self.clock = clock
        self.names = [OP]
        self.name_ids = {OP: 0}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.returned = array("b")
        self.stack = [-1]
        self.ops = []       # root span index of each operation
        self._rebound = []  # (module, attribute, original)

    def _modules(self):
        return [self.package] + [importlib.import_module(
            f"{self.package.__name__}.{layer}") for layer in LAYERS]

    def install(self):
        wrappers = {}
        modules = self._modules()
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and callable(fn)
                        and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def _open(self, name_id):
        i = len(self.span_name)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(self.clock())
        self.end.append(0)
        self.returned.append(0)
        self.stack.append(i)
        return i

    def _close(self, i, returned):
        self.end[i] = self.clock()
        self.returned[i] = returned
        self.stack.pop()

    def _wrap(self, fn, name):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(i, 0)
                raise
            close(i, 1)
            return result
        return traced

    def begin_op(self):
        self.ops.append(self._open(0))

    def end_op(self):
        self._close(self.ops[-1], 1)

    def metrics(self, factors):
        """Per-layer metrics per operation; ``factors[k]`` converts the
        clock's seconds to calibrated seconds for operation k."""
        count = len(self.span_name)
        ops = len(self.ops)
        op_of = array("i", [0]) * count
        for k, root in enumerate(self.ops):
            op_of[root] = k
        child_ns = array("q", [0]) * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                op_of[i] = op_of[p]
                child_ns[p] += self.end[i] - self.start[i]
        layer_of = [name.split(".")[0] for name in self.names]
        calls = {}
        seconds = {}
        returns = {}
        for i in range(count):
            name = self.names[self.span_name[i]]
            if name == OP:
                continue
            layer = layer_of[self.span_name[i]]
            f = factors[op_of[i]] * 1e-9
            calls[name] = calls.get(name, 0) + 1
            calls[layer] = calls.get(layer, 0) + 1
            returns[name] = returns.get(name, 0) + self.returned[i]
            own = self.end[i] - self.start[i] - child_ns[i]
            seconds[layer] = seconds.get(layer, 0.0) + own * f
            if name in TIMED and not self._nested(i):
                seconds[name] = (seconds.get(name, 0.0)
                                 + (self.end[i] - self.start[i]) * f)
        out = {}
        for metric, _unit in METRICS:
            key, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(key, 0) / ops
            elif kind == "yield":
                out[metric] = returns.get(key, 0) / max(calls.get(key, 0), 1)
            else:
                out[metric] = seconds.get(key, 0.0) / ops
        return out

    def _nested(self, i):
        """Whether span i runs inside another span of the same name."""
        name = self.span_name[i]
        p = self.parent[i]
        while p >= 0:
            if self.span_name[p] == name:
                return True
            p = self.parent[p]
        return False

    def dump(self, path):
        """Write every span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\treturned\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.returned[i]}\n")

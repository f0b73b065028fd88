"""Spans around onersim's public functions, installed from outside ``src/``.

``install`` replaces each traced function by a wrapper in every onersim
module that holds it, so a caller that imported the name (``cli.plan``)
is traced like one that looks it up on its module (``oner.plan``).
``numpy.linalg.matrix_power`` and ``eigvalsh`` are intercepted only where
``qdyn`` calls them, through a copy of the numpy module bound to
``qdyn.np``.  Spans (name, start, end, parent span, op id) stay in memory
until the run ends; self time and per-cycle figures are derived from them.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

# span name -> (module, attribute); a dotted attribute is a class method
FUNCTIONS = {
    "oner.plan": ("onersim.oner", "plan"),
    "oner.fit_rabi": ("onersim.oner", "fit_rabi"),
    "oner.simulate_coupled": ("onersim.oner", "simulate_coupled"),
    "oner.simulate_pulsed_two_level": ("onersim.oner", "simulate_pulsed_two_level"),
    "oner.simulate_spin_effective": ("onersim.oner", "simulate_spin_effective"),
    "oner.fourier_coefficients": ("onersim.oner", "fourier_coefficients"),
    "qdyn.propagate": ("onersim.qdyn", "propagate"),
    "qdyn.propagate_modulated": ("onersim.qdyn", "propagate_modulated"),
    "qdyn.liouvillian": ("onersim.qdyn", "liouvillian"),
    "qdyn.kron": ("onersim.qdyn", "kron"),
    "qdyn.partial_trace": ("onersim.qdyn", "partial_trace"),
    "qdyn.DensityOperator": ("onersim.qdyn", "DensityOperator.__init__"),
    "spin.transition_energy": ("onersim.spin", "transition_energy"),
    "spin.transition_amplitude": ("onersim.spin", "transition_amplitude"),
    "efg.load_nqi_table": ("onersim.efg", "load_nqi_table"),
    "efg.NqiTable.interpolate": ("onersim.efg", "NqiTable.interpolate"),
    "efg.surface_mesh": ("onersim.efg", "surface_mesh"),
}
# several functions share one span name: scenario resolution, and the
# subcommand bodies whose self time is CSV assembly
GROUPS = {
    "cli.scenario": ("default_scenario", "load_scenario", "resolve_setup", "scenario_pair"),
    "cli.run": (
        "run_steady_state", "run_pulse", "run_spectrum", "run_rabi_map",
        "run_coupled", "run_efg_mesh", "ingest_report",
    ),
}
QDYN_NUMPY = {"np.matrix_power": "matrix_power", "np.eigvalsh": "eigvalsh"}

# counters carried next to the spans: substeps from the returned
# diagnostics, and the floating-point work of each step-map power
SUBSTEPS = "qdyn.n_substeps"
FLOPS = "np.matrix_power.flops_computed"


def matrix_power_flops(dim: int, n: int) -> int:
    """Real flops of numpy's binary-powering matrix_power on a complex map.

    Squarings are bit_length(n) - 1 and extra products popcount(n) - 1;
    each complex product of two dim x dim matrices costs 8 dim^3 flops.
    """
    if n < 2:
        return 0
    products = n.bit_length() - 1 + bin(n).count("1") - 1
    return 8 * dim**3 * products


def _count_substeps(counts, args, result):
    counts[SUBSTEPS] += int(result.diagnostics.n_substeps)


def _count_flops(counts, args, result):
    counts[FLOPS] += matrix_power_flops(int(args[0].shape[0]), int(args[1]))


COUNTERS = {
    "qdyn.propagate": _count_substeps,
    "qdyn.propagate_modulated": _count_substeps,
    "np.matrix_power": _count_flops,
}


class Tracer:
    """In-memory span recorder; spans nest on one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(self.counts[self.op], args, result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one op as a top-level span named "op"."""
        self.op = op_id
        return self.wrap("op", fn)(*args)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function where onersim's modules look it up."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "onersim" and m]
        targets = [(name, mod, attr) for name, (mod, attr) in FUNCTIONS.items()]
        targets += [(g, "onersim.cli", a) for g, attrs in GROUPS.items() for a in attrs]
        for name, mod_name, attr in targets:
            owner = sys.modules[mod_name]
            *cls, leaf = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._patch(owner, leaf, self.wrap(name, getattr(owner, leaf)))
                continue
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        qdyn = sys.modules["onersim.qdyn"]
        linalg = types.ModuleType("numpy.linalg")
        vars(linalg).update(vars(np.linalg))
        for name, attr in QDYN_NUMPY.items():
            setattr(linalg, attr, self.wrap(name, getattr(np.linalg, attr)))
        proxy = types.ModuleType("numpy")
        vars(proxy).update(vars(np))
        proxy.linalg = linalg
        self._patch(qdyn, "np", proxy)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def per_cycle(self, cycle_len: int) -> list[dict[str, float]]:
        """calls, inclusive s and self_s per span name, plus counters, per cycle.

        Inclusive time counts only the outermost span of a name, so a
        scenario loader called from another scenario loader is not
        counted twice.
        """
        n_cycles = (max(s[4] for s in self.spans) + 1) // cycle_len if self.spans else 0
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = [defaultdict(int) for _ in range(n_cycles)]
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            c = op // cycle_len
            if c >= n_cycles:
                continue
            agg = out[c]
            agg[f"{name}.calls"] += 1
            agg[f"{name}.self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                agg[f"{name}.s"] += end - start
        for op, counts in self.counts.items():
            if op // cycle_len < n_cycles:
                for key, value in counts.items():
                    out[op // cycle_len][key] += value
        return [dict(c) for c in out]

    def write(self, path: Path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")

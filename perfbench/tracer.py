"""Layer spans for rbitmc, recorded from outside the package.

:meth:`Tracer.install` replaces every public function and public method
defined in an ``rbitmc`` module by a timing wrapper.  A function is rebound
at every module attribute that refers to it, so ``from .normal import
grid_normal_values`` in ``bridge``, ``gausskl``, ``mlmc`` and ``sde`` is
covered as well as ``normal.grid_normal_values``.  The ``rows`` callable of
every ``LipFunctional`` built after installation is wrapped too.

Spans stay in memory (compact arrays) until :meth:`Tracer.dump`.  A span's
self time is its duration minus the time covered by its child spans.  The
wrappers return exactly what the wrapped function returns and re-raise
whatever it raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

# optimal_points is defined in normal but only the W2 tables call it, through
# the name wasserstein1d imports; it is counted with that layer.
_RENAME = {"normal.optimal_points": "wasserstein1d.optimal_points"}

MLMC_LEVELS = range(1, 14)  # eps = 2^-6 on the bridge and beta = 2 KL models gives L = 13

_DRAW_BUCKETS = (("p_le8", 8), ("p9_52", 52), ("p53_63", 63))


def _bucket(p: int) -> str:
    for name, top in _DRAW_BUCKETS:
        if p <= top:
            return name
    return _DRAW_BUCKETS[-1][0]


class Tracer:
    """Span recorder with per-name call counts, self time and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        # raw spans: name id, start, end, parent span index, op index
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[list] = []  # [span index, child time]
        self.top_s = 0.0  # time covered by spans that have no parent span
        self.op = -1
        self.level_marks: list | None = None
        self._undo: list[tuple] = []
        self.normal_module = None

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _hook(self, hook, *args) -> None:
        # Counters are measurement only: a hook that no longer fits the
        # function's signature is counted, never allowed to change the call.
        try:
            hook(self, *args)
        except (TypeError, ValueError, AttributeError, KeyError, IndexError):
            self.count("trace.hook_errors", 1)

    def wrap(self, fn, name: str):
        """Timing wrapper around ``fn`` that records one span per call."""
        nid = self._id(name)
        pre, post = _PRE.get(name), _POST.get(name)
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        pos = {p: k for k, p in enumerate(params)}
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                tr._hook(pre, _Args(args, kwargs, pos))
            stack = tr._stack
            i = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_op.append(tr.op)
            tr.span_end.append(0.0)
            frame = [i, 0.0]
            stack.append(frame)
            t0 = clock()
            tr.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                tr.span_end[i] = t1
                tr.calls[nid] += 1
                tr.total_s[nid] += dt
                tr.self_s[nid] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    tr.top_s += dt
            if post is not None:
                tr._hook(post, _Args(args, kwargs, pos), result, t0, t1)
            return result

        traced._perfbench_span = name
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of every rbitmc module."""
        import rbitmc

        modules = {info.name: importlib.import_module(f"rbitmc.{info.name}")
                   for info in pkgutil.iter_modules(rbitmc.__path__)}
        self.normal_module = modules.get("normal")
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(obj, _RENAME.get(name, name))
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            self._set(obj, mattr, self.wrap(meth, f"{layer}.{mattr}"))
        for mod in [rbitmc, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        lip = getattr(modules.get("mlmc"), "LipFunctional", None)
        if lip is not None:
            init = lip.__init__

            def traced_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                obj.rows = self.wrap(obj.rows, "mlmc.functional")

            self._set(lip, "__init__", traced_init)
        missed = self.unwrapped({"rbitmc": rbitmc, **modules})
        if missed:
            raise RuntimeError(f"tracer left public functions unwrapped: {missed}")

    @staticmethod
    def unwrapped(modules) -> list[str]:
        """Public rbitmc functions still reachable unwrapped from a module."""
        out = []
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("rbitmc")
                        and not hasattr(obj, "_perfbench_span")):
                    out.append(f"{layer}.{attr}")
        return out

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    def merge(self, summary: dict) -> None:
        """Add the summary of a tracer that ran in another process."""
        for name, calls, total, own in summary["spans"]:
            nid = self._id(name)
            self.calls[nid] += calls
            self.total_s[nid] += total
            self.self_s[nid] += own
        for key, value in summary["counters"].items():
            self.count(key, value)
        self.top_s += summary["top_s"]

    def merge_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            self.merge(json.load(handle))

    def summary(self) -> dict:
        spans = [[n, self.calls[i], self.total_s[i], self.self_s[i]] for i, n in enumerate(self.names)]
        return {"spans": spans, "counters": self.counters, "top_s": self.top_s}

    def dump(self, stem: str) -> None:
        """Write the summary to ``stem.json`` and the raw spans to ``stem.npz``.

        The npz arrays ``name`` (index into ``names``), ``start``, ``end``
        (perf_counter seconds), ``parent`` (span index, -1 at top level) and
        ``op`` (op index) hold one entry per span.
        """
        import numpy as np

        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(self.summary(), handle)
        np.savez(stem + ".npz", names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32))

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per op where the name says calls, s or a count."""
        per = 1.0 / max(n_ops, 1)
        by = {n: i for i, n in enumerate(self.names)}
        c = self.counters

        def calls(name):
            return self.calls[by[name]] * per if name in by else 0.0

        def own(name):
            return self.self_s[by[name]] * per if name in by else 0.0

        def total(name):
            return self.total_s[by[name]] if name in by else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}
        d = "bitcore.draw_bits_array"
        m[f"{d}.calls"] = (calls(d), "calls/op")
        m[f"{d}.bits"] = (c.get(f"{d}.bits", 0.0) * per, "bits/op")
        m[f"{d}.self_s"] = (own(d), "s/op")
        for bucket, _ in _DRAW_BUCKETS:
            mbit = ratio(c.get(f"{d}.{bucket}.bits", 0.0), c.get(f"{d}.{bucket}.s", 0.0)) / 1e6
            m[f"{d}.{bucket}.mbit_per_s"] = (mbit, "Mbit/s")
        t = "bitcore.truncate_indices"
        m[f"{t}.values"] = (c.get(f"{t}.values", 0.0) * per, "values/op")
        m[f"{t}.self_s"] = (own(t), "s/op")
        g = "normal.grid_normal_values"
        m[f"{g}.calls"] = (calls(g), "calls/op")
        m[f"{g}.values"] = (c.get(f"{g}.values", 0.0) * per, "values/op")
        m[f"{g}.self_s"] = (own(g), "s/op")
        m[f"{g}.table_ratio"] = (ratio(c.get(f"{g}.table", 0.0), c.get(f"{g}.values", 0.0)), "ratio")
        q = "normal.phi_inv"
        m[f"{q}.calls"] = (calls(q), "calls/op")
        m[f"{q}.points"] = (c.get(f"{q}.points", 0.0) * per, "points/op")
        m[f"{q}.self_s"] = (own(q), "s/op")
        m[f"{q}.mpoints_per_s"] = (ratio(c.get(f"{q}.points", 0.0), total(q)) / 1e6, "Mpoints/s")
        e = "normal.bit_normal_mse"
        m[f"{e}.self_s"] = (own(e), "s/op")
        m[f"{e}.cache_hit_ratio"] = (ratio(c.get(f"{e}.hits", 0.0), calls(e) / per), "ratio")
        m["normal.bit_normal_moment.self_s"] = (own("normal.bit_normal_moment"), "s/op")
        n = "bridge.nodes_from_coeffs"
        m[f"{n}.calls"] = (calls(n), "calls/op")
        m[f"{n}.self_s"] = (own(n), "s/op")
        m[f"{n}.computed_mb"] = (c.get(f"{n}.bytes", 0.0) * per / 1e6, "MB/op")
        for name in ("bridge.pl_l2_norm_sq", "bridge.pl_inner", "bridge.bridge_bit_error_sq",
                     "gausskl.sample_kl_batch", "gausskl.coarsen_kl_indices", "gausskl.kl_error_sq",
                     "gausskl.tail_sum", "gausskl.allocation_kl",
                     "mlmc.mlmc_estimate", "mlmc.plain_mc", "mlmc.sample_rows", "mlmc.coarsen_rows",
                     "mlmc.functional_rows", "mlmc.functional"):
            m[f"{name}.self_s"] = (own(name), "s/op")
        m["mlmc.rows"] = (c.get("mlmc.rows", 0.0) * per, "rows/op")
        m["mlmc.coeff_ops"] = (c.get("mlmc.coeff_ops", 0.0) * per, "coeffs/op")
        for level in MLMC_LEVELS:
            m[f"mlmc.level.{level}.s"] = (c.get(f"mlmc.level.{level}.s", 0.0) * per, "s/op")
        m["sde.strong_error_experiment.self_s"] = (own("sde.strong_error_experiment"), "s/op")
        m["sde.path_steps"] = (c.get("sde.path_steps", 0.0) * per, "steps/op")
        m["wasserstein1d.optimal_points.self_s"] = (own("wasserstein1d.optimal_points"), "s/op")
        m["wasserstein1d.w2_uniform.self_s"] = (own("wasserstein1d.w2_uniform"), "s/op")
        m["cli.import_s"] = (c.get("cli.import_s", 0.0) * per, "s/op")
        m["cli.main.self_s"] = (own("cli.main"), "s/op")
        return m


class _Args:
    """Argument lookup by parameter name, independent of how it was passed."""

    __slots__ = ("args", "kwargs", "pos")

    def __init__(self, args, kwargs, pos):
        self.args, self.kwargs, self.pos = args, kwargs, pos

    def __getitem__(self, name):
        k = self.pos.get(name)
        if k is not None and k < len(self.args):
            return self.args[k]
        return self.kwargs.get(name)


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


# -- counters taken at the layer boundaries ------------------------------


def _draw(tr, a, result, t0, t1):
    bits = int(a["p"]) * int(a["n"])
    bucket = _bucket(int(a["p"]))
    tr.count("bitcore.draw_bits_array.bits", bits)
    tr.count(f"bitcore.draw_bits_array.{bucket}.bits", bits)
    tr.count(f"bitcore.draw_bits_array.{bucket}.s", t1 - t0)


def _grid(tr, a, result, t0, t1):
    values = _size(a["indices"])
    tr.count("normal.grid_normal_values.values", values)
    if int(a["p"]) <= getattr(tr.normal_module, "GRID_TABLE_MAX_P", 0):
        tr.count("normal.grid_normal_values.table", values)


def _mse_hit(tr, a):
    if a["p"] in getattr(tr.normal_module, "_MSE_CACHE", {}):
        tr.count("normal.bit_normal_mse.hits", 1)


def _nodes(tr, a, result, t0, t1):
    rows = a["coeff_rows"]
    n = rows.shape[0] if getattr(rows, "ndim", 1) == 2 else 1
    level = int(a["level"])
    tr.count("bridge.nodes_from_coeffs.bytes",
             sum(n * ((2 << m) + 1) * 8 for m in range(level)))


def _rows_mark(tr, a):
    tr.count("mlmc.rows", int(a["n"]))
    if tr.level_marks is not None:
        tr.level_marks.append((int(a["level"]), time.perf_counter()))


def _estimate_start(tr, a):
    tr.level_marks = []


def _estimate_end(tr, a, result, t0, t1):
    marks, tr.level_marks = tr.level_marks or [], None
    for (level, start), (_, stop) in zip(marks, marks[1:] + [(None, t1)]):
        tr.count(f"mlmc.level.{level}.s", stop - start)
    tr.count("mlmc.coeff_ops", result.ledger.coeff_ops)


_PRE = {
    "normal.bit_normal_mse": _mse_hit,
    "mlmc.sample_rows": _rows_mark,
    "mlmc.mlmc_estimate": _estimate_start,
}

_POST = {
    "bitcore.draw_bits_array": _draw,
    "bitcore.truncate_indices": lambda tr, a, r, t0, t1: tr.count(
        "bitcore.truncate_indices.values", _size(a["indices"])),
    "normal.grid_normal_values": _grid,
    "normal.phi_inv": lambda tr, a, r, t0, t1: tr.count("normal.phi_inv.points", _size(a["u"])),
    "bridge.nodes_from_coeffs": _nodes,
    "mlmc.mlmc_estimate": _estimate_end,
    "mlmc.plain_mc": lambda tr, a, r, t0, t1: tr.count("mlmc.coeff_ops", r[2].coeff_ops),
    "sde.strong_error_experiment": lambda tr, a, r, t0, t1: tr.count(
        "sde.path_steps", int(a["m"]) * int(a["reps"])),
}

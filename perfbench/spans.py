"""In-memory spans around calls into the package's public functions.

The package itself is not changed: :class:`Tracer` replaces each target
function, in every ``wsriccati`` module namespace that binds it, by a wrapper
that records one span per call, and puts the originals back on
:meth:`Tracer.uninstall`. A span holds a name, a start, an end, the id of its
parent span, a run id and a few counts (``attrs``). Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fp_attrs(args, result, exc):
    # A failed solve still did its iterations; ConvergenceError carries them.
    if result is not None:
        return {"iterations": result.iterations}
    history = getattr(exc, "history", None)
    return {"iterations": len(history) if history else 0}


def _newton_attrs(args, result, exc):
    if result is not None:
        return {"steps": result.iterations}
    history = getattr(exc, "history", None)
    return {"steps": max(len(history) - 1, 0) if history else 0}


def _draw_attrs(args, result, exc):
    return {"rows": int(args["size"])}


def _mc_attrs(args, result, exc):
    return {"trial_steps": int(args["trials"]) * int(args["horizon"])}


def _robustness_attrs(args, result, exc):
    ok = 0 if result is None else int(result.gains.shape[0])
    return {"attempted": int(args["repetitions"]), "ok": ok}


#: (module, attribute, span name, attrs callback). An attribute with a dot is
#: a method looked up on a class of that module.
TARGETS = (
    ("riccati", "fixed_point_solve", "riccati.fixed_point_solve", _fp_attrs),
    ("riccati", "newton_solve", "riccati.newton_solve", _newton_attrs),
    ("riccati", "implicit_residual", "riccati.implicit_residual", None),
    ("riccati", "residual_jacobian", "riccati.residual_jacobian", None),
    ("weights", "weight_vector", "weights.weight_vector", None),
    ("weights", "predictive_costs", "weights.predictive_costs", None),
    ("weights", "build_weighted_bank", "weights.build_weighted_bank", None),
    ("stability", "ms_check", "stability.ms_check", None),
    ("stability", "wms_check", "stability.wms_check", None),
    ("matops", "spectral_radius", "matops.spectral_radius", None),
    ("ensemble", "draw_bank", "ensemble.draw_bank", None),
    ("ensemble", "ParameterDistribution.draw", "ensemble.draw", _draw_attrs),
    ("ensemble", "stream_rng", "ensemble.stream_rng", None),
    ("simulate", "mc_cost_study", "simulate.mc_cost_study", _mc_attrs),
    ("simulate", "worst_percent_averages", "simulate.worst_percent_averages", None),
    ("simulate", "robustness_study", "simulate.robustness_study", _robustness_attrs),
    ("config", "load_config", "config.load_config", None),
)


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.run = ""

    def wrap(self, name: str, fn, attrs=None):
        signature = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, time.perf_counter(), None, parent, self.run)
            self.spans.append(span)
            self._stack.append(span.id)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if attrs is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs = attrs(bound.arguments, result, exc)

        return traced

    def install(self, package: str = "wsriccati") -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module_name, attr, name, attrs in TARGETS:
            module = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, attrs))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "attrs": s.attrs,
                }) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass: name -> (value, unit).

    Every metric is present even when its layer did not run on the workload;
    it then reads 0.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    def pick(name):
        return [s for s in spans if s.name == name]

    def calls(name):
        return len(pick(name))

    def total(name):
        return sum(s.duration for s in pick(name))

    def self_time(name):
        return sum(s.duration - child_time.get(s.id, 0.0) for s in pick(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in pick(name))

    def ratio(num, den):
        return num / den if den else 0.0

    fp, newton = "riccati.fixed_point_solve", "riccati.newton_solve"
    iterations = attr_sum(fp, "iterations")
    steps = attr_sum(newton, "steps")
    newton_ids = {s.id for s in pick(newton)}
    # Residual evaluations made by Newton itself: one at the start of each
    # solve, the rest are line-search trials. Those inside the Jacobian are
    # children of residual_jacobian, not of newton_solve.
    direct = sum(1 for s in pick("riccati.implicit_residual") if s.parent in newton_ids)
    line_search = direct - len(newton_ids)

    out: dict[str, tuple[float, str]] = {
        f"{fp}.calls": (calls(fp), "count"),
        f"{fp}.iterations": (iterations, "count"),
        f"{fp}.self_s": (self_time(fp), "s"),
        f"{fp}.ms_per_iter": (1000.0 * ratio(total(fp), iterations), "ms"),
        f"{newton}.calls": (calls(newton), "count"),
        f"{newton}.steps": (steps, "count"),
        f"{newton}.self_s": (self_time(newton), "s"),
        f"{newton}.accepted_per_residual": (ratio(steps, line_search), "ratio"),
    }
    for name in ("riccati.implicit_residual", "riccati.residual_jacobian",
                 "weights.weight_vector", "weights.predictive_costs",
                 "weights.build_weighted_bank", "stability.ms_check",
                 "stability.wms_check", "ensemble.draw_bank", "ensemble.draw",
                 "ensemble.stream_rng"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.total_s"] = (total(name), "s")
    out["matops.spectral_radius.calls"] = (calls("matops.spectral_radius"), "count")
    out["ensemble.draw.rows"] = (attr_sum("ensemble.draw", "rows"), "count")
    mc = "simulate.mc_cost_study"
    out[f"{mc}.self_s"] = (self_time(mc), "s")
    out[f"{mc}.trial_steps"] = (attr_sum(mc, "trial_steps"), "count")
    out["simulate.worst_percent_averages.total_s"] = (
        total("simulate.worst_percent_averages"), "s")
    rs = "simulate.robustness_study"
    out[f"{rs}.attempted"] = (attr_sum(rs, "attempted"), "count")
    out[f"{rs}.ok"] = (attr_sum(rs, "ok"), "count")
    out["config.load_config.total_s"] = (total("config.load_config"), "s")
    out["cli.main.self_s"] = (self_time("cli.main"), "s")
    out["trace.spans"] = (len(spans), "count")
    return out

"""Per-layer tracing from outside the package.

``install`` replaces each traced function by a wrapper in the module that
looks it up at call time (``recovery.solve_semilinear``, ``fdtd.laplacian4``
and so on), and ``Potential.q`` and ``Profile.f``/``df``/``d2f`` on their
classes.  Nothing under ``src/`` changes.  Spans are kept in memory,
aggregated per name as busy time, self time (busy time minus the time
covered by child spans) and call count, and read out when the run ends.
"""

import functools
import inspect
import math
import time
from collections import defaultdict

# (span name, modules whose global of that name is replaced)
_FUNCTIONS = (
    ("cli.run_scenario", ("cli",)),
    ("gridio.write_bundle", ("gridio", "cli")),
    ("fdtd.solve_semilinear", ("recovery", "cli")),
    ("fdtd.null_form_grid", ("fdtd",)),
    ("fdtd.picard_iterate", ("cli",)),
    ("fdtd.weighted_norm", ("fdtd",)),
    ("grids.laplacian4", ("fdtd",)),
    ("grids.grad1_4", ("fdtd",)),
    ("grids.laplacian2", ("fdtd", "geoptics")),
    ("grids.diff1", ("fdtd", "geoptics")),
    ("geoptics.a10_points", ("recovery", "geoptics")),
    ("geoptics.ray_exponent", ("geoptics",)),
    ("geoptics.measure_residual_order", ("cli",)),
    ("geoptics.build_hierarchy", ("cli", "geoptics")),
    ("geoptics.residual_coefficients", ("geoptics",)),
    ("geoptics.solve_transport", ("geoptics",)),
    ("raytransform.invert_xray_2d", ("recovery",)),
    ("raytransform.xray_reduce", ("recovery",)),
    ("recovery.demodulate", ("recovery",)),
    ("recovery.log_recover_ray_data", ("recovery",)),
    ("recovery.backpropagate_amplitude", ("recovery",)),
    ("recovery.recover_potential_2d", ("cli",)),
    ("recovery.ansatz_measurements", ("cli",)),
    ("recovery.fdtd_measurements", ("cli",)),
)


class Tracer:
    """In-memory span aggregates and exact work counters."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_level_s = 0.0
        self._open = []            # child time covered, per open span

    def wrap(self, name, fn, count=None):
        """`fn` recorded as span `name`; `name` may be a function of the
        bound arguments.  `count(counts, args, result)` adds work counts."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if callable(name) or count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            span = name(bound.arguments) if callable(name) else name
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                self.busy[span] += dt
                self.self_time[span] += dt - child
                self.calls[span] += 1
                if self._open:
                    self._open[-1] += dt
                else:
                    self.top_level_s += dt
            if count is not None:
                count(self.counts, bound.arguments, result)
            return result

        return traced


def _nbytes(result):
    if isinstance(result, (tuple, list)):
        return sum(a.nbytes for a in result)
    return result.nbytes


def _stencil_bytes(name):
    # computed traffic: the input read once and every output written once
    def count(counts, args, result):
        counts[f"{name}.bytes_computed"] += args["u"].nbytes + _nbytes(result)
    return count


def _count_solve(counts, args, result):
    from nullform import constants

    u0 = args["u0"]
    dx = args["dx"]
    span = args["t_end"] - args["t0"]
    if args["scheme"] == "rk4":
        dt = args["dt"] or constants.CFL_RK4 * min(dx)
        stages = 4
    else:
        dt = args["dt"] or constants.CFL_LEAPFROG * min(dx) / math.sqrt(len(dx))
        stages = 1
    steps = max(1, int(math.ceil(span / dt - 1e-12)))
    counts["fdtd.steps"] += steps
    counts["fdtd.cells"] += u0.size
    counts["fdtd.cell_updates"] += steps * u0.size
    counts["fdtd.rhs_evals"] += steps * stages


def _count_rays(counts, args, result):
    counts["geoptics.rays"] += len(args["xp"])


_COUNTERS = {
    "grids.laplacian4": _stencil_bytes("grids.laplacian4"),
    "grids.grad1_4": _stencil_bytes("grids.grad1_4"),
    "fdtd.solve_semilinear": _count_solve,
    "geoptics.ray_exponent": _count_rays,
}


def _invert_span(args):
    return f"raytransform.invert_xray_2d.{args['method']}"


def install(tracer):
    """Wrap every traced function; call once, before the run starts."""
    import importlib

    from nullform.potential import Potential
    from nullform.profiles import Profile

    for span, where in _FUNCTIONS:
        module, attr = span.split(".")
        original = getattr(importlib.import_module(f"nullform.{module}"),
                           attr)
        name = _invert_span if span == "raytransform.invert_xray_2d" \
            else span
        wrapped = tracer.wrap(name, original, _COUNTERS.get(span))
        for caller in where:
            mod = importlib.import_module(f"nullform.{caller}")
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"nullform.{caller}.{attr} is not "
                                   f"nullform.{module}.{attr}")
            setattr(mod, attr, wrapped)
    for method in ("f", "df", "d2f"):
        setattr(Profile, method,
                tracer.wrap(f"profiles.{method}", getattr(Profile, method)))
    classes = [Potential]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "q" in vars(cls):
            cls.q = tracer.wrap("potential.q", cls.q)


def layer_metrics(tracer, bytes_written):
    """Per-layer metric values of one traced run, by BENCHMARK.json name."""
    busy, own, calls, counts = (tracer.busy, tracer.self_time, tracer.calls,
                                tracer.counts)
    solve_s = busy["fdtd.solve_semilinear"]
    ray_s = busy["geoptics.ray_exponent"]
    out = {
        "fdtd.solve_semilinear.s": solve_s,
        "fdtd.solve_semilinear.self_s": own["fdtd.solve_semilinear"],
        "fdtd.null_form_grid.s": busy["fdtd.null_form_grid"],
        "fdtd.steps": counts["fdtd.steps"],
        "fdtd.cells": counts["fdtd.cells"],
        "fdtd.cell_updates_per_s": (counts["fdtd.cell_updates"] / solve_s
                                    if solve_s else 0.0),
        "fdtd.rhs_ms": (1e3 * solve_s / counts["fdtd.rhs_evals"]
                        if counts["fdtd.rhs_evals"] else 0.0),
        "fdtd.picard_iterate.s": busy["fdtd.picard_iterate"],
        "fdtd.weighted_norm.s": busy["fdtd.weighted_norm"],
        "fdtd.weighted_norm.calls": calls["fdtd.weighted_norm"],
        "grids.laplacian4.bytes_computed":
            counts["grids.laplacian4.bytes_computed"],
        "grids.grad1_4.bytes_computed": counts["grids.grad1_4.bytes_computed"],
        "grids.laplacian2.calls": calls["grids.laplacian2"],
        "potential.q.s": busy["potential.q"],
        "potential.q.calls": calls["potential.q"],
        "geoptics.a10_points.s": busy["geoptics.a10_points"],
        "geoptics.ray_exponent.self_s": own["geoptics.ray_exponent"],
        "geoptics.rays": counts["geoptics.rays"],
        "geoptics.rays_per_s": counts["geoptics.rays"] / ray_s if ray_s
        else 0.0,
        "geoptics.measure_residual_order.self_s":
            own["geoptics.measure_residual_order"],
        "geoptics.build_hierarchy.s": busy["geoptics.build_hierarchy"],
        "geoptics.residual_coefficients.s":
            busy["geoptics.residual_coefficients"],
        "geoptics.solve_transport.calls": calls["geoptics.solve_transport"],
        "raytransform.invert_xray_2d.fbp.s":
            busy["raytransform.invert_xray_2d.fbp"],
        "raytransform.invert_xray_2d.rls.s":
            busy["raytransform.invert_xray_2d.rls"],
        "raytransform.xray_reduce.s": busy["raytransform.xray_reduce"],
        "recovery.demodulate.s": busy["recovery.demodulate"],
        "recovery.demodulate.calls": calls["recovery.demodulate"],
        "recovery.log_recover_ray_data.s":
            busy["recovery.log_recover_ray_data"],
        "recovery.backpropagate_amplitude.s":
            busy["recovery.backpropagate_amplitude"],
        "recovery.recover_potential_2d.self_s":
            own["recovery.recover_potential_2d"],
        "recovery.ansatz_measurements.self_s":
            own["recovery.ansatz_measurements"],
        "recovery.fdtd_measurements.self_s": own["recovery.fdtd_measurements"],
        "cli.run_scenario.self_s": own["cli.run_scenario"],
        "gridio.write_bundle.s": busy["gridio.write_bundle"],
        "gridio.bytes_written": bytes_written,
    }
    for name in ("grids.laplacian4", "grids.grad1_4", "grids.diff1",
                 "profiles.f", "profiles.df", "profiles.d2f"):
        out[f"{name}.s"] = busy[name]
        out[f"{name}.calls"] = calls[name]
    return out

"""Per-layer counters and timers for the torichk benchmark.

The tracer wraps public functions of the package from the outside.  A module
that did ``from .potential import eval_F`` holds its own reference to the
function, so every loaded ``torichk`` module is scanned and each name bound
to a traced function is replaced, not only the defining one.  Nothing under
``src/`` changes; the originals are restored when the ``with`` block ends.

Each wrapped call records its count, its inclusive time and its self time
(inclusive time minus the time of traced calls made inside it on the same
thread).  ``phi_batch`` also runs on the volume-growth worker threads, so the
span stack is thread-local and the totals are updated under a lock.
"""

import sys
import threading
from time import perf_counter_ns

# label -> (module under torichk, attribute path)
TRACED = {
    "potential.phi_batch": ("potential", "phi_batch"),
    "potential.eval_F": ("potential", "eval_F"),
    "potential.eval_F_z": ("potential", "eval_F_z"),
    "potential.eval_Phi": ("potential", "eval_Phi"),
    "potential.eval_connection": ("potential", "eval_connection"),
    "potential.eval_metric": ("potential", "eval_metric"),
    "potential.legendre_solve": ("potential", "legendre_solve"),
    "potential.reconstruct_F_from_K": ("potential", "reconstruct_F_from_K"),
    "verify.growth_fit": ("verify", "growth_fit"),
    "verify.sample_chart_points": ("verify", "sample_chart_points"),
    "verify.ricci_residual": ("verify", "ricci_residual"),
    "verify.polyharmonic_residual": ("verify", "polyharmonic_residual"),
    "fd.hessian": ("fd", "hessian"),
    "fd.laplacian3": ("fd", "laplacian3"),
    "arrangement.Point3n": ("arrangement", "Point3n.__init__"),
    "arrangement.intersection_strata": ("arrangement", "intersection_strata"),
    "arrangement.classification_report": ("arrangement", "classification_report"),
    "arrangement.smoothness_check": ("arrangement", "smoothness_check"),
    "lattice.smith_normal_form": ("lattice", "smith_normal_form"),
    "io.load_arrangement": ("io", "load_arrangement"),
    "cli.run_cli": ("cli", "run_cli"),
}

# outer label -> inner label whose calls (and points) made during the outer
# call are attributed to it
NESTED = {
    "verify.growth_fit": "potential.phi_batch",
    "verify.sample_chart_points": "potential.legendre_solve",
    "verify.ricci_residual": "potential.eval_metric",
    "verify.polyharmonic_residual": "potential.eval_F",
}


class Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "points", "iterations",
                 "failures", "returned", "inner_calls", "inner_points")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class Tracer:
    """Context manager that installs the wrappers and collects a Stat per label."""

    def __init__(self, package):
        self.package = package
        self.stats = {label: Stat() for label in TRACED}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []
        self._newton_errors = (package.NoConvergenceError, package.DomainEscapeError)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "torichk" or name.startswith("torichk."))]
        for label, (modname, path) in TRACED.items():
            owner = getattr(self.package, modname, None)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # missing layers read zero; the self-test reports them
            wrapper = self._wrap(label, original)
            if parents:
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, label, fn):
        stat = self.stats[label]
        lock = self._lock
        local = self._local
        inner = self.stats[NESTED[label]] if label in NESTED else None
        newton_errors = self._newton_errors
        is_batch = label == "potential.phi_batch"
        is_newton = label == "potential.legendre_solve"
        is_sampler = label == "verify.sample_chart_points"

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if inner is not None:
                before = (inner.calls, inner.points)
            stack.append(0)
            failed = False
            out = None
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            except newton_errors:
                failed = True
                raise
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with lock:
                    stat.calls += 1
                    stat.incl_ns += dt
                    stat.self_ns += dt - child
                    if inner is not None:
                        stat.inner_calls += inner.calls - before[0]
                        stat.inner_points += inner.points - before[1]
                    if is_batch:
                        stat.points += len(args[2] if len(args) > 2 else kwargs["X"])
                    elif is_newton:
                        if failed:
                            stat.failures += 1
                        elif out is not None:
                            stat.iterations += out.iterations
                    elif is_sampler and out is not None:
                        stat.returned += len(out)

        return wrapper


# -- per-layer metrics --------------------------------------------------------

def _per_call(total, calls):
    return total / calls if calls else 0.0


def layer_metrics(stats, passes):
    """Per-layer values per pass (counts, seconds) or per call (us, ratios)."""
    out = {}

    def s(label):
        return stats[label]

    for label in ("potential.eval_F", "potential.eval_F_z", "potential.eval_Phi",
                  "potential.eval_connection", "potential.legendre_solve",
                  "arrangement.Point3n", "arrangement.intersection_strata",
                  "arrangement.classification_report",
                  "arrangement.smoothness_check", "lattice.smith_normal_form",
                  "io.load_arrangement"):
        st = s(label)
        out[f"{label}.calls"] = st.calls / passes
        out[f"{label}.us"] = _per_call(st.incl_ns, st.calls) / 1e3
    for label in ("potential.eval_metric", "potential.reconstruct_F_from_K",
                  "fd.hessian", "fd.laplacian3"):
        st = s(label)
        out[f"{label}.calls"] = st.calls / passes
        out[f"{label}.self_us"] = _per_call(st.self_ns, st.calls) / 1e3

    batch = s("potential.phi_batch")
    out["potential.phi_batch.calls"] = batch.calls / passes
    out["potential.phi_batch.points"] = batch.points / passes
    out["potential.phi_batch.ns_per_point"] = _per_call(batch.incl_ns, batch.points)

    growth = s("verify.growth_fit")
    out["verify.growth_fit.s"] = growth.incl_ns / passes / 1e9
    out["verify.growth_fit.phi_batch_calls"] = growth.inner_calls / passes
    out["verify.growth_fit.points"] = growth.inner_points / passes

    newton = s("potential.legendre_solve")
    out["potential.legendre_solve.iterations_mean"] = _per_call(
        newton.iterations, newton.calls - newton.failures)
    out["potential.legendre_solve.fail_frac"] = _per_call(newton.failures, newton.calls)

    sampler = s("verify.sample_chart_points")
    out["verify.sample_chart_points.accept_frac"] = _per_call(
        sampler.returned, sampler.inner_calls)

    ricci = s("verify.ricci_residual")
    out["verify.ricci_residual.metric_calls"] = _per_call(ricci.inner_calls, ricci.calls)
    poly = s("verify.polyharmonic_residual")
    out["verify.polyharmonic_residual.F_calls"] = _per_call(poly.inner_calls, poly.calls)

    out["cli.run_cli.self_s"] = s("cli.run_cli").self_ns / passes / 1e9
    return out


# metric -> workloads on which it must read non-zero.  The phi_batch and
# growth_fit metrics must also read zero on every other workload.
_N1 = {"verify-n1"}
_VERIFY = {"verify-n1", "verify-n2"}
_STRATA = {"verify-n1", "verify-n2", "classify-strata"}
EXPECT_NONZERO = {
    "potential.phi_batch.calls": _N1,
    "potential.phi_batch.points": _N1,
    "potential.phi_batch.ns_per_point": _N1,
    "verify.growth_fit.s": _N1,
    "verify.growth_fit.phi_batch_calls": _N1,
    "verify.growth_fit.points": _N1,
    "potential.eval_F.calls": _VERIFY,
    "potential.eval_F_z.calls": _VERIFY,
    "potential.eval_Phi.calls": _VERIFY | {"export-grid"},
    "potential.eval_connection.calls": _N1 | {"export-grid"},
    "potential.eval_metric.calls": _N1 | {"export-grid"},
    "arrangement.Point3n.calls": _VERIFY | {"export-grid", "classify-strata"},
    "potential.legendre_solve.calls": _VERIFY,
    "potential.legendre_solve.iterations_mean": _VERIFY,
    "verify.sample_chart_points.accept_frac": _VERIFY,
    "potential.reconstruct_F_from_K.calls": _VERIFY,
    "verify.ricci_residual.metric_calls": _N1,
    "verify.polyharmonic_residual.F_calls": _VERIFY,
    "fd.hessian.calls": _VERIFY,
    "fd.laplacian3.calls": _VERIFY,
    "arrangement.intersection_strata.calls": _STRATA,
    "arrangement.classification_report.calls": _STRATA,
    "lattice.smith_normal_form.calls": _STRATA,
    "io.load_arrangement.calls": {"classify-strata"},
    "cli.run_cli.self_s": {"export-grid", "classify-strata"},
}
MUST_BE_ZERO_ELSEWHERE = ("potential.phi_batch.", "verify.growth_fit.")


def self_test(workload, metrics):
    """Names of counters that read zero where they must not, or the reverse."""
    problems = []
    for name, workloads in EXPECT_NONZERO.items():
        value = metrics[name]
        if workload in workloads and not value > 0:
            problems.append(f"{name} is {value} on {workload}, expected > 0")
        if (workload not in workloads and name.startswith(MUST_BE_ZERO_ELSEWHERE)
                and value != 0):
            problems.append(f"{name} is {value} on {workload}, expected 0")
    return problems

"""Outside-in span tracer for the wigner_fluct package.

``Tracer.install()`` replaces every public function of the layer modules
(and the few private probes below) with a timing wrapper, in every namespace
of the package that holds a reference to it: module dictionaries, the
package ``__init__``, and the default arguments of the package's functions
(``ks_one_sample``'s ``cdf=standard_normal_cdf``).  ``Tracer.remove()`` puts
every original back.  Nothing under ``src/`` is changed.

A span is one call of a wrapped function.  Its self time is its duration
minus the intervals covered by its child spans; a child's interval includes
the tracer's own bookkeeping for it, so parents' self times do not absorb
tracing cost (it shows in ``trace.overhead_s`` instead).  Spans are folded
into per-function totals as they end; only sampler and solver call
durations are kept, for their 99th percentiles.
"""

import functools
import inspect
import sys
from importlib import import_module
from time import perf_counter

PACKAGE = "wigner_fluct"
LAYERS = ("ensembles", "spectra", "semicircle", "fluctuations", "kernel", "stats", "cli")
# Private functions wrapped only because they are where work can be counted
# exactly; a name that no longer exists is skipped.
PROBES = {"kernel": ("_composite_gl", "_psi_top_three", "_kernel_cross")}

SAMPLERS = tuple(
    f"ensembles.{f}"
    for f in ("sample_goe", "sample_gue", "sample_gse", "sample_matched_wigner", "sample_tridiag_beta")
)
SOLVERS = tuple(
    f"spectra.{f}"
    for f in ("tridiag_eigenvalues", "tridiag_eigenvalues_selected", "tridiag_eigenvalues_bisect")
)

# (name, unit) of every per-layer metric, in report order.  The comments name
# the end-to-end metric each group should move, and on which workload.
PER_LAYER = (
    # setup_s on all workloads; wall_s on fr_small (the fr-check trial loop)
    ("cli.self_s", "s"),
    ("cli.fr_loop_self_s", "s"),
    ("cli.out_bytes", "B"),
    # wall_s on dense_mc (GSE Python loop, dense draws) and fr_small, little on
    # tridiag_mc, none on kernel_quad; peak_rss_mb on dense_mc
    ("ensembles.sample_s", "s"),
    ("ensembles.sample_calls", "count"),
    ("ensembles.sample_p99_us", "us"),
    ("ensembles.sample_bytes", "B"),
    ("ensembles.seed_mix_s", "s"),
    ("ensembles.fr_maps_s", "s"),
    # wall_s on dense_mc and fr_small; the solve metrics also on tridiag_mc
    ("spectra.reduce_s", "s"),
    ("spectra.reduce_calls", "count"),
    ("spectra.solve_s", "s"),
    ("spectra.solve_calls", "count"),
    ("spectra.solve_p99_us", "us"),
    ("spectra.eigenvalues_self_s", "s"),
    # waste ratios, wall_s on dense_mc: eigenvalues the outputs read per
    # eigenvalue returned, and order solved per ensemble n (2 GUE, 4 GSE)
    ("spectra.eig_used_ratio", "1"),
    ("spectra.solve_dim_ratio", "1"),
    # wall_s on tridiag_mc
    ("spectra.sturm_s", "s"),
    ("spectra.sturm_pivots", "count"),
    # wall_s of the semicircle-check steps of tridiag_mc and dense_mc
    ("semicircle.s", "s"),
    ("semicircle.calls", "count"),
    ("fluctuations.s", "s"),
    # wall_s on tridiag_mc; negligible on dense_mc
    ("stats.run_mc_self_s", "s"),
    ("stats.trial_overhead_us", "us"),
    ("stats.summary_s", "s"),
    ("stats.ks_s", "s"),
    ("stats.counting_self_s", "s"),
    ("stats.trials", "count"),
    # wall_s and peak_rss_mb on kernel_quad only; psi_steps is sum of n x points
    # over the Hermite recurrences, op_bytes the kernel matrix blocks built
    ("kernel.expected_s", "s"),
    ("kernel.variance_s", "s"),
    ("kernel.discretize_s", "s"),
    ("kernel.cumulants_s", "s"),
    ("kernel.diag_s", "s"),
    ("kernel.nodes", "count"),
    ("kernel.psi_steps", "count"),
    ("kernel.op_bytes", "B"),
    # traced minus untraced pass time, both as wall_s reports them
    ("trace.overhead_s", "s"),
)
# Metrics that must repeat exactly between two traced passes of one input.
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "B", "1"))


class Tracer:
    def __init__(self):
        self.calls = {}  # span name -> number of calls
        self.total = {}  # span name -> summed duration (s)
        self.self_time = {}  # span name -> summed self time (s)
        self.durations = {name: [] for name in SAMPLERS + SOLVERS}
        self.counters = dict.fromkeys(
            ("sample_bytes", "eig_returned", "solved_order", "solve_ens_n", "sturm_pivots",
             "nodes", "psi_steps", "op_bytes", "mc_trials", "counting_trials"),
            0,
        )
        self._stack = []  # open spans: [covered child time, name, solves below]
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        calls, total, self_time = self.calls, self.total, self.self_time
        calls[name] = 0
        total[name] = self_time[name] = 0.0
        durations = self.durations.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name, 0]
            stack.append(frame)
            result = done = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - frame[0]
                if durations is not None:
                    durations.append(duration)
                if done and observe is not None:
                    observe(self, frame, args, kwargs, result)
                if stack:
                    stack[-1][0] += perf_counter() - start

        wrapper.__span__ = name
        return wrapper

    def open_span(self, name):
        """Innermost open span with this name, or None."""
        for frame in reversed(self._stack):
            if frame[1] == name:
                return frame
        return None

    # -- install / remove ----------------------------------------------------

    def install(self):
        """Wrap the layer functions everywhere the package refers to them."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                own = inspect.isfunction(obj) and obj.__module__ == module.__name__
                if own and (not attr.startswith("_") or attr in PROBES.get(layer, ())):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = self.wrap(name, obj, OBSERVERS.get(name))

        def swap(value):
            return wrappers.get(id(value), value)

        modules = package_modules()
        for module in modules:
            for obj in list(vars(module).values()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE)):
                    continue
                defaults = obj.__defaults__ or ()
                if any(id(d) in wrappers for d in defaults):
                    self._set(obj, "__defaults__", tuple(map(swap, defaults)))
                kwdefaults = obj.__kwdefaults__ or {}
                if any(id(d) in wrappers for d in kwdefaults.values()):
                    self._set(obj, "__kwdefaults__", {k: swap(d) for k, d in kwdefaults.items()})
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        """Restore every original, in reverse order of replacement."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


# -- exact work counters, updated after each call ---------------------------


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _sampled(tracer, frame, args, kwargs, sample):
    tracer.counters["sample_bytes"] += sum(
        a.nbytes for a in (sample.array, sample.diag, sample.offdiag) if a is not None
    )


def _solved(tracer, frame, args, kwargs, values):
    order = _arg(args, kwargs, 0, "t").n
    tracer.counters["eig_returned"] += len(values)
    tracer.counters["solved_order"] += order
    parent = tracer.open_span("spectra.eigenvalues")
    if parent is None:
        tracer.counters["solve_ens_n"] += order
    else:
        parent[2] += 1


def _eigenvalues(tracer, frame, args, kwargs, spectrum):
    # the ensemble size of a solve below eigenvalues() is the length of the
    # spectrum it delivers (n, where the solved embedding has order 2n or 4n)
    tracer.counters["solve_ens_n"] += frame[2] * spectrum.values.size


def _sturm(tracer, frame, args, kwargs, count):
    tracer.counters["sturm_pivots"] += _arg(args, kwargs, 0, "t").n


def _sturm_batch(tracer, frame, args, kwargs, counts):
    tracer.counters["sturm_pivots"] += _arg(args, kwargs, 0, "diag").size


def _quadrature(tracer, frame, args, kwargs, rule):
    tracer.counters["nodes"] += rule[0].size


def _psi(tracer, frame, args, kwargs, top):
    tracer.counters["psi_steps"] += _arg(args, kwargs, 0, "n") * top[0].size


def _kernel_block(tracer, frame, args, kwargs, block):
    tracer.counters["op_bytes"] += block.nbytes


def _run_mc(tracer, frame, args, kwargs, result):
    tracer.counters["mc_trials"] += _arg(args, kwargs, 0, "plan").trials


def _counting(tracer, frame, args, kwargs, counts):
    tracer.counters["counting_trials"] += counts.size


OBSERVERS = {
    **dict.fromkeys(SAMPLERS, _sampled),
    **dict.fromkeys(SOLVERS, _solved),
    "spectra.eigenvalues": _eigenvalues,
    "spectra.sturm_count_below": _sturm,
    "spectra.sturm_count_below_batch": _sturm_batch,
    "kernel._composite_gl": _quadrature,
    "kernel._psi_top_three": _psi,
    "kernel._kernel_cross": _kernel_block,
    "stats.run_mc": _run_mc,
    "stats.counting_experiment": _counting,
}


# -- per-layer metrics -------------------------------------------------------


def _p99_us(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e6 * ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracers, eig_read, out_bytes):
    """Per-layer metrics of one or more traced passes over the same inputs.

    Times are means per pass; counts are the first pass's (the caller
    checks that they repeat exactly); p99s pool every pass's calls.
    ``eig_read`` and ``out_bytes`` are per-pass figures the caller knows
    from the workload and the captured output.  ``*_s`` metrics named after
    a function are inclusive of its child spans; ``*self_s`` and the layer
    totals ``semicircle.s``/``fluctuations.s`` are self times.
    """
    passes, first = len(tracers), tracers[0]

    def mean(table, keys):
        return sum(getattr(t, table).get(k, 0) for t in tracers for k in keys) / passes

    def total(*keys):
        return mean("total", keys)

    def self_s(*keys):
        return mean("self_time", keys)

    def calls(*keys):
        return sum(first.calls.get(k, 0) for k in keys)

    def count(*keys):
        return sum(first.counters[k] for k in keys)

    def p99_us(keys):
        return _p99_us([d for t in tracers for k in keys for d in t.durations[k]])

    def layer(prefix, exclude=()):
        return [k for k in first.calls if k.startswith(prefix) and k not in exclude]

    mc_trials = count("mc_trials")
    return {
        "cli.self_s": self_s(*layer("cli.", exclude=("cli.fr_check_samples",))),
        "cli.fr_loop_self_s": self_s("cli.fr_check_samples"),
        "cli.out_bytes": out_bytes,
        "ensembles.sample_s": self_s("ensembles.sample", *SAMPLERS),
        "ensembles.sample_calls": calls(*SAMPLERS),
        "ensembles.sample_p99_us": p99_us(SAMPLERS),
        "ensembles.sample_bytes": count("sample_bytes"),
        "ensembles.seed_mix_s": total("ensembles.mix_trial_seed"),
        "ensembles.fr_maps_s": total("ensembles.superpose_decimate_even", "ensembles.gse_from_goe"),
        "spectra.reduce_s": total("spectra.tridiagonalize"),
        "spectra.reduce_calls": calls("spectra.tridiagonalize"),
        "spectra.solve_s": total(*SOLVERS),
        "spectra.solve_calls": calls(*SOLVERS),
        "spectra.solve_p99_us": p99_us(SOLVERS),
        "spectra.eigenvalues_self_s": self_s("spectra.eigenvalues"),
        "spectra.eig_used_ratio": _ratio(eig_read, count("eig_returned")),
        "spectra.solve_dim_ratio": _ratio(count("solved_order"), count("solve_ens_n")),
        "spectra.sturm_s": self_s(
            "spectra.sturm_count_below", "spectra.sturm_count_below_batch", "spectra.count_in_interval"
        ),
        "spectra.sturm_pivots": count("sturm_pivots"),
        "semicircle.s": self_s(*layer("semicircle.")),
        "semicircle.calls": calls(*layer("semicircle.")),
        "fluctuations.s": self_s(*layer("fluctuations.")),
        "stats.run_mc_self_s": self_s("stats.run_mc"),
        "stats.trial_overhead_us": 1e6 * _ratio(self_s("stats.run_mc"), mc_trials),
        "stats.summary_s": total("stats.summarize_vectors"),
        "stats.ks_s": total("stats.ks_one_sample", "stats.ks_two_sample"),
        "stats.counting_self_s": self_s("stats.counting_experiment"),
        "stats.trials": mc_trials + count("counting_trials"),
        "kernel.expected_s": total("kernel.expected_count"),
        "kernel.variance_s": total("kernel.variance_count"),
        "kernel.discretize_s": total("kernel.discretize_operator"),
        "kernel.cumulants_s": total("kernel.counting_cumulants"),
        "kernel.diag_s": total("kernel.kernel_diag"),
        "kernel.nodes": count("nodes"),
        "kernel.psi_steps": count("psi_steps"),
        "kernel.op_bytes": count("op_bytes"),
    }


def exact_counts(tracer):
    """Every call count and work counter of one traced pass."""
    return {**{f"calls:{k}": v for k, v in tracer.calls.items()}, **tracer.counters}

"""Where the tracer attaches to the gldimer layers, and the per-layer
metrics derived from one traced pass.

Every target is a public (or table-building) function of a package module,
wrapped at its module attribute so that calls from inside the package are
seen too.  `integrate_dp45` is wrapped at each module that imported it by
name; its `rhs`, `on_step` and `monitor` callbacks are wrapped at the call
boundary and named after the calling layer, because their bodies are that
layer's code (the generator matvec for `liouville`, the moment kernel call
for `bbr`, the mean-field equation for `meanfield`).
"""

from __future__ import annotations

import os

from gldimer import (bbr, closedform, fock, io, liouville, meanfield, ode,
                     steadysolve)

from tracer import Tracer

LAYERS = ("fock", "liouville", "ode", "closedform", "bbr", "steadysolve",
          "meanfield", "io")

# (module, attribute, span name); several attributes may share a span name
TARGETS = [
    (fock, "bloch_moments", "fock.bloch_moments"),
    (fock, "truncation_mass", "fock.truncation_mass"),
    (fock, "bloch_operators", "fock.tables"),
    (fock, "_bloch_pair_products", "fock.tables"),
    (liouville, "number_block_space", "liouville.tables"),
    (liouville, "_block_observable_weights", "liouville.tables"),
    (liouville, "apply_liouvillian", "liouville.apply_liouvillian"),
    (liouville, "block_moments", "liouville.block_moments"),
    (liouville, "pack_block", "liouville.pack_unpack"),
    (liouville, "unpack_block", "liouville.pack_unpack"),
    (liouville, "propagate", "liouville.propagate"),
    (liouville, "moment_trajectory", "liouville.moment_trajectory"),
    (closedform, "steady_alpha", "closedform.steady_alpha"),
    (closedform, "oscillatory_solution", "closedform.oscillatory_solution"),
    (bbr, "moment_rhs", "bbr.moment_rhs"),
    (bbr, "integrate", "bbr.integrate"),
    (bbr, "sweep_to_csv", "bbr.sweep_to_csv"),
    (meanfield, "integrate_gpe", "meanfield.integrate_gpe"),
]
GENERATORS = [
    (liouville, "build_number_block_generator",
     "liouville.build_number_block_generator"),
    (liouville, "build_liouvillian", "liouville.build_liouvillian"),
]
INTEGRATOR_BINDINGS = [(ode, "ode"), (liouville, "liouville"), (bbr, "bbr"),
                       (meanfield, "meanfield")]
# counters that must repeat exactly when a pass is replayed
REPEAT_COUNTERS = ("ode.rhs.calls", "bbr.moment_rhs.calls",
                   "steadysolve.matvecs", "liouville.generator.nnz")


def _matvec_bytes(nnz: int, rows: int, value_bytes: int, index_bytes: int) -> int:
    """Bytes one CSR matvec reads and writes, from the matrix and vector sizes
    alone (computed, not measured: cache misses are not seen)."""
    return nnz * (value_bytes + index_bytes) + (rows + 1) * index_bytes \
        + 2 * rows * value_bytes


def instrument(tracer: Tracer) -> Tracer:
    """Install every wrapper on `tracer`; `tracer.restore()` removes them."""
    c = tracer.counters
    generator_sizes: dict[int, tuple[int, int, int]] = {}

    for module, attr, name in TARGETS:
        tracer.wrap(module, attr, name)

    def on_generator(gen, args, kwargs):
        c["liouville.generator.nnz"] += gen.nnz
        generator_sizes[gen.shape[0]] = (gen.nnz, gen.data.itemsize,
                                         gen.indices.itemsize)
    for module, attr, name in GENERATORS:
        tracer.wrap(module, attr, name, on_generator)

    def on_root(res, args, kwargs):
        c["bbr.root.iterations"] += res.iterations
        c["bbr.root.found"] += res.found
    tracer.wrap(bbr, "steady_root_search", "bbr.steady_root_search", on_root)

    def on_sweep(sweep, args, kwargs):
        c["bbr.sweep.tail_points"] += len(sweep.tail)
    tracer.wrap(bbr, "sweep_gamma", "bbr.sweep_gamma", on_sweep)

    def on_steady(sol, args, kwargs):
        c["steadysolve.matvecs"] += sol.matvecs
    tracer.wrap(steadysolve, "solve_steady", "steadysolve.solve_steady",
                on_steady)

    def on_csv(result, args, kwargs):
        c["io.bytes"] += os.path.getsize(args[0])
    tracer.wrap(io, "write_csv", "io.write_csv", on_csv)

    def integrator(layer):
        def make(fn):
            def wrapper(rhs, *args, **kwargs):
                if tracer.paused:
                    return fn(rhs, *args, **kwargs)
                rhs = tracer.traced(f"{layer}.rhs", rhs)
                for key in ("on_step", "monitor"):
                    if kwargs.get(key) is not None:
                        kwargs[key] = tracer.traced(f"{layer}.{key}", kwargs[key])
                with tracer.span("ode.integrate_dp45"):
                    res = fn(rhs, *args, **kwargs)
                c["ode.steps.accepted"] += res.n_steps
                c["ode.steps.rejected"] += res.n_rejected
                if layer == "liouville" and res.y.size in generator_sizes:
                    nnz, vb, ib = generator_sizes[res.y.size]
                    c["liouville.matvec.bytes_computed"] += \
                        res.n_rhs * _matvec_bytes(nnz, res.y.size, vb, ib)
                return res
            wrapper.__wrapped__ = fn
            return wrapper
        return make
    for module, layer in INTEGRATOR_BINDINGS:
        tracer.patch(module, "integrate_dp45", integrator(layer))
    return tracer


def _generator_caches():
    """The generator builders' lru-cached functions; while the tracer wraps
    them, they are reached through the wrapper's __wrapped__."""
    for module, attr, _ in GENERATORS:
        fn = getattr(module, attr)
        yield fn if hasattr(fn, "cache_info") else fn.__wrapped__


def generator_cache_info() -> tuple[int, int]:
    """(hits, misses) summed over the generator builders' lru caches."""
    infos = [fn.cache_info() for fn in _generator_caches()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def clear_generator_caches() -> None:
    for fn in _generator_caches():
        fn.cache_clear()


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_metrics(summary: dict, counters: dict,
                      setup_summary: dict | None = None,
                      cache_delta: tuple[int, int] = (0, 0)) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass;
    `setup_summary` adds the table builds of a traced set-up."""
    setup_summary = setup_summary or {}
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def tables(name):
        return get(name, "self_s") + setup_summary.get(name, {}).get("self_s", 0.0)

    rhs = [v for k, v in summary.items() if k.endswith(".rhs")]
    rhs_calls = sum(v["calls"] for v in rhs)
    accepted = counters.get("ode.steps.accepted", 0)
    tried = accepted + counters.get("ode.steps.rejected", 0)
    roots = get("bbr.steady_root_search", "calls")
    kernel_calls = get("bbr.moment_rhs", "calls")
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, v in summary.items():
        layer_self[layer_of(name)] += v["self_s"]
    m = {
        "fock.bloch_moments.calls": get("fock.bloch_moments", "calls"),
        "fock.bloch_moments.s": get("fock.bloch_moments", "s"),
        "fock.truncation_mass.calls": get("fock.truncation_mass", "calls"),
        # table builders call each other, so their self times are summed
        "fock.tables.s": tables("fock.tables"),
        "liouville.tables.s": tables("liouville.tables"),
        "liouville.build_number_block_generator.calls":
            get("liouville.build_number_block_generator", "calls"),
        "liouville.build_number_block_generator.s":
            get("liouville.build_number_block_generator", "s"),
        "liouville.generator_cache.hits": cache_delta[0],
        "liouville.generator_cache.misses": cache_delta[1],
        "liouville.build_liouvillian.s": get("liouville.build_liouvillian", "s"),
        "liouville.apply_liouvillian.calls": get("liouville.apply_liouvillian", "calls"),
        "liouville.apply_liouvillian.s": get("liouville.apply_liouvillian", "s"),
        "liouville.block_moments.calls": get("liouville.block_moments", "calls"),
        "liouville.block_moments.s": get("liouville.block_moments", "s"),
        "liouville.pack_unpack.s": get("liouville.pack_unpack", "s"),
        "liouville.generator.nnz": counters.get("liouville.generator.nnz", 0),
        "liouville.matvec.bytes_computed":
            counters.get("liouville.matvec.bytes_computed", 0),
        "ode.integrate_dp45.calls": get("ode.integrate_dp45", "calls"),
        "ode.integrate_dp45.self_s": get("ode.integrate_dp45", "self_s"),
        "ode.rhs.calls": rhs_calls,
        "ode.rhs.s": sum(v["s"] for v in rhs),
        "ode.steps.accepted": accepted,
        "ode.step_accept_ratio": accepted / tried if tried else 0.0,
        "bbr.moment_rhs.calls": kernel_calls,
        "bbr.moment_rhs.us_per_call":
            1e6 * get("bbr.moment_rhs", "s") / kernel_calls if kernel_calls else 0.0,
        "bbr.steady_root_search.calls": roots,
        "bbr.steady_root_search.self_s": get("bbr.steady_root_search", "self_s"),
        "bbr.root.iterations": counters.get("bbr.root.iterations", 0),
        "bbr.root.found_ratio":
            counters.get("bbr.root.found", 0) / roots if roots else 0.0,
        "bbr.sweep.tail_points": counters.get("bbr.sweep.tail_points", 0),
        "steadysolve.solve_steady.self_s": get("steadysolve.solve_steady", "self_s"),
        "steadysolve.matvecs": counters.get("steadysolve.matvecs", 0),
        "closedform.s": layer_self["closedform"],
        "meanfield.integrate_gpe.s": get("meanfield.integrate_gpe", "s"),
        "io.write_csv.s": get("io.write_csv", "s"),
        "io.bytes": counters.get("io.bytes", 0),
    }
    for layer, s in layer_self.items():
        m[f"layer.{layer}.self_s"] = s
    return m

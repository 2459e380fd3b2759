"""Run one ``vdvcarleman`` CLI call with a span around every call into the
public functions of each module, then time the per-step floors.

Usage: python3 perfbench/traced_cli.py SPANS_JSON SCENARIO -- CLI_ARGS...

The spans are kept in memory and written to SPANS_JSON when the call has
returned, together with floors measured after it in the same process:

* the substream draws (``substream_seed`` plus PCG64) of every traced
  ensemble, replayed alone;
* one ``model.drift`` and one ``model.jacobian`` evaluation at the
  initial state of SCENARIO (``set1`` or ``set2``).

The process exits with the CLI's exit code.  Nothing in the package is
edited: the wrappers replace module attributes in this process only.
"""
from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time

from spans import Tracer


def _steps(fn):
    """Attribute function recording the number of grid steps a call makes."""
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        from vdvcarleman.moments import grid_steps

        bound = sig.bind(*args, **kwargs).arguments
        if "cfg" in bound:
            return {"steps": bound["cfg"].n_steps}
        return {"steps": grid_steps(bound["dt"], bound["t_end"])}

    return attrs


def _ensemble(fn):
    sig = inspect.signature(fn)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs).arguments
        cfg = bound["cfg"]
        return {"paths": bound["n_paths"], "steps": cfg.n_steps, "seed": cfg.seed}

    return attrs


def _bytes_written(suffix):
    def make(fn):
        def attrs(args, kwargs, result):
            return {"bytes": sum(os.path.getsize(p) for p in result if p.endswith(suffix))}

        return attrs

    return make


# (module, public function, attribute-function factory or None)
TARGETS = (
    ("cli", "main", None),
    ("experiments", "run_scenario", None),
    ("experiments", "emit_csv", _bytes_written(".csv")),
    ("experiments", "emit_charts", _bytes_written(".svg")),
    ("montecarlo", "simulate_path", _steps),
    ("montecarlo", "ensemble_moments", _ensemble),
    ("montecarlo", "em_mean_reference", _steps),
    ("montecarlo", "simulate_shared_noise", _steps),
    ("moments", "integrate", _steps),
    ("moments", "integrate_physical", _steps),
    ("moments", "integrate_augmented", _steps),
    ("moments", "crosscheck_mean_paths", _steps),
    ("ekf", "ekf_predict", _steps),
    ("carleman", "build_vandevusse", None),
    ("svgchart", "line_chart", None),
    ("validation", "run_all", None),
)


def _check_passed(args, kwargs, result):
    return {"passed": bool(result.passed), "number": result.number}


def install(tracer: Tracer):
    """Replace every module reference to each target with its traced wrapper.

    Returns the traced ``cli.main``.
    """
    import vdvcarleman.cli  # noqa: F401  (imports every module of the package)
    from vdvcarleman import validation

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "vdvcarleman"]
    for mod_name, fn_name, attrs in TARGETS:
        original = getattr(sys.modules[f"vdvcarleman.{mod_name}"], fn_name)
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original, attrs(original) if attrs else None)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    # run_all reads ALL_CHECKS at call time, so a traced tuple replaces it.
    validation.ALL_CHECKS = tuple(
        tracer.wrap(f"validation.check_{i:02d}", check, _check_passed)
        for i, check in enumerate(validation.ALL_CHECKS, start=1)
    )
    return sys.modules["vdvcarleman.cli"].main


def _rng_floor(ensembles) -> float:
    from vdvcarleman.montecarlo import substream_seed
    import numpy as np

    t0 = time.perf_counter()
    for e in ensembles:
        for i in range(e["paths"]):
            np.random.Generator(np.random.PCG64(substream_seed(e["seed"], i))).standard_normal(e["steps"])
    return time.perf_counter() - t0


def _per_call_us(fn, calls=5000, repeats=5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def floors(spans, scenario: str) -> dict:
    from vdvcarleman.experiments import builtin_scenario
    from vdvcarleman.model import drift, jacobian

    s = builtin_scenario(scenario)
    x, p = s.x0.as_array(), s.params
    ensembles = [sp["attrs"] for sp in spans if sp["name"] == "montecarlo.ensemble_moments"]
    return {
        "rng_draw_s": _rng_floor(ensembles),
        "drift_us": _per_call_us(lambda: drift(x, p)),
        "jacobian_us": _per_call_us(lambda: jacobian(x, p)),
    }


def main(argv) -> int:
    spans_path, scenario, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON SCENARIO -- CLI_ARGS...")
    tracer = Tracer(trace_id=f"{os.getpid()}")
    cli_main = install(tracer)
    code = cli_main(cli_args)
    t_done = time.perf_counter()
    measured = floors(tracer.spans, scenario)
    post_main_s = time.perf_counter() - t_done
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "floors": measured, "post_main_s": post_main_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

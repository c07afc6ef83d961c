"""The per-layer tracer of the benchmark (perfbench/tracing.py) patches
module attributes of repnorm by name; a renamed or deleted attribute would
crash a traced benchmark run, so install it here on the live modules."""

import importlib.util
from pathlib import Path

import numpy as np

from repnorm import integrals, norms, reps
from repnorm.reps import Principal

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    targets = [(module, attr) for module, attr, _ in tracer._patches()]
    originals = [getattr(module, attr) for module, attr in targets]
    tracer.install()
    try:
        for (module, attr), original in zip(targets, originals):
            assert getattr(module, attr) is not original, attr
        # one traced call through each layer the benchmark counts
        reps.coef(Principal(0.0, -0.5), 3, 0, 0.5)
        integrals.integral_series(Principal(0.5, -0.5), 3, 0.5)
        norms.scan_character(Principal(0.0, -0.5), 16,
                             norms.ScanConfig(grid_c=0.5, refine_top=1,
                                              refine_iters=8))
    finally:
        tracer.uninstall()
    for (module, attr), original in zip(targets, originals):
        assert getattr(module, attr) is original, attr
    for key in ("reps.coef.calls", "integrals.j_series.s",
                "norms.grid.points", "group.golden_min.calls"):
        assert tracer.counts.get(key, 0) > 0, key
    assert np.isfinite(tracer.self_times()["reps"])

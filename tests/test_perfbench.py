"""The benchmark's span tracer against the library.

``perfbench/spans.py`` patches library functions by name for its traced
run; a refactor that drops or renames one of them fails here.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from schurlab import cli, geometry, groups, harmonic, multiplier, symbols
from schurlab.symbols import sphere_delta

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

# boundary_project_x has no caller in schurlab, but the benchmark's tracer patches it by name
GEOMETRY_NAMES = (
    "classify", "boundary_project", "boundary_project_x", "mixed_hessian_check", "gradient", "mixed_hessian"
)
# every (module, name) pair the tracer patches
TRACED_NAMES = {
    cli: ("main",),
    geometry: GEOMETRY_NAMES,
    groups: ("multiplier_norm_lower_bound", "cotlar_pointwise_check", "boundary_subalgebra_verdict",
             "fourier_multiplier_norm_finite_cyclic", "expm"),
    harmonic: ("square_function_test", "random_trig_polynomial"),
    multiplier: ("norm_growth_experiment", "nested_grids", "discretize_symbol", "multiplier_norm_lower_bound"),
    symbols: ("from_json",),
    np.linalg: ("svd",),
    np.fft: ("fftn", "ifftn"),
}


def test_tracer_installs_and_restores_every_patched_name():
    missing = [f"{mod.__name__}.{name}" for mod, names in TRACED_NAMES.items()
               for name in names if not hasattr(mod, name)]
    assert not missing, f"the benchmark tracer perfbench/spans.py patches missing names {missing}"
    originals = {(mod, name): getattr(mod, name) for mod, names in TRACED_NAMES.items() for name in names}
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(obj, attr): original for obj, attr, original in tracer._patched}
        assert set(patched) == set(originals)
        for (mod, name), original in originals.items():
            assert patched[(mod, name)] is original
            if (mod, name) == (symbols, "from_json"):
                # the tracer wraps a closure that calls from_json and records the parsed spec
                assert getattr(mod, name) is not original and hasattr(getattr(mod, name), "__wrapped__")
            else:
                assert getattr(mod, name).__wrapped__ is original
        with np.errstate(all="ignore"):
            rep = geometry.classify(sphere_delta(2, 0.3), seed=2)
    finally:
        tracer.uninstall()
    assert rep.verdict == geometry.CURVATURE_FAIL
    for obj, attr in patched:
        assert getattr(obj, attr) is patched[(obj, attr)]
    names = [span[spans.NAME] for span in tracer.spans]
    assert {"geometry.classify", "geometry.hessian_check", "symbols.hess"} <= set(names)
    # the Hessian check evaluates all its points in one call
    assert names.count("symbols.hess") == 1


def test_traced_cotlar_job_reports_its_samples(tmp_path):
    # groups.cotlar_samples_per_s divides the span info, the samples the
    # CLI passes by keyword, by the span time
    cfg = tmp_path / "cotlar.json"
    cfg.write_text(json.dumps({"schema": "schur-lab/1", "command": "cotlar", "group": "affine",
                               "samples": 1234, "seed": 3}))
    tracer = spans.Tracer()
    tracer.job = SimpleNamespace(config={"command": "cotlar"})
    tracer.install()
    try:
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    (cotlar,) = [span for span in tracer.spans if span[spans.NAME] == "groups.cotlar"]
    assert cotlar[spans.INFO] == 1234
    assert spans.layer_metrics(tracer.spans)["groups.cotlar_samples_per_s"] > 0.0


def test_tracer_sees_the_batched_verdict():
    tracer = spans.Tracer()
    tracer.install()
    try:
        row = groups.GROUPS["sl2r"]
        verdict = groups.boundary_subalgebra_verdict(
            "sl2r", groups.named_boundary_field("sl2r", "m0"), row.make(np.array(row.g0)), seed=0
        )
    finally:
        tracer.uninstall()
    assert not verdict.passed
    names = [span[spans.NAME] for span in tracer.spans]
    assert names[0] == "groups.verdict"
    assert "groups.expm" in names
    assert all(span[spans.PARENT] >= 0 for span in tracer.spans[1:])

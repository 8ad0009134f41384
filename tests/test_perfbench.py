"""The benchmark's span tracer against the library.

``perfbench/spans.py`` patches library functions by name for its traced
run; a refactor that drops or renames one of them fails here.
"""

import sys
from pathlib import Path

import numpy as np

from schurlab import geometry, groups
from schurlab.symbols import sphere_delta

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

# boundary_project_x has no caller in schurlab, but the benchmark's tracer patches it by name
GEOMETRY_NAMES = (
    "classify", "boundary_project", "boundary_project_x", "mixed_hessian_check", "gradient", "mixed_hessian"
)


def test_tracer_installs_and_restores_every_patched_name():
    missing = [name for name in GEOMETRY_NAMES if not hasattr(geometry, name)]
    assert not missing, f"the benchmark tracer perfbench/spans.py patches missing geometry names {missing}"
    originals = {name: getattr(geometry, name) for name in GEOMETRY_NAMES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(obj, attr): original for obj, attr, original in tracer._patched}
        for name in GEOMETRY_NAMES:
            assert patched[(geometry, name)] is originals[name]
            assert getattr(geometry, name).__wrapped__ is originals[name]
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

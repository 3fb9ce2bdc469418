"""The benchmark's layer trace hooks package internals by name: `install`
wraps the public functions of seven modules, `MDSpace.create` and
`join_core.LazyIntegrals.value`, and reads the arguments and results of a few
of them. A traced run of every build route, an evaluation and an exact replay
must reach each hooked layer, so a change that renames or removes one fails
here rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import mdspline
import layertrace
from mdspline import assembler, eval_api, join_core, oracle
from mdspline.presets import preset_space

tracer = layertrace.install()
space = preset_space("test1")
for build in (assembler.build_matrix_rki, assembler.build_matrix_rde,
              assembler.build_matrix_mixed):
    bundle = build(space)
eval_api.eval_basis(bundle, 0.5)
oracle.matrix_error(bundle.matrix, oracle.exact_bundle(space, assembler.build_matrix_rki).matrix)
spans = {{tracer.names[i] for i in tracer.name}}
layers = [name for name, _, _ in layertrace.PER_LAYER]
wanted = {{"spaces.create", "c0_engine.c0_integrals", "c0_engine.eval_c0_basis",
          "join_core.cr_join", "join_core.apply_bidiagonal", "rde_core.rde_build",
          "rde_core.level_space", "assembler.auto_plan", "assembler.rde_cost",
          "eval_api.eval_basis", "oracle.matrix_error", *layertrace.BUILDS}}
missing = sorted(wanted - spans)
assert not missing, missing
assert all(any(m.startswith(name + ".") for m in layers) for name in wanted - set(layertrace.BUILDS))
assert hasattr(join_core.LazyIntegrals.value, "__wrapped__")
counts = tracer.counts
assert counts["bidiag.rows"] > 0 and counts["rde_steps"] > 0 and counts["alpha_count"] > 0
assert counts["eval.rows_scanned"] > 0 and tracer.first_evals
print("traced")
"""


def test_layer_trace_reaches_every_hooked_internal():
    code = TRACED_RUN.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("traced")

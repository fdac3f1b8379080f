import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revkit

SRC = Path(revkit.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize(
    "module",
    [
        "config", "corpus", "doc_ops", "edits", "errors", "formats",
        "intention", "metrics", "myers", "sent_align", "similarity", "trees",
    ],
)
def test_modules_that_build_no_matrix_leave_numpy_unimported(module):
    code = f"import sys, revkit.{module}; sys.exit('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert res.returncode == 0, f"importing revkit.{module} imports numpy"


def test_benchmark_hooks_resolve():
    """Every revkit name the benchmark's tracer wraps and its child calls
    must exist, or `perfbench/run.py --trace 1` breaks."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(module, attr) for module, attr, *_ in tracer.TARGETS + tracer.PAIR_TARGETS]
    hooks += [
        ("revkit.cli", "make_metric"),
        ("revkit.intention", "classify_edit_rule"),
        ("revkit.corpus", "load_corpus"),
        ("revkit.formats", "read_edit_file"),
    ]
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing

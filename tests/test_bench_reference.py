"""One pass of each benchmark workload at the default seed, whose outputs must hash to the digests
in ``bench/reference.json``, so a change to any output byte fails here and not only in a full
``bench/run.py`` run.  ``bench/`` is only read: each pass writes its inputs to a temporary
directory."""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from ewm.cli import run_command

_SPEC = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = sys.modules.setdefault(_SPEC.name, importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_one_pass_matches_the_reference_digests(tmp_path, name):
    digests = {}
    for call in workloads.build(name, workloads.DEFAULT_SEED, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert run_command(list(call.argv)) == 0, err.getvalue()
        text = call.out.read_text() if call.out is not None else out.getvalue()
        digests[call.label] = workloads.digest(text)
    assert digests == workloads.load_reference()[name]

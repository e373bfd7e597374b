import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import ewm

# Every property test sees the same examples on every run: examples derive
# from each test's name, no example database is kept, and no deadline applies.
settings.register_profile("ewm", derandomize=True, deadline=None, database=None)
settings.load_profile("ewm")

# A child interpreter turns numpy's overflow and invalid-value warnings into errors, as the suite
# does, and so any text file ewm opens without naming its encoding, which would be the locale's.
CHILD_FLAGS = ["-W", "error::RuntimeWarning", "-X", "warn_default_encoding",
               "-W", "error::EncodingWarning"]
needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")


def spec_of(weights, delta):
    return ewm.make_neighborhood(ewm.make_distribution(weights), delta)


def run_fresh(code, *argv, cwd=None, text=True, env=None):
    """``python -c code *argv`` in a fresh interpreter, under :data:`CHILD_FLAGS`, that imports
    the ewm under test, with ``env`` over this environment; its stdout and stderr are captured,
    as text or (not ``text``) bytes, and it is stopped after 120 s."""
    env = {**os.environ, "PYTHONPATH": str(Path(ewm.__file__).resolve().parents[1]), **(env or {})}
    return subprocess.run([sys.executable, *CHILD_FLAGS, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=text, timeout=120)


def peak_growth_mib(setup: str, small: str, large: str, *argv: str):
    """How far the statement ``large`` raises the peak RSS (VmHWM, in MiB) of a fresh interpreter
    (:func:`run_fresh`, given ``argv``) that has imported ewm and run ``setup``, then ``small``;
    returns that and the finished child, whose stdout ends with it."""
    code = textwrap.dedent("""
        import ewm

        def peak_kib():
            with open("/proc/self/status", encoding="ascii") as fh:
                return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    """) + "\n".join([textwrap.dedent(setup), small, "before = peak_kib()", large,
                      "print((peak_kib() - before) / 1024)"])
    done = run_fresh(code, *argv)
    assert done.returncode == 0, done.stderr
    return float(done.stdout.split()[-1]), done


def random_spec(rng, n=None, n_min=2, n_max=8):
    """Random anchor with min weight bounded away from 0 and an admissible radius."""
    if n is None:
        n = int(rng.integers(n_min, n_max + 1))
    w = rng.dirichlet(np.ones(n)) * 0.7 + 0.3 / n
    w = w / w.sum()
    return spec_of(w, float(rng.uniform(0.2, 0.9) * w.min()))


def noise_profile(n, delta):
    """The noise channel ``(1 - delta/2, delta/(2(n-1)), ...)``; J* is H(p0) minus its entropy."""
    w = np.full(n, delta / (2.0 * (n - 1)))
    w[0] = 1.0 - delta / 2.0
    return ewm.VocabDistribution(w)


def random_target(rng, spec):
    """Random target inside the ball: signed zero-sum shift with ||s||_1 <= delta."""
    z = rng.normal(size=spec.n)
    z -= z.mean()
    z *= float(rng.uniform(0.0, 1.0)) * spec.delta / np.abs(z).sum()
    return ewm.make_distribution(spec.anchor.weights + z)


def path_gain(e, verts):
    """``W`` of the path ``verts`` (vocabulary indices below ``e.n``) under ``e``, through the
    oracles' own ``_gain``."""
    return ewm.oracles._gain(e.log_scores.tolist(), tuple(verts))

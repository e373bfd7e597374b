import numpy as np
from hypothesis import settings

import ewm

# Every property test sees the same examples on every run: examples derive
# from each test's name, no example database is kept, and no deadline applies.
settings.register_profile("ewm", derandomize=True, deadline=None, database=None)
settings.load_profile("ewm")


def random_spec(rng, n=None, n_min=2, n_max=8):
    """Random anchor with min weight bounded away from 0 and an admissible radius."""
    if n is None:
        n = int(rng.integers(n_min, n_max + 1))
    w = rng.dirichlet(np.ones(n)) * 0.7 + 0.3 / n
    w = w / w.sum()
    delta = float(rng.uniform(0.2, 0.9) * w.min())
    return ewm.make_neighborhood(ewm.make_distribution(w), delta)


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

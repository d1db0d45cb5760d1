"""MC-acquisition determinism: rng-only randomness, bit-identical reruns.

The acquisition functions draw every base sample from the generator
threaded through the call — never from NumPy's legacy global state —
so a seeded BO run is exactly reproducible.  These tests pin that at
three levels: a source audit (no ``np.random.<legacy>`` calls anywhere
in the package), repeat-run bit-identity of a full :class:`BOLoop`,
and insensitivity of a seeded run to external global-state consumers.
"""

import re
from pathlib import Path

import numpy as np

import repro
from repro.bo import BOLoop, QNEI
from repro.gp import GPRegressor

SRC_ROOT = Path(repro.__file__).parent

#: legacy global-state API: np.random.<fn>( — anything except the
#: Generator construction helpers, which are rng-explicit by design
_ALLOWED = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
_NP_RANDOM_CALL = re.compile(r"np\.random\.(\w+)")


def test_no_module_level_np_random_in_package():
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in _NP_RANDOM_CALL.finditer(line):
                if m.group(1) not in _ALLOWED:
                    offenders.append(f"{path.relative_to(SRC_ROOT)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "legacy np.random global-state usage found (thread an explicit "
        "Generator instead):\n" + "\n".join(offenders)
    )


def _true_benefit(x):
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.exp(-20 * (x - 0.7) ** 2) + 0.1 * np.sin(6 * x)


class _GPAdapter:
    def __init__(self, x0, z0):
        self.x = np.atleast_2d(np.asarray(x0, dtype=float))
        self.z = np.asarray(z0, dtype=float)
        self.gp = GPRegressor().fit(self.x, self.z, rng=0)

    def sample_benefit(self, x, n_samples, rng):
        return self.gp.sample_posterior(np.atleast_2d(x), n_samples, rng=rng)

    def update(self, x, observations):
        self.x = np.vstack([self.x, np.atleast_2d(x)])
        self.z = np.concatenate([self.z, np.asarray(observations, dtype=float)])
        self.gp = GPRegressor().fit(self.x, self.z, rng=0)


def _run_loop(seed: int):
    gen = np.random.default_rng(seed)
    x0 = gen.uniform(0, 1, (5, 1))
    z0 = _true_benefit(x0)
    loop = BOLoop(
        _GPAdapter(x0, z0),
        observe=lambda xb: _true_benefit(xb),
        benefit_of=lambda obs: np.asarray(obs),
        candidates=lambda rng: rng.uniform(0, 1, (16, 1)),
        acquisition=QNEI(n_samples=32),
        batch_size=2,
        delta=1e-9,
        n_iterations=4,
        rng=seed,
    )
    return loop.run(initial_x=x0, initial_z=z0)


class TestBitIdenticalReruns:
    def test_boloop_repeat_run_bit_identical(self):
        a = _run_loop(seed=7)
        b = _run_loop(seed=7)
        assert a.best_z == b.best_z  # exact, not approx
        np.testing.assert_array_equal(a.best_x, b.best_x)
        np.testing.assert_array_equal(a.history_z, b.history_z)
        assert a.n_iterations == b.n_iterations

    def test_seeded_run_immune_to_global_state(self):
        a = _run_loop(seed=3)
        # perturb the legacy global stream between runs; a clean
        # rng-threaded implementation cannot see it
        np.random.seed(12345)
        np.random.rand(1000)
        b = _run_loop(seed=3)
        assert a.best_z == b.best_z
        np.testing.assert_array_equal(a.history_z, b.history_z)

    def test_different_seeds_diverge(self):
        a = _run_loop(seed=0)
        b = _run_loop(seed=1)
        # sanity: the seed actually reaches the sampling path
        assert not np.array_equal(a.best_x, b.best_x) or a.best_z != b.best_z


class TestAcquisitionSharedSamples:
    def test_select_batch_bit_identical_across_calls(self):
        gen_pool = np.random.default_rng(0)
        pool = gen_pool.uniform(0, 1, (32, 2))

        def sampler(x, s, rng):
            mean = np.sin(3 * x[:, 0])
            return mean[None, :] + 0.2 * rng.standard_normal((s, x.shape[0]))

        acq = QNEI(n_samples=64)
        idx1 = acq.select_batch(sampler, pool, 4, rng=42)
        v1 = acq.last_batch_value
        idx2 = acq.select_batch(sampler, pool, 4, rng=42)
        np.testing.assert_array_equal(idx1, idx2)
        assert acq.last_batch_value == v1

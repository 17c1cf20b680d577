"""Monte Carlo simulator: determinism, the exact click rule, and
agreement with the closed forms."""

import hashlib
import math

import numpy as np
import pytest

from photon_gate import (
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    IdealEmitters,
    RangeError,
    SimConfig,
    counts_from_click_arrays,
    expected_stats,
    simulate_click_arrays,
    simulate_pulses,
    stats_from_counts,
)
from photon_gate.model import photon_plan
from photon_gate.simulate import _block_clicks

from _oracles import coherent_clicks_per_photon


def pulls(counts, source, params):
    """|observed - expected| in sampling sigmas for p0, p1, p2 and each
    channel's click probability: q_i = 1 - (1 - eta_i/2)**s * exp(-lam *
    eta_i/2).  The channel rates catch a wrong routing share that p0, p1
    and p2 miss, as for one photon, where p1 = eta whatever delta is."""
    est = stats_from_counts(counts)
    ref = expected_stats(source, params)
    s, lam = photon_plan(source, params)
    n = counts.n_all
    observed = [est.p0, est.p1, est.p2,
                (counts.n_10 + counts.n_11) / n, (counts.n_01 + counts.n_11) / n]
    expected = [ref.p0, ref.p1, ref.p2,
                *(1.0 - (1.0 - eta_i / 2.0) ** s * math.exp(-lam * eta_i / 2.0)
                  for eta_i in (params.eta1, params.eta2))]
    out = []
    for got, p in zip(observed, expected):
        sigma = math.sqrt(p * (1.0 - p) / n)
        diff = abs(got - p)
        out.append(diff / sigma if sigma > 0.0 else diff)
    return out


class TestDeterminism:
    CFG = SimConfig(
        source=EmitterWithBackground(),
        params=DetectionParams(eta=0.1, delta=0.3, gamma=0.2, cycles=150_000),
        seed=123,
        block_size=1 << 14,
    )

    def test_repeatable(self):
        assert simulate_pulses(self.CFG) == simulate_pulses(self.CFG)

    def test_workers_do_not_change_results(self):
        sequential = simulate_pulses(self.CFG)
        assert simulate_pulses(self.CFG, workers=4) == sequential
        assert simulate_pulses(self.CFG, workers=7) == sequential

    def test_one_block_runs_without_a_pool(self, monkeypatch):
        cfg = SimConfig(
            source=self.CFG.source, params=self.CFG.params, seed=123,
            block_size=self.CFG.params.cycles,
        )
        sequential = simulate_pulses(cfg)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started for one block")

        monkeypatch.setattr("photon_gate.simulate.ThreadPoolExecutor", no_pool)
        assert simulate_pulses(cfg, workers=4) == sequential

    def test_seed_changes_results(self):
        other = SimConfig(
            source=self.CFG.source, params=self.CFG.params, seed=124,
            block_size=self.CFG.block_size,
        )
        assert simulate_pulses(other) != simulate_pulses(self.CFG)

    def test_click_arrays_match_tallies(self):
        a, b = simulate_click_arrays(self.CFG)
        assert counts_from_click_arrays(a, b) == simulate_pulses(self.CFG)
        a4, b4 = simulate_click_arrays(self.CFG, workers=4)
        assert np.array_equal(a, a4) and np.array_equal(b, b4)

    def test_partial_final_block(self):
        cfg = SimConfig(
            source=IdealEmitters(1),
            params=DetectionParams(eta=0.5, cycles=100_001),
            seed=9,
            block_size=1 << 16,
        )
        counts = simulate_pulses(cfg)
        assert counts.n_all == 100_001


class TestClickRule:
    """Exact consequences of the click rule."""

    def test_perfect_single_emitter_always_clicks_once(self):
        cfg = SimConfig(
            source=IdealEmitters(1),
            params=DetectionParams(eta=1.0, cycles=50_000),
            seed=5,
            block_size=1 << 12,
        )
        counts = simulate_pulses(cfg)
        assert counts.n_00 == 0 and counts.n_11 == 0
        assert counts.n_10 + counts.n_01 == counts.n_all

    def test_eta1_rounded_past_1_is_still_certain(self):
        # eta1 = (1 + delta) * eta may pass 1 within DetectionParams' tolerance; here
        # q = (eta2/2) / (1 - eta1/2) rounds to 1 + 2**-52, and is held at 1
        params = DetectionParams(eta=1.0, delta=8.699008092678392e-13, cycles=20_000)
        assert params.eta2 / 2.0 / (1.0 - params.eta1 / 2.0) > 1.0
        counts = simulate_pulses(SimConfig(source=IdealEmitters(1), params=params, seed=5))
        assert counts.n_00 == 0 and counts.n_11 == 0

    @pytest.mark.parametrize(
        "source,params",
        [
            (IdealEmitters(3), DetectionParams(eta=0.0, cycles=50_000)),
            (EmitterWithBackground(), DetectionParams(eta=0.0, gamma=0.5, cycles=50_000)),
            (Coherent(0.0), DetectionParams(eta=0.5, delta=0.3, gamma=0.0, cycles=50_000)),
        ],
        ids=("eta-0", "eta-0-background", "coherent-0-gamma-0"),
    )
    def test_no_light_never_clicks(self, source, params):
        counts = simulate_pulses(SimConfig(source=source, params=params, seed=6))
        assert counts.n_00 == counts.n_all

    @staticmethod
    def _written_out(rng, size, source, params):
        """The click rule over the block's own draws, one draw at a time:
        Poissonian light (row A, row B; none for a source without
        Poissonian light), then per fixed photon its A row and its B row.
        Every row is placed: it draws a Poisson(y * n) count of marks and
        drops each into a uniform pulse.  A light row of x detected
        photons per pulse marks its photons (y = x) when p = 1 - exp(-x)
        <= 1/2 and a marked pulse clicks; with p > 1/2 it marks its misses,
        y = -log(1 - exp(-x)), and an unmarked pulse clicks.  A photon's A
        row marks A's clicks at y = -log(1 - a), a = eta1/2.  Its B row is
        B given not A, q = (eta2/2) / (1 - a): with q <= 1/2 it marks
        B's clicks at y = -log(1 - q) and a mark on the photon's own A
        mark is dropped; with q > 1/2 it marks B's misses at y = -log(q)
        and B clicks where neither the photon's own A mark nor a miss
        landed.  Coherent pulses carry no fixed photon and Poissonian
        light of mean mu + gamma; IdealEmitters carry s photons and no
        light."""
        eta1, eta2 = params.eta1, params.eta2
        if isinstance(source, IdealEmitters):
            s, lam = source.s, 0.0
        elif isinstance(source, Coherent):
            s, lam = 0, source.mu + params.gamma
        else:
            s, lam = 1, params.gamma

        def placed(y):
            """The pulses a row of y marks per pulse marks."""
            return {rng.integers(0, size) for _ in range(rng.poisson(y * size))}

        def light(x):
            dense = -math.expm1(-x) > 0.5
            marks = placed(-math.log1p(-math.exp(-x)) if dense else x)
            return [i for i in range(size) if (i in marks) != dense]

        click_a, click_b = np.zeros(size, bool), np.zeros(size, bool)
        if lam > 0.0:
            for i in light(lam * eta1 / 2.0):
                click_a[i] = True
            for i in light(lam * eta2 / 2.0):
                click_b[i] = True
        a = eta1 / 2.0
        q = eta2 / 2.0 / (1.0 - a)
        for _ in range(s):
            own_a = placed(-math.log1p(-a))
            if q <= 0.5:
                to_b = placed(-math.log1p(-q)) - own_a
            else:
                to_b = set(range(size)) - own_a - placed(-math.log(q))
            for i in own_a:
                click_a[i] = True
            for i in to_b:
                click_b[i] = True
        return click_a, click_b

    @pytest.mark.parametrize(
        "source,eta,delta",
        [(IdealEmitters(3), 0.6, 0.25), (EmitterWithBackground(), 0.6, 0.25),
         (Coherent(0.7), 0.6, 0.25), (Coherent(3.0), 0.6, 0.25), (IdealEmitters(2), 1.0, 0.0)],
        ids=("fixed-3", "fixed-background", "coherent", "coherent-dense", "fixed-eta-1"),
    )
    def test_block_matches_written_out_rule(self, source, eta, delta):
        # Coherent(3) makes both light rows dense; at eta 0.6 and delta 0.25 a photon's B row
        # has q = 0.36 and marks its clicks; at eta = 1 (delta 0 keeps eta1 <= 1) q = 1, so the
        # B row marks no miss and B clicks wherever the photon's A did not
        params = DetectionParams(eta=eta, delta=delta, gamma=0.4, cycles=2_500)
        cfg = SimConfig(source=source, params=params, seed=31, block_size=1_000)
        for k, size in ((0, 1_000), (2, 500)):
            # block k's stream: SFC64 seeded by child k of SeedSequence(seed)
            child = np.random.SeedSequence(cfg.seed).spawn(k + 1)[k]
            rng = np.random.Generator(np.random.SFC64(child))
            want_a, want_b = self._written_out(rng, size, source, params)
            got_a, got_b = _block_clicks(cfg, k, size)
            assert np.array_equal(got_a, want_a) and np.array_equal(got_b, want_b)
            assert want_a.any() and want_b.any() and (want_a & want_b).any()

    @pytest.mark.parametrize(
        "source,params,k,size,pinned,digest",
        [(IdealEmitters(3), DetectionParams(eta=0.1, delta=0.3, cycles=1 << 16), 0, 1 << 16,
          (47929, 10930, 5799, 878), "7aa6d3ab2775da67"),
         (IdealEmitters(3), DetectionParams(eta=0.1, delta=0.3, cycles=1 << 16), 3, 1000,
          (716, 188, 85, 11), "20e3639153280b04"),
         # both light rows dense: eta1 gives x = 1.3, eta2 x = 0.7 > log 2
         (Coherent(1000.0), DetectionParams(eta=0.002, delta=0.3, gamma=0.2, cycles=1 << 16),
          0, 1 << 16, (8807, 23909, 8851, 23969), "fc9b3f7763305a70"),
         (Coherent(1000.0), DetectionParams(eta=0.002, delta=0.3, gamma=0.2, cycles=1 << 16),
          3, 1000, (152, 337, 163, 348), "495fe9542ffde826")],
        ids=("fixed-3", "fixed-3-block-3", "coherent-dense", "coherent-dense-block-3"),
    )
    def test_placed_rows_keep_their_stream(self, source, params, k, size, pinned, digest):
        # a photon's A and B rows and dense light rows place their marks; their streams are
        # pinned as (n_00, n_10, n_01, n_11) and a digest of both click arrays
        a, b = _block_clicks(SimConfig(source=source, params=params, seed=20), k, size)
        counts = counts_from_click_arrays(a, b)
        assert (counts.n_00, counts.n_10, counts.n_01, counts.n_11) == pinned
        assert hashlib.sha256(np.packbits(a).tobytes() + np.packbits(b).tobytes()
                              ).hexdigest()[:16] == digest


class TestDrawCost:
    """Every row is placed: it draws one Poisson count and places that
    many marks by one integer each, with no exponential and no uniform
    float.  A light row marks its photons when sparse and its misses when
    dense; a photon draws an A row and a B row.  Counted through a
    recording stand-in for the block's Generator."""

    N = 100_000

    @pytest.fixture
    def drawn(self, monkeypatch):
        counts = {"standard_exponential": 0, "random": 0, "poisson": [], "integers": 0,
                  "streams": []}
        generator = np.random.Generator

        class Recording:
            def __init__(self, bit_generator):
                self.rng = generator(bit_generator)
                self.start = repr(bit_generator.state)
                counts["streams"].append(self)

            def standard_exponential(self, size):
                counts["standard_exponential"] += size
                return self.rng.standard_exponential(size)

            def random(self, size):
                counts["random"] += size
                return self.rng.random(size)

            def poisson(self, lam):
                counts["poisson"].append(lam)
                return self.rng.poisson(lam)

            def integers(self, low, high, size):
                counts["integers"] += size
                return self.rng.integers(low, high, size)

        monkeypatch.setattr(np.random, "Generator", Recording)
        return counts

    @pytest.mark.parametrize(
        "source,eta",
        [(IdealEmitters(1), 0.25), (IdealEmitters(1), 1.0), (Coherent(5.0), 0.5),
         (Coherent(0.5), 0.1), (Coherent(1e4), 0.5)],
        ids=("photon", "photon-certain", "light-dense", "light-sparse", "light-certain"),
    )
    def test_row_draws_its_lesser_outcome(self, drawn, source, eta):
        params = DetectionParams(eta=eta, cycles=self.N)
        a, b = _block_clicks(SimConfig(source=source, params=params, seed=4), 0, self.N)
        # delta = gamma = 0.  A lone photon's A row has y = -log(1 - a) marks per pulse,
        # a = eta / 2, and its B row q = a / (1 - a): its B clicks, y = -log(1 - q), when
        # q <= 1/2, else its misses, y = -log(q) (0 at eta = 1); each click of the photon
        # lies under a mark of its own, so its marks are at least its hits.  Light has a row
        # per channel of x = mu * eta / 2 detected photons per pulse and marks its photons
        # (y = x) when p = 1 - exp(-x) <= 1/2, else its misses (y = -log(1 - exp(-x)))
        if isinstance(source, IdealEmitters):
            rows = [a | b]
            p_a = eta / 2.0
            q = p_a / (1.0 - p_a)
            ys = [-math.log1p(-p_a), -math.log(q) if q > 0.5 else -math.log1p(-q)]
        else:
            rows = [a, b]
            x = source.mu * eta / 2.0
            ys = [x if -math.expm1(-x) <= 0.5 else -math.log1p(-math.exp(-x))] * 2
        # a row's lesser outcome: a pulse two marks share is one outcome
        least = [min(int(r.sum()), self.N - int(r.sum())) for r in rows]
        marks = self.N * sum(ys)
        assert drawn["standard_exponential"] == 0 and drawn["random"] == 0
        assert drawn["poisson"] == pytest.approx([self.N * y for y in ys])
        assert sum(least) <= drawn["integers"]
        assert abs(drawn["integers"] - marks) <= 5.0 * math.sqrt(marks)
        if marks == 0.0:  # p = 1: exp(-2500) underflows, y = 0, and poisson(0) draws nothing
            (stream,) = drawn["streams"]
            assert repr(stream.rng.bit_generator.state) == stream.start


class TestAgainstClosedForms:
    M = 200_000

    @pytest.mark.parametrize(
        "source,params",
        [
            (IdealEmitters(2), DetectionParams(eta=0.3, delta=0.0, cycles=M)),
            (IdealEmitters(5), DetectionParams(eta=0.1, delta=0.3, cycles=M)),
            (EmitterWithBackground(), DetectionParams(eta=0.1, delta=0.3, gamma=0.5, cycles=M)),
            (Coherent(0.8), DetectionParams(eta=0.4, delta=0.2, gamma=0.1, cycles=M)),
            # dense rows (p > 1/2); the light rows place their misses
            (Coherent(1000.0), DetectionParams(eta=0.1, delta=0.3, gamma=0.2, cycles=M)),
            (Coherent(5.0), DetectionParams(eta=0.5, delta=0.3, gamma=0.2, cycles=M)),
            # rare misses: x is 4.9 on A and 2.7 on B, so a pulse misses with 0.7 % and 7.0 %
            (Coherent(15.0), DetectionParams(eta=0.5, delta=0.3, gamma=0.2, cycles=M)),
            (IdealEmitters(3), DetectionParams(eta=0.75, delta=0.3, cycles=M)),
            # eta <= 1 / 1.3 keeps eta1 = eta (1 + delta) at most 1
            (EmitterWithBackground(), DetectionParams(eta=0.75, delta=0.3, gamma=0.2, cycles=M)),
            # a photon's B row has q = 0.486 at eta 0.73 (it marks its clicks) and 0.512 at eta
            # 0.75 (its misses); the switch is at eta = 2 / (3 - delta) = 0.741
            (IdealEmitters(2), DetectionParams(eta=0.73, delta=0.3, cycles=M)),
            (IdealEmitters(2), DetectionParams(eta=0.75, delta=0.3, cycles=M)),
            (EmitterWithBackground(), DetectionParams(eta=0.73, delta=0.3, gamma=0.2, cycles=M)),
            # one photon: p1 = eta whatever delta is, so only the channel rates see its routing;
            # 1 / 1.3 is the largest eta at delta 0.3, and eta = 1 needs delta = 0
            (IdealEmitters(1), DetectionParams(eta=0.001, delta=0.3, cycles=M)),
            (IdealEmitters(1), DetectionParams(eta=0.5, delta=0.3, cycles=M)),
            (IdealEmitters(1), DetectionParams(eta=1.0 / 1.3, delta=0.3, cycles=M)),
            (IdealEmitters(1), DetectionParams(eta=1.0, delta=0.0, cycles=M)),
        ],
        ids=("two-emitters", "five-unbalanced", "emitter-bg", "coherent", "coherent-bright",
             "coherent-dense", "coherent-rare-miss", "three-dense", "emitter-bg-dense",
             "two-below-switch", "two-above-switch", "emitter-bg-below-switch",
             "one-sparse", "one-half", "one-dense", "one-certain"),
    )
    def test_within_four_sigma(self, source, params):
        counts = simulate_pulses(SimConfig(source=source, params=params, seed=777))
        assert max(pulls(counts, source, params)) < 4.0

    def test_rows_either_side_of_the_switch(self):
        # x = lam * eta_i / 2 is 0.70 on A and 0.68 on B: A's p is just above 1/2 (its misses
        # are placed) and B's just below (its photons are placed)
        params = DetectionParams(eta=0.5, delta=0.01 / 0.69, gamma=0.2, cycles=1_000_000)
        source = Coherent(2.56)
        x_a, x_b = ((source.mu + params.gamma) * e / 2.0 for e in (params.eta1, params.eta2))
        assert -math.expm1(-x_a) > 0.5 > -math.expm1(-x_b)
        counts = simulate_pulses(SimConfig(source=source, params=params, seed=12))
        assert max(pulls(counts, source, params)) < 5.0

    def test_placed_photons_do_not_cluster(self):
        # a light row is Bernoulli per pulse, so pulses i and i + 1 share an outcome of
        # probability p in (n - 1) p**2 pairs, with variance (n - 1) p**2 (1 - p**2) +
        # 2 (n - 2) (p**3 - p**4) from pairs that share a pulse.  Placed marks are a sparse
        # row's clicks (x = 0.3) and a dense row's misses (x = 1, q = exp(-1))
        n = 1_000_000
        params = DetectionParams(eta=0.5, cycles=n)
        for mu, marked in ((1.2, True), (4.0, False)):
            a, _ = simulate_click_arrays(SimConfig(source=Coherent(mu), params=params, seed=13))
            x = mu * params.eta / 2.0
            p = -math.expm1(-x) if marked else math.exp(-x)
            pairs = int(np.count_nonzero((a[:-1] == marked) & (a[1:] == marked)))
            sigma = math.sqrt((n - 1) * p**2 * (1 - p**2) + 2 * (n - 2) * (p**3 - p**4))
            assert abs(pairs - (n - 1) * p**2) < 5.0 * sigma

    def test_single_emitter_never_coincides(self):
        cfg = SimConfig(
            source=IdealEmitters(1),
            params=DetectionParams(eta=0.9, cycles=100_000),
            seed=11,
        )
        counts = simulate_pulses(cfg)
        assert counts.n_11 == 0
        st = stats_from_counts(counts)
        assert st.q == -st.mean_n  # exact, not approximate

    @pytest.mark.parametrize(
        "mu,gamma,delta",
        [(0.05, 0.0, 0.0), (0.8, 0.1, 0.2), (2.5, 0.5, 0.6)],
    )
    def test_per_photon_coherent_oracle(self, mu, gamma, delta):
        # the Poisson splitting behind expected_stats and the simulator, photon by photon
        params = DetectionParams(eta=0.4, delta=delta, gamma=gamma, cycles=self.M)
        rng = np.random.Generator(np.random.Philox(key=41))
        counts = counts_from_click_arrays(
            *coherent_clicks_per_photon(rng, mu, params, self.M)
        )
        assert max(pulls(counts, Coherent(mu), params)) < 4.0

    def test_bright_coherent_light_always_double_clicks(self):
        # one uniform per pulse and channel, however many photons arrive
        params = DetectionParams(eta=0.1, cycles=200_000)
        counts = simulate_pulses(SimConfig(source=Coherent(1e3), params=params, seed=8))
        assert counts.n_11 == counts.n_all

    def test_coherent_reference_run(self):
        mu = 0.10743456501197571
        params = DetectionParams(eta=1.0, cycles=250_000)
        counts = simulate_pulses(SimConfig(source=Coherent(mu), params=params, seed=2))
        assert max(pulls(counts, Coherent(mu), params)) < 4.0


class TestConfigValidation:
    def test_seed_range(self):
        with pytest.raises(RangeError):
            SimConfig(source=IdealEmitters(1), params=DetectionParams(eta=0.5), seed=-1)
        with pytest.raises(RangeError):
            SimConfig(source=IdealEmitters(1), params=DetectionParams(eta=0.5), seed=1 << 64)

    @pytest.mark.parametrize("field,value", [("seed", 1.0), ("block_size", 512.0)])
    def test_integral_float_runs_as_int(self, field, value):
        # cycles and s as integral floats too: each used to reach numpy as a float
        fields = dict(source=IdealEmitters(2.0),
                      params=DetectionParams(eta=0.5, cycles=2e3), seed=1, block_size=512)
        as_int = SimConfig(**fields)
        as_float = SimConfig(**{**fields, field: value})
        assert type(getattr(as_float, field)) is int
        assert simulate_pulses(as_float) == simulate_pulses(as_int)

    @pytest.mark.parametrize("workers", [0, -3, 2.5, "2"])
    @pytest.mark.parametrize("run", [simulate_pulses, simulate_click_arrays])
    def test_workers(self, run, workers):
        cfg = SimConfig(source=IdealEmitters(1), params=DetectionParams(eta=0.5), seed=1)
        with pytest.raises(RangeError, match="^workers must be a positive integer"):
            run(cfg, workers=workers)

    def test_block_size(self):
        with pytest.raises(RangeError):
            SimConfig(
                source=IdealEmitters(1), params=DetectionParams(eta=0.5),
                seed=1, block_size=0,
            )

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
from photon_gate.simulate import _batch, _block_clicks, _hits

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


class TestHits:
    """_hits: the successes of n Bernoulli(p) trials as geometric gaps."""

    @staticmethod
    def rng(seed=3):
        return np.random.Generator(np.random.SFC64(seed))

    def test_certain_outcomes(self):
        hits, route = _hits(self.rng(), 0.0, 1000, 0.5)
        assert hits.size == 0 and route.dtype == np.bool_ and route.size == 0
        hits, route = _hits(self.rng(), 1.0, 1000, 0.5)
        assert np.array_equal(hits, np.arange(1000))
        assert route.dtype == np.bool_ and route.size == 1000

    def test_vanishing_p_gives_no_hits(self):
        # E / -log1p(-1e-300) is near 1e300: clipped before the int cast
        hits, route = _hits(self.rng(), 1e-300, 1_000_000, 0.5)
        assert hits.dtype == np.int64 and hits.size == 0 and route.size == 0

    @pytest.mark.parametrize("p", [1e-5, 0.01, 0.1, 0.5, 0.9])
    def test_counts_and_order(self, p):
        n = 1_000_000
        hits, route = _hits(self.rng(), p, n, 0.5)
        assert hits.dtype == np.int64 and route.dtype == np.bool_ and route.shape == hits.shape
        assert np.all(np.diff(hits) > 0) and hits[0] >= 0 and hits[-1] < n
        assert abs(hits.size - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))

    @pytest.mark.parametrize("p", [1e-5, 0.01, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("to_b", [0.0, 0.05, 0.35, 0.5, 1.0])
    def test_route_share(self, p, to_b):
        # the fraction of each gap routes its success to B with probability to_b, whatever p
        n = 1_000_000
        hits, route = _hits(self.rng(), p, n, to_b)
        assert route.dtype == np.bool_ and route.shape == hits.shape
        m = hits.size
        assert abs(int(route.sum()) - m * to_b) <= 5.0 * math.sqrt(m * to_b * (1.0 - to_b))
        # the routes are independent of the gaps: routed and unrouted successes have one mean
        # gap (its sd is sqrt(1 - p) / p per success); at p = 1e-5 too few succeed to tell
        if 0.0 < to_b < 1.0 and 0.01 <= p < 1.0:
            gaps = np.diff(hits, prepend=-1)
            sd = math.sqrt(1.0 - p) / p
            for mask in (route, ~route):
                assert abs(gaps[mask].mean() - 1.0 / p) <= 5.0 * sd / math.sqrt(mask.sum())

    def test_short_batches_continue(self):
        class ZeroGaps:
            batches = 0

            def standard_exponential(self, size):
                self.batches += 1
                return np.zeros(size)

        rng = ZeroGaps()
        hits, route = _hits(rng, 0.1, 1000, 0.5)
        assert np.array_equal(hits, np.arange(1000))
        assert rng.batches > 2 and route.size == 1000 and route.all()  # each fraction is 0


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
        Poissonian light), then per fixed photon its detection row.  A
        photon row of Bernoulli(p) trials is walked gap by gap: each
        exponential E gives X = E * (1 / -log(1 - p)) and moves
        1 + floor(X) trials on (at most n + 1), in batches of
        _batch(p, trials left) draws, a batch's unused end discarded.  A
        detected photon goes to B when frac(X) < log1p(-p * to_b) /
        log1p(-p), to_b = eta2 / (eta1 + eta2); at eta = 1 every pulse
        detects it and one uniform per detection routes it instead.  A light row of x detected photons
        per pulse draws a Poisson(y * n) count of marks and drops each
        into a uniform pulse: with p = 1 - exp(-x) <= 1/2 the marks are
        its photons (y = x) and a marked pulse clicks; with p > 1/2 they
        are its misses, y = -log(1 - exp(-x)), and an unmarked pulse
        clicks.  Coherent pulses carry no fixed photon and Poissonian
        light of mean mu + gamma; IdealEmitters carry s photons and no
        light."""
        eta1, eta2 = params.eta1, params.eta2
        if isinstance(source, IdealEmitters):
            s, lam = source.s, 0.0
        elif isinstance(source, Coherent):
            s, lam = 0, source.mu + params.gamma
        else:
            s, lam = 1, params.gamma

        def walk(p, to_b):
            """(trial, goes to B) of each success."""
            if p == 1.0:
                return [(i, rng.random() < to_b) for i in range(size)]
            cut = math.log1p(-p * to_b) / math.log1p(-p)
            hits, start = [], 0
            while start < size:
                last = start - 1
                for _ in range(_batch(p, size - start)):
                    x = min(rng.standard_exponential() * (1.0 / -math.log1p(-p)), size)
                    last += 1 + int(x)
                    if last < size:
                        hits.append((last, x - int(x) < cut))
                start = last + 1
            return hits

        def light(x):
            dense = -math.expm1(-x) > 0.5
            y = -math.log1p(-math.exp(-x)) if dense else x
            marks = {rng.integers(0, size) for _ in range(rng.poisson(y * size))}
            return [i for i in range(size) if (i in marks) != dense]

        click_a, click_b = np.zeros(size, bool), np.zeros(size, bool)
        if lam > 0.0:
            for i in light(lam * eta1 / 2.0):
                click_a[i] = True
            for i in light(lam * eta2 / 2.0):
                click_b[i] = True
        for _ in range(s):
            for i, to_b in walk(params.eta, eta2 / (eta1 + eta2)):
                (click_b if to_b else click_a)[i] = True
        return click_a, click_b

    @pytest.mark.parametrize(
        "source,eta,delta",
        [(IdealEmitters(3), 0.6, 0.25), (EmitterWithBackground(), 0.6, 0.25),
         (Coherent(0.7), 0.6, 0.25), (Coherent(3.0), 0.6, 0.25), (IdealEmitters(2), 1.0, 0.0)],
        ids=("fixed-3", "fixed-background", "coherent", "coherent-dense", "fixed-eta-1"),
    )
    def test_block_matches_written_out_rule(self, source, eta, delta):
        # Coherent(3) makes both light rows dense; at eta = 1 (delta 0 keeps eta1 <= 1) a
        # photon row draws no exponential and routes by uniforms
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
          (47671, 11315, 5746, 804), "21ca9b97d0d16af5"),
         (IdealEmitters(3), DetectionParams(eta=0.1, delta=0.3, cycles=1 << 16), 3, 1000,
          (720, 177, 95, 8), "dda2ad1dd8bb371e"),
         # both light rows dense: eta1 gives x = 1.3, eta2 x = 0.7 > log 2
         (Coherent(1000.0), DetectionParams(eta=0.002, delta=0.3, gamma=0.2, cycles=1 << 16),
          0, 1 << 16, (8807, 23909, 8851, 23969), "fc9b3f7763305a70"),
         (Coherent(1000.0), DetectionParams(eta=0.002, delta=0.3, gamma=0.2, cycles=1 << 16),
          3, 1000, (152, 337, 163, 348), "495fe9542ffde826")],
        ids=("fixed-3", "fixed-3-block-3", "coherent-dense", "coherent-dense-block-3"),
    )
    def test_walked_rows_keep_their_stream(self, source, params, k, size, pinned, digest):
        # photon rows are walked by _hits and dense light rows place their misses; their
        # streams are pinned as (n_00, n_10, n_01, n_11) and a digest of both click arrays
        a, b = _block_clicks(SimConfig(source=source, params=params, seed=20), k, size)
        counts = counts_from_click_arrays(a, b)
        assert (counts.n_00, counts.n_10, counts.n_01, counts.n_11) == pinned
        assert hashlib.sha256(np.packbits(a).tobytes() + np.packbits(b).tobytes()
                              ).hexdigest()[:16] == digest


class TestDrawCost:
    """A photon row costs its hits in exponentials.  A light row draws one
    Poisson count and places that many marks by one integer each, with no
    exponential: its photons when sparse, its misses when dense.  A photon
    row draws uniforms only at eta = 1, one per detection.  Counted
    through a recording stand-in for the block's Generator."""

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
        # a lone photon's row succeeds where either channel clicks (at eta 0.25 its hits are
        # its lesser outcome); light has a row per channel
        rows = [a | b] if isinstance(source, IdealEmitters) else [a, b]
        least = [min(int(r.sum()), self.N - int(r.sum())) for r in rows]
        if isinstance(source, Coherent):
            # delta = gamma = 0: each light row has x = mu * eta / 2 detected photons per pulse
            # and y * N marks, Poisson: its photons (y = x) when p = 1 - exp(-x) <= 1/2, else
            # its misses (y = -log(1 - exp(-x))); a pulse two marks share is one outcome
            x = source.mu * eta / 2.0
            y = x if -math.expm1(-x) <= 0.5 else -math.log1p(-math.exp(-x))
            marks = 2 * self.N * y
            assert drawn["standard_exponential"] == 0
            assert drawn["poisson"] == pytest.approx([self.N * y] * 2)
            assert sum(least) <= drawn["integers"]
            assert abs(drawn["integers"] - marks) <= 5.0 * math.sqrt(marks)
            if marks == 0.0:  # p = 1: exp(-2500) underflows, y = 0, and poisson(0) draws nothing
                (stream,) = drawn["streams"]
                assert repr(stream.rng.bit_generator.state) == stream.start
        else:
            if sum(least) == 0:  # eta = 1: no gap to draw
                assert drawn["standard_exponential"] == 0
            else:
                # the batch overshoots the row's hits by at most its 4-sigma margin and 16
                slack = sum(8.0 * math.sqrt(m) + 32 for m in least)
                assert sum(least) < drawn["standard_exponential"] <= sum(least) + slack
            assert drawn["poisson"] == [] and drawn["integers"] == 0
        # a photon is routed by the fraction of its gap, or by one uniform per detection at
        # eta = 1, where the row draws no gap; light is never routed
        assert drawn["random"] == (self.N if eta == 1.0 else 0)


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
            # one photon: p1 = eta whatever delta is, so only the channel rates see its routing;
            # 1 / 1.3 is the largest eta at delta 0.3, and eta = 1 needs delta = 0
            (IdealEmitters(1), DetectionParams(eta=0.001, delta=0.3, cycles=M)),
            (IdealEmitters(1), DetectionParams(eta=0.5, delta=0.3, cycles=M)),
            (IdealEmitters(1), DetectionParams(eta=1.0 / 1.3, delta=0.3, cycles=M)),
            (IdealEmitters(1), DetectionParams(eta=1.0, delta=0.0, cycles=M)),
        ],
        ids=("two-emitters", "five-unbalanced", "emitter-bg", "coherent", "coherent-bright",
             "coherent-dense", "coherent-rare-miss", "three-dense", "emitter-bg-dense",
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

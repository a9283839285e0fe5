"""Open-loop traffic generation: seeded arrival processes and reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import (
    TrafficReport,
    TrafficSpec,
    generate_arrivals,
    make_input,
    percentile_ns,
)
from repro.serve.traffic import PAYLOAD_CHUNK, iter_payloads


def spec(**kw) -> TrafficSpec:
    base = dict(name="t", process="poisson", rate_rps=100_000.0, requests=64)
    base.update(kw)
    return TrafficSpec(**base)


class TestSpecValidation:
    def test_unknown_process_rejected(self):
        with pytest.raises(ConfigError, match="arrival process"):
            spec(process="lunar")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigError, match="rate_rps"):
            spec(rate_rps=0.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigError, match="requests"):
            spec(requests=0)

    def test_diurnal_depth_bounds(self):
        with pytest.raises(ConfigError, match="diurnal_depth"):
            spec(diurnal_depth=1.0)
        spec(diurnal_depth=0.0)  # boundary is fine

    def test_mismatched_size_weights_rejected(self):
        with pytest.raises(ConfigError, match="size_weights"):
            spec(sizes=(256, 512), size_weights=(1.0,))

    def test_mean_gap_follows_rate(self):
        assert spec(rate_rps=1e6).mean_gap_ns == pytest.approx(1000.0)


class TestGenerator:
    def test_deterministic_per_seed(self):
        s = spec()
        assert generate_arrivals(s, 5) == generate_arrivals(s, 5)
        assert generate_arrivals(s, 5) != generate_arrivals(s, 6)

    @pytest.mark.parametrize("process", ["poisson", "bursty", "diurnal"])
    def test_every_process_generates_a_full_sorted_stream(self, process):
        s = spec(process=process, requests=100)
        arrivals = generate_arrivals(s, 3)
        assert len(arrivals) == 100
        times = [a.t_ns for a in arrivals]
        assert times == sorted(times)
        assert all(a.t_ns > 0 for a in arrivals)
        assert [a.index for a in arrivals] == list(range(100))
        assert all(a.n in s.sizes for a in arrivals)

    def test_deadline_is_arrival_plus_slo(self):
        s = spec(slo_ns=123_456.0)
        for a in generate_arrivals(s, 1):
            assert a.deadline_ns == pytest.approx(a.t_ns + 123_456.0)

    def test_bursty_lands_same_tick_bursts(self):
        s = spec(process="bursty", requests=64, burst_mean=6.0)
        arrivals = generate_arrivals(s, 2)
        times = [a.t_ns for a in arrivals]
        # at burst_mean 6 some epoch must carry more than one arrival
        assert len(set(times)) < len(times)

    def test_size_weights_skew_the_mix(self):
        s = spec(
            requests=400,
            sizes=(256, 4096),
            size_weights=(0.95, 0.05),
        )
        arrivals = generate_arrivals(s, 4)
        small = sum(1 for a in arrivals if a.n == 256)
        assert small > 300

    def test_poisson_mean_rate_roughly_matches(self):
        s = spec(requests=500, rate_rps=1e6)
        arrivals = generate_arrivals(s, 9)
        span_s = arrivals[-1].t_ns / 1e9
        realized = len(arrivals) / span_s
        assert realized == pytest.approx(1e6, rel=0.25)

    def test_make_input_exact_in_fp16(self):
        rng = np.random.default_rng(0)
        x = make_input(rng, 4096, np.float16)
        assert x.dtype == np.float16
        assert float(np.abs(x).max()) <= 2.0

    @pytest.mark.parametrize("dtype", [np.float16, np.int8])
    def test_make_input_table_cast_matches_astype(self, dtype):
        """The table cast keeps the payload stream bit for bit: same
        draws, same dtype, same bytes as casting every element, and the
        same generator state after a run of payloads."""
        rng = np.random.default_rng(5)
        want_rng = np.random.default_rng(5)
        for n in (3000, 3, 16384):
            got = make_input(rng, n, dtype)
            want = want_rng.integers(-2, 3, n).astype(dtype)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state


def _bits(x: np.ndarray) -> np.ndarray:
    """The payload's raw bits: the uint16 view of fp16, int8 as is."""
    return x.view(np.uint16) if x.dtype == np.float16 else x


def _per_arrival(seed, sizes, dtype):
    """One draw and one ``astype`` per payload — the recipe the chunked
    draws must reproduce — plus the generator afterwards."""
    rng = np.random.default_rng(seed)
    return [rng.integers(-2, 3, n).astype(dtype) for n in sizes], rng


class TestChunkedPayloads:
    """``iter_payloads`` draws many payloads per ``rng.integers`` call;
    the bytes and the generator state must equal one call per payload."""

    def _check(self, sizes, dtype, seed=0):
        rng = np.random.default_rng(seed)
        got = list(iter_payloads(rng, sizes, dtype))
        want, want_rng = _per_arrival(seed, sizes, dtype)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(_bits(g), _bits(w))
        assert rng.bit_generator.state == want_rng.bit_generator.state
        return got

    @pytest.mark.parametrize("dtype", [np.float16, np.int8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_stream_matches_per_arrival_draws(self, dtype, seed):
        sizes = np.random.default_rng(seed + 10).choice(
            [1, 3, 1024, 4096, 16384], 300, p=[0.1, 0.1, 0.4, 0.3, 0.1]
        )
        self._check(sizes, dtype, seed)

    @pytest.mark.parametrize("dtype", [np.float16, np.int8])
    def test_chunk_boundaries(self, dtype):
        c = PAYLOAD_CHUNK
        # exactly one chunk, one element over, a split right at the
        # boundary, and odd sizes whose 32-bit draws straddle it
        for sizes in ([c], [c // 2, c // 2, 1], [c - 1, 1, 1],
                      [c - 3, 5, c - 7, 11], [7] * 5 + [c - 35, 3]):
            self._check(sizes, dtype)

    @pytest.mark.parametrize("dtype", [np.float16, np.int8])
    def test_single_size_larger_than_the_chunk(self, dtype):
        c = PAYLOAD_CHUNK
        got = self._check([5, 2 * c + 3, 9], dtype)
        assert got[1].size == 2 * c + 3

    def test_chunks_are_bounded_and_drawn_lazily(self):
        rng = np.random.default_rng(3)
        stream = iter_payloads(rng, [PAYLOAD_CHUNK // 4] * 9, np.float16)
        first = next(stream)
        # one chunk holds four payloads; nothing beyond it is drawn yet
        assert first.base is not None
        assert first.base.size == PAYLOAD_CHUNK
        untouched = np.random.default_rng(3)
        untouched.integers(-2, 3, PAYLOAD_CHUNK)
        assert rng.bit_generator.state == untouched.bit_generator.state


class TestReport:
    def test_percentile_nearest_rank(self):
        # same nearest-rank convention as ServiceStats' percentiles:
        # index round(q * (n - 1)) into the sorted values
        vals = [float(v) for v in range(1, 101)]
        assert percentile_ns(vals, 0.50) == 51.0
        assert percentile_ns(vals, 0.99) == 99.0
        assert percentile_ns(vals, 1.0) == 100.0
        assert percentile_ns(vals, 0.0) == 1.0
        assert percentile_ns([], 0.5) == 0.0

    def test_accounting_identity(self):
        r = TrafficReport(
            spec="t", seed=0, policy="continuous",
            offered=10, served=7, shed=2, failed=1,
        )
        assert r.accounted()
        r.failed = 0
        assert not r.accounted()

    def test_goodput_counts_only_deadline_hits(self):
        r = TrafficReport(
            spec="t", seed=0, policy="continuous",
            offered=4, served=4, deadline_met=2, span_ns=2e9,
        )
        assert r.goodput_rps == pytest.approx(1.0)
        assert r.offered_rps == pytest.approx(2.0)

    def test_describe_mentions_the_tail(self):
        r = TrafficReport(
            spec="t", seed=0, policy="naive",
            offered=1, served=1, deadline_met=1, span_ns=1e9,
            latencies_ns=[5000.0],
        )
        text = r.describe()
        assert "p99" in text and "p999" in text and "naive" in text

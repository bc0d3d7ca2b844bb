"""Tests of the GPU latency model: Figure 12, the priced forward, the serving closed forms."""

from __future__ import annotations

import re

import pytest

from repro.errors import ConfigurationError
from repro.gpu import (
    batching_occupancy,
    continuous_batching,
    figure12_latencies,
    forward_ms,
    fp16_latency_ms,
    get_gpu,
    int8_latency_ms,
    paged_attention_gather,
    per_channel_latency_ms,
    preemption,
    prefix_caching,
    sharded_serving,
    speculation,
    tender_software_latency_ms,
    tracing_overhead,
)
from repro.gpu.latency import _scheme_latencies_ms
from repro.models import ModelShape, get_zoo_entry

SCHEMES = {"FP16", "INT8 (per-tensor)", "INT8 (per-row)", "INT8 (per-channel)", "Tender SW"}
PAPER = ModelShape(d_model=4096, d_ff=16384, num_heads=32, num_layers=32)
FOUR_LAYERS = ModelShape(d_model=4096, d_ff=16384, num_heads=32, num_layers=4)


class TestDevices:
    def test_known_devices(self):
        assert get_gpu("rtx3090").name == "RTX 3090"
        assert get_gpu("A100").fp16_tflops > get_gpu("rtx3090").fp16_tflops

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError):
            get_gpu("h100")


class TestLatencyModel:
    DIMS = dict(m=2048, k=4096, n=4096)

    def test_int8_faster_than_fp16_when_saturated(self):
        device = get_gpu("rtx3090")
        assert int8_latency_ms(**self.DIMS, device=device) < fp16_latency_ms(**self.DIMS, device=device)

    def test_per_channel_slower_than_fp16(self):
        device = get_gpu("rtx3090")
        assert per_channel_latency_ms(**self.DIMS, device=device) > fp16_latency_ms(
            **self.DIMS, device=device
        )

    def test_tender_sw_between_int8_and_fp16(self):
        device = get_gpu("rtx3090")
        tender = tender_software_latency_ms(**self.DIMS, device=device, num_groups=8)
        assert int8_latency_ms(**self.DIMS, device=device) < tender < fp16_latency_ms(
            **self.DIMS, device=device
        ) * 1.05

    def test_more_groups_cost_more_in_software(self):
        device = get_gpu("a100")
        few = tender_software_latency_ms(**self.DIMS, device=device, num_groups=4)
        many = tender_software_latency_ms(**self.DIMS, device=device, num_groups=16)
        assert many > few

    def test_figure12_normalization(self):
        latencies = figure12_latencies(2048, 4096, 4096, "rtx3090")
        assert latencies["FP16"].normalized_to_fp16 == pytest.approx(1.0)
        assert latencies["INT8 (per-tensor)"].normalized_to_fp16 < 1.0
        assert latencies["INT8 (per-channel)"].normalized_to_fp16 > 1.0
        assert latencies["Tender SW"].normalized_to_fp16 < 1.0

    def test_small_gemm_underutilization_shrinks_int8_gains(self):
        """The paper's A100 observation: small GEMMs do not benefit from INT8."""
        device = get_gpu("a100")
        small_ratio = int8_latency_ms(64, 512, 512, device) / fp16_latency_ms(64, 512, 512, device)
        big_ratio = int8_latency_ms(4096, 8192, 8192, device) / fp16_latency_ms(4096, 8192, 8192, device)
        assert small_ratio > big_ratio

    @pytest.mark.parametrize("num_groups", [0, -3])
    def test_rejects_fewer_than_one_group(self, num_groups):
        """Used to return the one-group price for any ``num_groups < 1``."""
        with pytest.raises(ConfigurationError, match=f"num_groups must be an integer >= 1, got {num_groups}"):
            tender_software_latency_ms(**self.DIMS, device=get_gpu("rtx3090"), num_groups=num_groups)
        with pytest.raises(ConfigurationError, match="num_groups"):
            figure12_latencies(2048, 4096, 4096, "rtx3090", num_groups=num_groups)

    @pytest.mark.parametrize("empty", ["m", "k", "n"])
    def test_rejects_an_empty_gemm(self, empty):
        """Used to price it: Tender SW "1.88x FP16" on a GEMM with no rows."""
        dims = dict(self.DIMS, **{empty: 0})
        with pytest.raises(ConfigurationError, match=f"{empty}=0"):
            figure12_latencies(dims["m"], dims["k"], dims["n"], "rtx3090")
        for price in (fp16_latency_ms, int8_latency_ms, per_channel_latency_ms, tender_software_latency_ms):
            with pytest.raises(ConfigurationError, match=f"{empty}=0"):
                price(**dims, device=get_gpu("rtx3090"))

    def test_rejects_a_fractional_gemm(self):
        """``figure12_latencies(2.5, ...)`` used to price a GEMM of two and a half rows."""
        with pytest.raises(ConfigurationError, match="integers >= 1, got m=2.5"):
            figure12_latencies(2.5, 64, 64, "rtx3090")
        with pytest.raises(ConfigurationError, match="num_groups must be an integer >= 1, got 2.5"):
            figure12_latencies(64, 64, 64, "rtx3090", num_groups=2.5)


class TestForward:
    def test_gemm_enumeration(self):
        shape = ModelShape(d_model=64, d_ff=128, num_heads=4, num_layers=3)
        assert list(shape.gemms(2, 16)) == [
            ("qkv_proj", 2, 64, 64, 3),              # projections are batch-rows GEMMs
            ("attention_scores", 2, 16, 16, 4),      # X_Q X_K^T attends the cache, once per head
            ("attention_values", 2, 16, 16, 4),
            ("out_proj", 2, 64, 64, 1),
            ("fc1", 2, 64, 128, 1),
            ("fc2", 2, 128, 64, 1),
        ]  # no LM head when vocab == 0
        with_head = ModelShape(d_model=64, d_ff=128, num_heads=4, num_layers=3, vocab=100)
        assert list(with_head.gemms(2, 16))[-1] == ("lm_head", 2, 64, 100, 1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(num_layers=0), "num_layers must be an integer >= 1, got 0"),
            (dict(vocab=-1), "vocab must be an integer >= 0, got -1"),
            (dict(d_model=65), "divisible by num_heads, got 65 and 4"),
            (dict(d_model=64.0), "d_model must be an integer >= 1, got 64.0"),
            (dict(d_ff=128.5), "d_ff must be an integer >= 1, got 128.5"),
            (dict(num_heads=4.0), "num_heads must be an integer >= 1, got 4.0"),
            (dict(num_layers=1.5), "num_layers must be an integer >= 1, got 1.5"),
            (dict(vocab=10.0), "vocab must be an integer >= 0, got 10.0"),
        ],
    )
    def test_rejects_bad_dimensions(self, fields, message):
        """A float field used to pass; ``num_layers=1.5`` failed late in list repetition."""
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            ModelShape(**dict(dict(d_model=64, d_ff=64, num_heads=4), **fields))

    @pytest.mark.parametrize(
        "rows, context, num_groups, message",
        [
            (0, 1, 8, "rows must be an integer >= 1, got 0"),
            (1, 0, 8, "context must be an integer >= 1, got 0"),
            (-2, 16, 8, "rows must be an integer >= 1, got -2"),
            (2.5, 16, 8, "rows must be an integer >= 1, got 2.5"),
            (2, 16.5, 8, "context must be an integer >= 1, got 16.5"),
            (2, 16, 2.5, "num_groups must be an integer >= 1, got 2.5"),
        ],
    )
    def test_rejects_an_empty_forward(self, rows, context, num_groups, message):
        """Fractional rows and contexts used to be priced, a fractional group count a bare ``TypeError``."""
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            forward_ms(PAPER, rows, context, "rtx3090", num_groups=num_groups)

    def test_paper_shape_comes_from_the_zoo(self):
        assert get_zoo_entry("opt-6.7b-sim").paper_shape == PAPER
        assert get_zoo_entry("llama-2-70b-sim").paper_shape.d_head == 128

    def test_all_schemes_priced(self):
        latencies = forward_ms(PAPER, 8, 512, "rtx3090")
        assert set(latencies) == SCHEMES
        assert all(milliseconds > 0 for milliseconds in latencies.values())

    def test_tender_sw_pays_per_group_kernels_in_decode(self):
        """Skinny decode GEMMs make the per-group launches dominate: Tender SW
        lands clearly above single-kernel INT8, the gap Figure 13 motivates."""
        latencies = forward_ms(PAPER, 8, 512, "rtx3090")
        assert latencies["Tender SW"] > latencies["INT8 (per-tensor)"]
        assert forward_ms(PAPER, 8, 512, "rtx3090", num_groups=16)["Tender SW"] > latencies["Tender SW"]

    def test_longer_context_and_more_rows_cost_more(self):
        short = forward_ms(PAPER, 8, 64, "a100")
        assert forward_ms(PAPER, 8, 2048, "a100")["FP16"] > short["FP16"]
        assert forward_ms(PAPER, 64, 64, "a100")["FP16"] > short["FP16"]

    def test_accumulation_order_is_part_of_the_committed_bits(self):
        """GEMM by GEMM in execution order, the LM head last.

        The literals are the parent commit's ``decode_step_latencies``; they
        feed every ``analytic_*`` entry of ``BENCH_serving.json``.  Float
        addition does not associate, so a layer sum times ``num_layers`` is a
        different number.
        """
        with_head = ModelShape(d_model=4096, d_ff=16384, num_heads=32, num_layers=32, vocab=512)
        assert forward_ms(with_head, 3, 40, "rtx3090") == {
            "FP16": 15.844460854700847,
            "INT8 (per-tensor)": 8.967566222222228,
            "INT8 (per-row)": 9.146917546666668,
            "INT8 (per-channel)": 17.91349716239321,
            "Tender SW": 23.749513555555517,
        }
        assert forward_ms(PAPER, 3, 40, "rtx3090")["Tender SW"] == 23.68309770940167
        device = get_gpu("rtx3090")
        in_order = dict.fromkeys(SCHEMES, 0.0)
        # Q, K and V three GEMMs; each attention matmul one GEMM over rows x heads.
        qkv, attention = [(3, 4096, 4096)] * 3, [(3 * 32, 128, 40), (3 * 32, 40, 128)]
        layer = qkv + attention + [(3, 4096, 4096), (3, 4096, 16384), (3, 16384, 4096)]
        for m, k, n in layer * 32 + [(3, 4096, 512)]:
            for scheme, milliseconds in _scheme_latencies_ms(m, k, n, device, 8).items():
                in_order[scheme] += milliseconds
        assert forward_ms(with_head, 3, 40, "rtx3090") == in_order


# ----------------------------------------------------------------------
# What every scenario shares: one table, one parametrized test each
# ----------------------------------------------------------------------
#: ``(function, valid scenario keywords, shape)`` — the point every class below perturbs.
SCENARIOS = {
    "continuous_batching": (continuous_batching, dict(max_batch=8, context=256), PAPER),
    "prefix_caching": (
        prefix_caching, dict(prompt_tokens=140, mean_new_tokens=8.0, hit_rate=0.8, batch=4), FOUR_LAYERS
    ),
    "speculation": (speculation, dict(draft_tokens=4, accept_rate=0.8, context=160, batch=4), FOUR_LAYERS),
    "paged_attention_gather": (paged_attention_gather, dict(batch=8, context=2048), FOUR_LAYERS),
    "preemption": (
        preemption,
        dict(victim_context=512, resume_hit_rate=0.9, high_prompt_tokens=64, expected_wait_steps=128.0, batch=4),
        FOUR_LAYERS,
    ),
    "sharded_serving": (
        sharded_serving, dict(batch=16, context=512), ModelShape(4096, 16384, 32, num_layers=32, vocab=32000)
    ),
    "tracing_overhead": (tracing_overhead, dict(events_per_step=7.5, batch=3, context=34), PAPER),
}  # fmt: skip


def table(name, device_name="a100", **overrides):
    function, valid, shape = SCENARIOS[name]
    keywords = dict(valid, shape=shape, device_name=device_name)
    keywords.update(overrides)
    return function(**keywords)


#: ``(scenario, bad keywords, what the error names)`` — one row per range check.
REJECTED = [
    ("continuous_batching", dict(max_batch=0), "max_batch must be >= 1, got 0"),
    ("continuous_batching", dict(offered_load=0.0), "offered_load must be > 0, got 0.0"),
    ("continuous_batching", dict(context=0), "context must be an integer >= 1, got 0"),
    ("prefix_caching", dict(hit_rate=1.5), "hit_rate must lie in [0, 1], got 1.5"),
    ("prefix_caching", dict(prompt_tokens=1), "prompt_tokens must be >= 2 (the last always runs), got 1"),
    ("prefix_caching", dict(mean_new_tokens=0.0), "mean_new_tokens must be >= 1, got 0.0"),
    ("prefix_caching", dict(batch=0), "batch must be >= 1, got 0"),
    ("speculation", dict(draft_tokens=0), "draft_tokens must be >= 1, got 0"),
    ("speculation", dict(accept_rate=1.5), "accept_rate must lie in [0, 1], got 1.5"),
    ("speculation", dict(draft_cost_ratio=-0.1), "draft_cost_ratio must be >= 0, got -0.1"),
    ("speculation", dict(batch=0), "rows must be an integer >= 1, got 0"),
    ("paged_attention_gather", dict(kv_bytes_per_element=0), "kv_bytes_per_element must be >= 1, got 0"),
    ("paged_attention_gather", dict(batch=0), "rows must be an integer >= 1, got 0"),
    ("preemption", dict(victim_context=0), "victim_context must be >= 1, got 0"),
    ("preemption", dict(resume_hit_rate=1.5), "resume_hit_rate must lie in [0, 1], got 1.5"),
    ("preemption", dict(high_prompt_tokens=0), "high_prompt_tokens must be >= 1, got 0"),
    ("preemption", dict(expected_wait_steps=-1.0), "expected_wait_steps must be >= 0, got -1.0"),
    ("preemption", dict(batch=0), "batch must be >= 1, got 0"),
    ("sharded_serving", dict(num_shards=0), "num_shards must be >= 1, got 0"),
    ("sharded_serving", dict(num_shards=64), "num_shards must not exceed num_heads, got 64 > 32"),
    ("sharded_serving", dict(num_replicas=0), "num_replicas must be >= 1, got 0"),
    ("sharded_serving", dict(num_shards=2, failure_rate=1.0), "failure_rate must lie in [0, 1), got 1.0"),
    ("sharded_serving", dict(num_shards=2, link_bandwidth_gb_s=0.0), "sane, got 5.0 us, 0.0 GB/s"),
    ("sharded_serving", dict(link_latency_us=-1.0), "latency/bandwidth"),
    ("sharded_serving", dict(resume_hit_rate=-0.1), "resume_hit_rate must lie in [0, 1], got -0.1"),
    ("sharded_serving", dict(retry_backoff_steps=-1.0), "retry_backoff_steps must be >= 0, got -1.0"),
    ("sharded_serving", dict(batch=0), "rows must be an integer >= 1, got 0"),
    ("sharded_serving", dict(context=0), "context must be an integer >= 1, got 0"),
    ("tracing_overhead", dict(events_per_step=-1.0), "events_per_step must be >= 0, got -1.0"),
    ("tracing_overhead", dict(guard_sites_per_step=-1.0), "guard_sites_per_step must be >= 0, got -1.0"),
    ("tracing_overhead", dict(batch=0), "rows must be an integer >= 1, got 0"),
    ("tracing_overhead", dict(context=0), "context must be an integer >= 1, got 0"),
]  # fmt: skip


class TestEveryScenario:
    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("device_name", ["a100", "rtx3090"])
    def test_table_covers_every_scheme(self, name, device_name):
        rows = table(name, device_name)
        assert set(rows) == SCHEMES
        fields = set(rows["FP16"])
        for row in rows.values():
            assert set(row) == fields
            assert all(value >= 0.0 for value in row.values())

    @pytest.mark.parametrize("name, bad, message", REJECTED)
    def test_rejects_bad_parameters(self, name, bad, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            table(name, **bad)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_scenario_parameters_are_keyword_only(self, name):
        function, valid, shape = SCENARIOS[name]
        with pytest.raises(TypeError):
            function(shape, "a100", **valid)

    @pytest.mark.parametrize(
        "name, field, rows, context",
        [
            ("speculation", "baseline_tokens_per_s", 4, 160),
            ("paged_attention_gather", "fused_tokens_per_s", 8, 2048),
            ("sharded_serving", "tokens_per_s", 16, 512),
            ("tracing_overhead", "tokens_per_s", 3, 34),
        ],
    )
    def test_baseline_throughput_is_batch_over_the_priced_decode_step(self, name, field, rows, context):
        step = forward_ms(SCENARIOS[name][2], rows, context, "rtx3090")
        rates = table(name, "rtx3090")
        for scheme in SCHEMES:
            assert rates[scheme][field] == rows / (step[scheme] * 1e-3)
        assert rates["INT8 (per-tensor)"][field] > rates["Tender SW"][field]


class TestContinuousBatching:
    def test_saturated_speedup_is_the_harmonic_number(self):
        expected = sum(1.0 / i for i in range(1, 9))
        assert batching_occupancy(max_batch=8)["speedup"] == pytest.approx(expected)
        # The gain grows with batch size but only logarithmically.
        assert batching_occupancy(max_batch=32)["speedup"] > expected
        assert batching_occupancy(max_batch=1)["speedup"] == pytest.approx(1.0)
        assert batching_occupancy(max_batch=4)["speedup"] == pytest.approx(25 / 12)

    def test_light_load_collapses_the_gap(self):
        light = batching_occupancy(max_batch=8, offered_load=0.05)
        assert light["speedup"] == pytest.approx(1.0)
        assert light["continuous"] == pytest.approx(8 * 0.05)

    def test_both_disciplines_pay_the_same_step(self):
        rows = table("continuous_batching")
        step = forward_ms(PAPER, 8, 256, "a100")
        for scheme, row in rows.items():
            assert row["continuous_tokens_per_s"] > row["static_tokens_per_s"] > 0.0
            assert row["continuous_tokens_per_s"] == 8 / (step[scheme] * 1e-3)
            assert row["speedup"] == batching_occupancy(max_batch=8)["speedup"]

    def test_occupancy_rejects_what_the_table_rejects(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            batching_occupancy(max_batch=0)
        with pytest.raises(ConfigurationError, match="offered_load"):
            batching_occupancy(max_batch=4, offered_load=-1.0)


class TestPrefixCaching:
    def test_zero_hit_rate_is_the_cold_baseline(self):
        for scheme, row in table("prefix_caching", "rtx3090", hit_rate=0.0).items():
            assert row["speedup"] == pytest.approx(1.0), scheme

    def test_speedup_grows_with_hit_rate_and_is_bounded_by_decode(self):
        speedups = [
            table("prefix_caching", "rtx3090", hit_rate=hit_rate)["Tender SW"]["speedup"]
            for hit_rate in (0.0, 0.4, 0.8, 1.0)
        ]
        assert speedups == sorted(set(speedups))
        # Even a perfect hit still prefills the final token and pays every
        # decode step, so the speedup stays below prefill+decode over decode.
        full = table("prefix_caching", "rtx3090", hit_rate=1.0)["Tender SW"]
        cold_ms = 8.0 / full["cold_tokens_per_s"] * 1e3
        decode_only_ms = 8.0 * forward_ms(FOUR_LAYERS, 4, 140 + 8, "rtx3090")["Tender SW"] / 4
        assert speedups[-1] < cold_ms / decode_only_ms

    def test_suffix_always_recomputes_the_final_token(self):
        """A full hit costs a one-row prefill plus the request's share of decode."""
        full = table("prefix_caching", "rtx3090", hit_rate=1.0)
        one_row = forward_ms(FOUR_LAYERS, 1, 140, "rtx3090")
        decode = forward_ms(FOUR_LAYERS, 4, 140 + 8, "rtx3090")
        for scheme, row in full.items():
            assert row["cached_tokens_per_s"] == 8.0 / ((one_row[scheme] + 8.0 * decode[scheme] / 4) * 1e-3)

    def test_caching_beats_cold(self):
        for row in table("prefix_caching").values():
            assert row["cached_tokens_per_s"] > row["cold_tokens_per_s"] > 0.0
            assert row["speedup"] > 1.0


class TestSpeculation:
    def test_expected_tokens_per_step(self):
        # E[m] = (1 - p^(k+1)) / (1 - p): accepted run plus the bonus token.
        def expected(**overrides):
            return table("speculation", **overrides)["FP16"]["expected_tokens_per_step"]

        assert expected(accept_rate=0.8, draft_tokens=4) == pytest.approx((1.0 - 0.8**5) / 0.2)
        assert expected(accept_rate=0.0) == 1.0
        assert expected(accept_rate=1.0, draft_tokens=4) == 5.0

    def test_speedup_grows_with_accept_rate(self):
        speedups = [
            table("speculation", "rtx3090", accept_rate=accept_rate)["Tender SW"]["speedup"]
            for accept_rate in (0.0, 0.4, 0.8, 1.0)
        ]
        assert speedups == sorted(set(speedups))

    def test_zero_accept_rate_never_beats_plain_decode(self):
        # One committed token per verify that is strictly wider than a
        # decode step: speculation can only lose when nothing is accepted.
        for scheme, row in table("speculation", "rtx3090", accept_rate=0.0).items():
            assert row["speedup"] < 1.0, scheme

    def test_draft_cost_discounts_the_speedup(self):
        free = table("speculation", draft_cost_ratio=0.0)["Tender SW"]["speedup"]
        paid = table("speculation", draft_cost_ratio=0.25)["Tender SW"]["speedup"]
        assert paid < free

    def test_speculating_beats_plain_decode_at_a_high_accept_rate(self):
        for row in table("speculation").values():
            assert row["speculative_tokens_per_s"] > row["baseline_tokens_per_s"] > 0.0
            assert row["speedup"] > 1.0
            assert row["expected_tokens_per_step"] > 1.0
            # One closed form, one number: the table's two throughputs carry the same ratio.
            assert row["speculative_tokens_per_s"] / row["baseline_tokens_per_s"] == pytest.approx(
                row["speedup"], rel=1e-12
            )

    def test_speedup_is_the_millisecond_form_to_the_bit(self):
        """The parent's ``SpeculativeWorkload.speedup()`` — the bits ``BENCH_serving.json`` commits.

        Its twin ``speculative_throughput()["speedup"]`` took the same ratio
        over seconds and read 2.5258211802277244 (FP16), 2.489893499410545
        and 2.489893499410548 (the two INT8 rows) at this very point.
        """
        rows = speculation(
            shape=PAPER, device_name="rtx3090", draft_tokens=8, accept_rate=0.6123, context=40, batch=3
        )
        assert {scheme: row["speedup"] for scheme, row in rows.items()} == {
            "FP16": 2.525821180227725,
            "INT8 (per-tensor)": 2.4898934994105453,
            "INT8 (per-row)": 2.4898934994105484,
            "INT8 (per-channel)": 2.5137757193524726,
            "Tender SW": 2.3003266974774235,
        }


class TestPagedAttentionGather:
    def test_gather_bytes_scale_linearly_with_context(self):
        def gather_bytes(context):
            return table("paged_attention_gather", context=context)["FP16"]["gather_bytes_per_step"]

        assert gather_bytes(4096) == 4 * gather_bytes(1024)
        # K and V, read + write, per layer: 2 * 2 * L * B * H * ctx * d * 2B.
        assert gather_bytes(1024) == 2 * 2 * 4 * 8 * 32 * 1024 * (4096 // 32) * 2
        assert table("paged_attention_gather", kv_bytes_per_element=1)["FP16"]["gather_bytes_per_step"] == (
            gather_bytes(2048) / 2
        )

    def test_speedup_grows_with_context(self):
        speedups = [
            table("paged_attention_gather", context=context)["Tender SW"]["speedup"]
            for context in (256, 1024, 4096, 16384)
        ]
        assert speedups[0] > 1.0 and speedups == sorted(set(speedups))

    def test_the_fused_path_beats_the_gather(self):
        for row in table("paged_attention_gather", "rtx3090").values():
            assert row["fused_tokens_per_s"] > row["gather_tokens_per_s"] > 0.0
            assert row["speedup"] > 1.0


class TestPreemption:
    def test_recompute_tokens_shrink_with_hit_rate(self):
        """The resume re-prefills the uncached part of the victim's context, never less than one token."""
        for resume_hit_rate, recomputed in ((0.0, 512), (0.75, 128), (1.0, 1)):
            rows = table("preemption", resume_hit_rate=resume_hit_rate)
            replay = forward_ms(FOUR_LAYERS, recomputed, 512, "a100")
            assert {scheme: row["recompute_ms"] for scheme, row in rows.items()} == replay

    def test_preempting_beats_waiting_on_ttft(self):
        prefill = forward_ms(FOUR_LAYERS, 64, 64, "a100")
        for scheme, row in table("preemption").items():
            assert row["wait_ttft_ms"] > row["preempt_ttft_ms"] > 0.0
            assert row["ttft_speedup"] > 1.0
            assert row["preempt_ttft_ms"] == prefill[scheme]  # the urgent request's own prefill, nothing else

    def test_speedup_grows_with_wait(self):
        speedups = [
            table("preemption", expected_wait_steps=wait)["Tender SW"]["ttft_speedup"]
            for wait in (0.0, 16.0, 64.0, 256.0)
        ]
        assert speedups[0] == 1.0 and speedups == sorted(set(speedups))

    def test_prefix_hits_make_preemption_worthwhile(self):
        hit = table("preemption", resume_hit_rate=0.9)
        cold = table("preemption", resume_hit_rate=0.0)
        for scheme in hit:
            assert hit[scheme]["recompute_ms"] < cold[scheme]["recompute_ms"]
            assert hit[scheme]["recompute_overhead_ratio"] < 1.0
            assert hit[scheme]["worthwhile"] == 1.0
        # Nothing saved, nothing bought: preempting for a wait of zero steps is never worthwhile.
        assert table("preemption", expected_wait_steps=0.0)["FP16"]["worthwhile"] == 0.0


class TestShardedServing:
    """Tensor parallelism (``num_replicas=1``) and replica-pool fault tolerance (``num_shards=1``)."""

    def test_solo_has_no_communication(self):
        for row in table("sharded_serving", "A100", num_shards=1).values():
            assert row["comm_ms"] == 0.0
            assert row["speedup"] == 1.0
            assert row["sharded_step_ms"] == row["solo_step_ms"]

    def test_sharding_a_large_model_pays(self):
        assert table("sharded_serving", "A100", num_shards=4)["Tender SW"]["speedup"] > 1.5

    def test_communication_eventually_dominates(self):
        """On a slow link, wider sharding loses: comm grows, compute shrinks."""
        slow = dict(link_latency_us=50.0, link_bandwidth_gb_s=5.0)
        two = table("sharded_serving", "A100", num_shards=2, **slow)["Tender SW"]
        eight = table("sharded_serving", "A100", num_shards=8, **slow)["Tender SW"]
        assert eight["comm_ms"] > two["comm_ms"]
        assert eight["comm_ms"] > table("sharded_serving", "A100", num_shards=8)["Tender SW"]["comm_ms"]

    def test_group_failure_rate_compounds_per_shard(self):
        """Any shard's death fails the group: the amortized rate is ``1 - (1 - r)^S``."""
        row = table("sharded_serving", num_shards=4, failure_rate=0.01, retry_backoff_steps=2.0)["FP16"]
        amortized = (row["effective_step_ms"] - row["sharded_step_ms"]) / (
            row["recovery_ms"] + 2.0 * row["sharded_step_ms"]
        )
        assert amortized == pytest.approx(1.0 - 0.99**4)

    def test_one_shard_rate_is_the_rate_itself(self):
        """``1.0 - (1.0 - r) ** 1 != r`` in floating point; a pool of solo replicas fails at ``r``."""
        for rate in (0.2, 0.0123, 0.002, 1 / 54):
            assert 1.0 - (1.0 - rate) ** 1 != rate
            row = table("sharded_serving", failure_rate=rate, resume_hit_rate=0.5)["Tender SW"]
            assert row["effective_step_ms"] == row["sharded_step_ms"] + rate * row["recovery_ms"]

    def test_one_shard_is_the_former_fault_tolerance_model(self):
        """Two points of the parent's ``fault_tolerance_goodput``, every field, to the bit."""
        small = sharded_serving(
            shape=PAPER, device_name="rtx3090", num_replicas=3, batch=2, context=30,
            failure_rate=1 / 54, resume_hit_rate=0.5,
        )  # fmt: skip
        assert small["Tender SW"] == {
            "solo_step_ms": 23.575878017094052,
            "sharded_step_ms": 23.575878017094052,
            "comm_ms": 0.0,
            "speedup": 1.0,
            "recovery_ms": 26.510178461538402,
            "effective_step_ms": 24.06680724786328,
            "goodput_ratio": 0.9796013976547382,
            "fault_free_tokens_per_s": 254.49741450348563,
            "tokens_per_s": 249.30602294713177,
        }
        large = sharded_serving(
            shape=PAPER, device_name="rtx3090", num_replicas=4, batch=8, context=512,
            failure_rate=0.002, resume_hit_rate=0.9, retry_backoff_steps=2.0,
        )  # fmt: skip
        assert large["FP16"]["recovery_ms"] == 79.986767075751
        assert large["FP16"]["effective_step_ms"] == 16.13824011313398
        assert large["FP16"]["goodput_ratio"] == 0.986142728998369
        assert large["FP16"]["fault_free_tokens_per_s"] == 2010.7312543064336
        assert large["FP16"]["tokens_per_s"] == 1982.8680064040595
        assert large["Tender SW"]["goodput_ratio"] == 0.9882075211601908
        # Hand-computed: 8 rows x max(1, round(512 x 0.1)) = 408 replayed rows against 512.
        assert large["Tender SW"]["recovery_ms"] == forward_ms(PAPER, 8 * 51, 512, "rtx3090")["Tender SW"]

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_goodput_degrades_with_failures_and_recovers_with_cache_hits(self, num_shards):
        chaos = dict(num_shards=num_shards, retry_backoff_steps=2.0)
        clean = table("sharded_serving", "A100", **chaos)
        chaotic = table("sharded_serving", "A100", failure_rate=0.002, **chaos)
        worse = table("sharded_serving", "A100", failure_rate=0.004, **chaos)
        cached = table("sharded_serving", "A100", failure_rate=0.002, resume_hit_rate=0.9, **chaos)
        for scheme in clean:
            assert clean[scheme]["goodput_ratio"] == 1.0
            assert clean[scheme]["tokens_per_s"] == clean[scheme]["fault_free_tokens_per_s"]
            assert worse[scheme]["goodput_ratio"] < chaotic[scheme]["goodput_ratio"] < 1.0
            assert chaotic[scheme]["goodput_ratio"] < cached[scheme]["goodput_ratio"] < 1.0

    def test_replicas_scale_fleet_throughput_only(self):
        chaos = dict(num_shards=2, failure_rate=0.002, resume_hit_rate=0.6, retry_backoff_steps=1.0)
        one = table("sharded_serving", **chaos)
        five = table("sharded_serving", num_replicas=5, **chaos)
        fleet_wide = {"tokens_per_s", "fault_free_tokens_per_s"}
        for scheme in one:
            for field, value in one[scheme].items():
                if field in fleet_wide:
                    assert five[scheme][field] == pytest.approx(5 * value, rel=1e-12)
                else:
                    assert five[scheme][field] == value


class TestTracingOverhead:
    def test_overhead_is_linear_in_events_per_step(self):
        def enabled(events):
            return table("tracing_overhead", events_per_step=events)["Tender SW"]

        assert enabled(0.0)["enabled_overhead_ms"] == 0.0
        assert enabled(0.0)["enabled_tokens_per_s"] == enabled(0.0)["tokens_per_s"]
        ten, twenty = enabled(10.0), enabled(20.0)
        assert twenty["enabled_overhead_ms"] == pytest.approx(2 * ten["enabled_overhead_ms"])
        assert twenty["enabled_overhead_ratio"] == pytest.approx(2 * ten["enabled_overhead_ratio"])
        assert ten["enabled_overhead_ms"] == pytest.approx(10 * 1.0e-3)  # 1 us per emit
        assert ten["enabled_step_ms"] == ten["step_ms"] + ten["enabled_overhead_ms"]
        assert ten["enabled_tokens_per_s"] < ten["tokens_per_s"]

    def test_disabled_path_pays_guards_only(self):
        rows = table("tracing_overhead", guard_sites_per_step=10.0)
        for row in rows.values():
            assert row["disabled_overhead_ms"] == pytest.approx(10 * 30.0e-6)  # 30 ns per guard
            assert row["disabled_overhead_ratio"] < row["enabled_overhead_ratio"] < 0.01
        assert table("tracing_overhead", guard_sites_per_step=0.0)["FP16"]["disabled_overhead_ms"] == 0.0

    def test_relative_overhead_shrinks_as_the_shape_grows(self):
        tiny = ModelShape(d_model=64, d_ff=128, num_heads=4, num_layers=2)
        ratios = [
            table("tracing_overhead", shape=shape)["Tender SW"]["enabled_overhead_ratio"]
            for shape in (tiny, FOUR_LAYERS, PAPER)
        ]
        assert ratios == sorted(ratios, reverse=True) and ratios[0] > 10 * ratios[-1]

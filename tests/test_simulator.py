"""Unit tests for the feedback-loop server simulator."""

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from agekit import simulator
from agekit.errors import DomainError, ParseError
from agekit.simulator import (
    NO_POLICY,
    TRACE_HEADER,
    FileDifference,
    FileDist,
    PolicyVariant,
    RejuvenationPolicy,
    SimConfig,
    SimState,
    WorkloadSpec,
    aging_degree,
    aging_level,
    apply_policy_experiment,
    bandwidth_for,
    init_state,
    load_sim_config,
    load_trace,
    memory_pressure,
    parse_workload,
    read_latency,
    run,
    step,
    trace_csv,
    validate_workload,
    write_trace,
)

STABLE_LOAD = "600,0,20,20,1000,0"
AGING_LOAD = "600,0,100,20,1000,0"
IDLE_LOAD = "0,1,1,1,1000,0"


def aged_state(cfg, cache_mb=100.0, sfr_mb=0.0, working_set_mb=1080.0, bw_avg=30.0):
    # A late-life snapshot: heavy working set, poor trailing bandwidth.
    state = SimState(
        tick=100,
        cache_mb=cache_mb,
        working_set_mb=working_set_mb,
        disk_queue_len=0.0,
        block_kb=cfg.base_block_kb,
        bandwidth_kbyte=30.0,
        sfr_mb=sfr_mb,
        bw_avg_kbyte=bw_avg,
    )
    state.validate(cfg)
    return state


class TestParseWorkload:
    def test_stable_reference_tuple(self):
        load = parse_workload(STABLE_LOAD)
        assert load.client_count == 600
        assert load.file_dist is FileDist.RANDOM
        assert load.file_object == 20
        assert load.file_max_object == 20
        assert load.sleep_time_ms == 1000
        assert load.file_difference is FileDifference.DIFFERENT

    def test_parentheses_and_spaces_accepted(self):
        assert parse_workload(" (600, 0, 100, 20, 1000, 0) ") == parse_workload(AGING_LOAD)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="needs 6 comma-separated integers, got 5"):
            parse_workload("600,0,100,20,1000")

    def test_non_integer_field(self):
        with pytest.raises(ParseError, match="field 3 is not an integer: 'ten'"):
            parse_workload("600,0,ten,20,1000,0")

    def test_unknown_file_dist(self):
        with pytest.raises(ParseError, match=r"file_dist must be one of \[0, 1, 2, 3\]"):
            parse_workload("600,9,100,20,1000,0")

    def test_unknown_file_difference(self):
        with pytest.raises(ParseError, match="file_difference must be one of"):
            parse_workload("600,0,100,20,1000,7")

    def test_max_object_cannot_exceed_object(self):
        with pytest.raises(DomainError, match=r"file_max_object \(100\) exceeds file_object \(20\)"):
            parse_workload("600,0,20,100,1000,0")

    def test_zero_file_object(self):
        with pytest.raises(DomainError, match="file_object must be at least 1"):
            WorkloadSpec(600, 0, 0, 1, 1000, 0)

    def test_negative_client_count(self):
        with pytest.raises(DomainError, match="client_count must be a nonnegative integer"):
            WorkloadSpec(-1, 0, 20, 20, 1000, 0)


class TestSimConfig:
    def test_defaults_are_valid_and_frozen(self):
        cfg = SimConfig()
        assert cfg.bandwidth_nominal_kbyte == 120.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.queue_gain = 2.0

    @pytest.mark.parametrize(
        "field", ["catalog_files", "tick_seconds", "queue_drain_rate", "trigger_window_ticks"]
    )
    def test_positive_fields_reject_zero(self, field):
        with pytest.raises(DomainError, match=f"config {field} must be positive"):
            SimConfig(**{field: 0})

    @pytest.mark.parametrize("field", ["initial_cache_mb", "sfr_reclaim_rate", "heap_decay_rate"])
    def test_nonnegative_fields_reject_negative(self, field):
        with pytest.raises(DomainError, match=f"config {field} must be nonnegative"):
            SimConfig(**{field: -0.5})

    def test_block_range_ordering(self):
        with pytest.raises(DomainError, match="max_block_kb must be at least base_block_kb"):
            SimConfig(base_block_kb=16.0, max_block_kb=4.0)

    def test_fail_bandwidth_below_nominal(self):
        with pytest.raises(DomainError, match="bandwidth_fail_kbyte must be below"):
            SimConfig(bandwidth_fail_kbyte=120.0)

    def test_refcount_survival_open_interval(self):
        with pytest.raises(DomainError, match=r"refcount_survival must lie strictly inside \(0, 1\)"):
            SimConfig(refcount_survival=1.0)

    def test_drain_rate_at_most_one(self):
        with pytest.raises(DomainError, match="queue_drain_rate must be at most 1"):
            SimConfig(queue_drain_rate=1.5)

    def test_cache_outflow_rates_bounded(self):
        with pytest.raises(DomainError, match="sfr_stale_rate \\+ cache_turnover_rate"):
            SimConfig(sfr_stale_rate=0.6, cache_turnover_rate=0.6)

    def test_initial_memory_fits(self):
        with pytest.raises(DomainError, match="exceeds total memory"):
            SimConfig(initial_cache_mb=700.0, baseline_working_set_mb=700.0)


class TestLoadSimConfig:
    def test_overrides_comments_and_blanks(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# tuned run\n"
            "\n"
            "queue_gain = 0.5  # trailing comment\n"
            "catalog_files=250\n"
            "trigger_window_ticks = 100\n"
        )
        cfg = load_sim_config(path)
        assert cfg.queue_gain == 0.5
        assert cfg.catalog_files == 250
        assert isinstance(cfg.catalog_files, int)
        assert cfg.trigger_window_ticks == 100
        # untouched keys keep their defaults
        assert cfg.bandwidth_nominal_kbyte == SimConfig().bandwidth_nominal_kbyte

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("warp_factor=9\n")
        with pytest.raises(ParseError, match="line 1: unknown config key 'warp_factor'"):
            load_sim_config(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("queue_gain=fast\n")
        with pytest.raises(ParseError, match="value for queue_gain is not numeric: 'fast'"):
            load_sim_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("queue_gain 0.5\n")
        with pytest.raises(ParseError, match="expected key=value"):
            load_sim_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_sim_config(tmp_path / "absent.cfg")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_bytes(b"catalog_files=\xb5\n")
        with pytest.raises(ParseError, match="sim.cfg.*can't decode byte 0xb5"):
            load_sim_config(path)

    def test_domain_error_carries_path(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("queue_drain_rate=0\n")
        with pytest.raises(DomainError, match="sim.cfg.*queue_drain_rate must be positive"):
            load_sim_config(path)


class TestRejuvenationPolicy:
    def test_constructors(self):
        assert RejuvenationPolicy.none().variant is PolicyVariant.NONE
        assert RejuvenationPolicy.cache_hit().trigger_threshold == 0.5
        prob = RejuvenationPolicy.probabilistic(0.3, trigger_threshold=0.7)
        assert prob.admit_probability == 0.3
        assert prob.trigger_threshold == 0.7
        assert RejuvenationPolicy.disk_block_reset().variant is PolicyVariant.DISK_BLOCK_RESET
        reap = RejuvenationPolicy.mem_reap_enlarge(15)
        assert reap.refcount == 15

    def test_trigger_threshold_range(self):
        with pytest.raises(DomainError, match=r"trigger threshold out of range \(0, 1\]"):
            RejuvenationPolicy.cache_hit(trigger_threshold=0.0)
        with pytest.raises(DomainError, match="trigger threshold out of range"):
            RejuvenationPolicy.cache_hit(trigger_threshold=1.2)

    def test_probabilistic_needs_probability(self):
        with pytest.raises(DomainError, match=r"admit_probability in \[0, 1\]"):
            RejuvenationPolicy(PolicyVariant.PROBABILISTIC_ADMISSION)
        with pytest.raises(DomainError, match=r"admit_probability in \[0, 1\]"):
            RejuvenationPolicy.probabilistic(1.5)

    def test_probability_rejected_elsewhere(self):
        with pytest.raises(DomainError, match="only valid for probabilistic admission"):
            RejuvenationPolicy(PolicyVariant.CACHE_HIT_ADMISSION, admit_probability=0.5)

    def test_memreap_needs_refcount(self):
        with pytest.raises(DomainError, match="integer refcount >= 1"):
            RejuvenationPolicy(PolicyVariant.MEM_REAP_ENLARGE)
        with pytest.raises(DomainError, match="integer refcount >= 1"):
            RejuvenationPolicy.mem_reap_enlarge(0)
        with pytest.raises(DomainError, match="integer refcount >= 1"):
            RejuvenationPolicy.mem_reap_enlarge(2.5)

    def test_refcount_rejected_elsewhere(self):
        with pytest.raises(DomainError, match="only valid for memreap enlargement"):
            RejuvenationPolicy(PolicyVariant.NONE, refcount=3)


class TestStateAndHelpers:
    def test_init_state_closed_form(self):
        cfg = SimConfig()
        state = init_state(cfg)
        assert state.tick == 0
        assert state.cache_mb == cfg.initial_cache_mb
        assert state.working_set_mb == cfg.baseline_working_set_mb + cfg.initial_cache_mb
        assert state.disk_queue_len == 0.0
        assert state.block_kb == cfg.base_block_kb
        assert state.sfr_mb == 0.0
        assert state.bandwidth_kbyte == bandwidth_for(0.0, state.working_set_mb, cfg)
        assert state.bw_avg_kbyte == state.bandwidth_kbyte
        state.validate(cfg)

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"tick": -1}, "tick must be nonnegative"),
            ({"sfr_mb": 200.0}, r"outside \[0, cache_mb"),
            ({"cache_mb": 700.0, "working_set_mb": 650.0}, "exceeds working_set_mb"),
            ({"working_set_mb": 1200.0}, "exceeds total memory"),
            ({"block_kb": 2.0}, "outside configured range"),
            ({"block_kb": 32.0}, "outside configured range"),
            ({"disk_queue_len": -1.0}, "disk_queue_len must be nonnegative"),
            ({"bandwidth_kbyte": 0.0}, r"outside \(0, nominal\]"),
            ({"bandwidth_kbyte": 150.0}, r"outside \(0, nominal\]"),
        ],
    )
    def test_validate_rejects_bad_fields(self, patch, message):
        cfg = SimConfig()
        state = dataclasses.replace(init_state(cfg), **patch)
        with pytest.raises(DomainError, match=message) as from_validate:
            state.validate(cfg)
        # step checks its input with the same helper, so the same message
        with pytest.raises(DomainError) as from_step:
            step(state, parse_workload(AGING_LOAD), cfg)
        assert str(from_step.value) == str(from_validate.value)

    def test_workload_capacity_checks(self):
        cfg = SimConfig()
        with pytest.raises(DomainError, match=r"file_object \(150\) exceeds catalog_files \(100\)"):
            validate_workload(WorkloadSpec(600, 0, 150, 20, 1000, 0), cfg)
        with pytest.raises(DomainError, match="exceeds capacity_clients .*server restarts"):
            validate_workload(WorkloadSpec(950, 0, 20, 20, 1000, 0), cfg)
        # at the limits both pass
        validate_workload(WorkloadSpec(900, 0, 100, 20, 1000, 0), cfg)

    def test_pressure_monotone_and_clamped(self):
        cfg = SimConfig()
        assert memory_pressure(600.0, cfg) < memory_pressure(900.0, cfg)
        assert memory_pressure(0.0, cfg) == 0.0
        # clamp: beyond total memory the pressure saturates at m=0.995
        assert memory_pressure(5000.0, cfg) == memory_pressure(2000.0, cfg) == pytest.approx(199.0)

    def test_latency_grows_with_working_set(self):
        cfg = SimConfig()
        lean = aged_state(cfg, working_set_mb=700.0)
        fat = aged_state(cfg, working_set_mb=1000.0)
        assert read_latency(lean, cfg) < read_latency(fat, cfg)
        assert read_latency(dataclasses.replace(lean, working_set_mb=100.0), cfg) > 1.0

    def test_bandwidth_falls_with_queue_and_pressure(self):
        cfg = SimConfig()
        assert bandwidth_for(0.0, 600.0, cfg) > bandwidth_for(50.0, 600.0, cfg)
        assert bandwidth_for(10.0, 600.0, cfg) > bandwidth_for(10.0, 1000.0, cfg)
        assert bandwidth_for(0.0, 0.0, cfg) == cfg.bandwidth_nominal_kbyte

    def test_aging_level_from_trailing_average(self):
        cfg = SimConfig()
        state = aged_state(cfg, bw_avg=30.0)
        assert aging_level(state, cfg) == pytest.approx(0.75)
        fresh = dataclasses.replace(state, bw_avg_kbyte=130.0)
        assert aging_level(fresh, cfg) == 0.0


class TestStep:
    def test_idle_server_is_a_fixed_point(self):
        # No clients, no stale blocks: every observable holds still.
        cfg = SimConfig()
        load = parse_workload("0,0,20,20,1000,0")
        state = init_state(cfg)
        for expected_tick in range(1, 6):
            state = step(state, load, cfg)
            assert state.tick == expected_tick
        start = init_state(cfg)
        assert state.cache_mb == start.cache_mb
        assert state.working_set_mb == start.working_set_mb
        assert state.disk_queue_len == 0.0
        assert state.block_kb == start.block_kb
        assert state.bandwidth_kbyte == start.bandwidth_kbyte
        assert state.sfr_mb == 0.0
        assert state.bw_avg_kbyte == start.bw_avg_kbyte

    def test_one_forced_miss_grows_cache_by_exactly_one_mb(self):
        # One client, one request per tick, cold single-file cache, unit
        # growth coefficient, every other cache coupling zeroed.
        cfg = SimConfig(
            initial_cache_mb=0.0,
            baseline_working_set_mb=0.0,
            cache_growth_mb_per_miss=1.0,
            backlog_cache_gain=0.0,
            cache_turnover_rate=0.0,
            sfr_stale_rate=0.0,
            sfr_reclaim_rate=0.0,
            heap_growth_per_queue=0.0,
            heap_decay_rate=0.0,
        )
        load = parse_workload("1,3,1,1,15000,0")
        state = step(init_state(cfg), load, cfg)
        assert state.cache_mb == 1.0
        assert state.sfr_mb == 0.0
        assert state.working_set_mb == 1.0

    def test_warm_single_file_cache_never_misses(self):
        cfg = SimConfig()
        load = parse_workload("600,3,1,1,1000,0")
        state = step(init_state(cfg), load, cfg)
        # all hits: no miss-driven growth, only turnover shrink
        assert state.cache_mb <= init_state(cfg).cache_mb

    def test_stale_blocks_decay_without_traffic(self):
        # Only the reclaim daemon runs; stale mass must shrink every tick.
        cfg = SimConfig()
        load = parse_workload(IDLE_LOAD)
        state = aged_state(cfg, cache_mb=130.0, sfr_mb=50.0, working_set_mb=650.0)
        reclaimable = 1.0 - cfg.refcount_survival ** (cfg.refcount_threshold + 1)
        first = step(state, load, cfg)
        assert first.sfr_mb == pytest.approx(50.0 * (1.0 - cfg.sfr_reclaim_rate * reclaimable), rel=1e-12)
        levels = [first.sfr_mb]
        current = first
        for _ in range(299):
            current = step(current, load, cfg)
            levels.append(current.sfr_mb)
        assert all(b < a for a, b in zip(levels, levels[1:]))
        assert levels[-1] < 50.0 * (1.0 - cfg.sfr_reclaim_rate * reclaimable) ** 299

    def test_memreap_reclaims_more_than_default_daemon(self):
        cfg = SimConfig()
        load = parse_workload(IDLE_LOAD)
        state = aged_state(cfg, cache_mb=130.0, sfr_mb=50.0, working_set_mb=650.0, bw_avg=30.0)
        plain = step(state, load, cfg, NO_POLICY)
        reaped = step(state, load, cfg, RejuvenationPolicy.mem_reap_enlarge(15))
        # enlarged threshold frees stale blocks faster and culls live ones too
        assert reaped.sfr_mb < plain.sfr_mb
        assert reaped.cache_mb < plain.cache_mb

    def test_policy_stays_dormant_below_trigger(self):
        # Same aged state, deterministic load: an unarmed policy must not
        # perturb the trajectory at all.
        cfg = SimConfig()
        load = parse_workload("600,1,100,20,1000,0")
        state = aged_state(cfg, bw_avg=70.0)  # aging level 0.417
        armed = RejuvenationPolicy.cache_hit(trigger_threshold=0.4)
        dormant = RejuvenationPolicy.cache_hit(trigger_threshold=0.9)
        assert step(state, load, cfg, dormant) == step(state, load, cfg, NO_POLICY)
        assert step(state, load, cfg, armed) != step(state, load, cfg, NO_POLICY)

    def test_block_escalation_doubles_and_caps(self):
        cfg = SimConfig()
        load = parse_workload(IDLE_LOAD)
        state = aged_state(cfg, bw_avg=110.0)  # below any trigger
        blocks = []
        for _ in range(3):
            state = step(state, load, cfg)
            blocks.append(state.block_kb)
        assert blocks == [8.0, 16.0, 16.0]

    def test_block_reset_pins_base_size(self):
        cfg = SimConfig()
        load = parse_workload(IDLE_LOAD)
        state = dataclasses.replace(aged_state(cfg, bw_avg=30.0), block_kb=16.0)
        pinned = step(state, load, cfg, RejuvenationPolicy.disk_block_reset())
        assert pinned.block_kb == cfg.base_block_kb

    def test_full_admission_equals_no_policy(self):
        # p=1.0 thins nothing, so the whole trajectory is bit-identical.
        cfg = SimConfig()
        load = parse_workload(AGING_LOAD)
        baseline = run(cfg, load, NO_POLICY, ticks=500, seed=3)
        admitted = run(cfg, load, RejuvenationPolicy.probabilistic(1.0), ticks=500, seed=3)
        assert baseline == admitted

    def test_states_validate_along_aging_run(self):
        cfg = SimConfig()
        states = run(cfg, parse_workload(AGING_LOAD), ticks=800)
        for state in states:
            state.validate(cfg)
        assert [s.tick for s in states] == list(range(801))

    def test_poisson_popularity_run_stays_valid(self):
        cfg = SimConfig()
        states = run(cfg, parse_workload("600,2,100,20,1000,0"), ticks=60)
        for state in states:
            state.validate(cfg)


class TestRunAndExperiment:
    def test_run_returns_ticks_plus_one_states(self):
        cfg = SimConfig()
        load = parse_workload(STABLE_LOAD)
        assert len(run(cfg, load, ticks=0)) == 1
        assert len(run(cfg, load, ticks=5)) == 6

    def test_run_rejects_negative_ticks(self):
        with pytest.raises(DomainError, match="ticks must be nonnegative"):
            run(SimConfig(), parse_workload(STABLE_LOAD), ticks=-1)

    def test_run_enforces_capacity(self):
        with pytest.raises(DomainError, match="exceeds capacity_clients"):
            run(SimConfig(), parse_workload("950,0,20,20,1000,0"), ticks=1)

    def test_same_seed_reproduces_bitwise(self):
        cfg = SimConfig()
        load = parse_workload(AGING_LOAD)
        a = run(cfg, load, ticks=400, seed=11)
        b = run(cfg, load, ticks=400, seed=11)
        assert a == b
        assert trace_csv(a) == trace_csv(b)

    def test_different_seeds_diverge(self):
        cfg = SimConfig()
        load = parse_workload(AGING_LOAD)
        a = trace_csv(run(cfg, load, ticks=400, seed=0))
        b = trace_csv(run(cfg, load, ticks=400, seed=1))
        assert a != b

    def test_experiment_splits_at_rejuvenation_tick(self):
        cfg = SimConfig()
        load = parse_workload(AGING_LOAD)
        before, after = apply_policy_experiment(
            cfg, load, RejuvenationPolicy.cache_hit(), ticks=120, rejuvenation_tick=50, seed=2
        )
        assert len(before) == 51
        assert len(after) == 70
        assert before[-1].tick == 50
        assert after[-1].tick == 120
        # the pre-rejuvenation prefix is exactly an unpoliced run
        assert before == run(cfg, load, NO_POLICY, ticks=50, seed=2)

    def test_experiment_with_none_policy_matches_plain_run(self):
        # Single RNG stream: stitching the halves reproduces one long run.
        cfg = SimConfig()
        load = parse_workload(AGING_LOAD)
        before, after = apply_policy_experiment(
            cfg, load, NO_POLICY, ticks=120, rejuvenation_tick=50, seed=4
        )
        assert before + after == run(cfg, load, NO_POLICY, ticks=120, seed=4)

    @pytest.mark.parametrize("rejuvenation_tick", [0, 120, 200])
    def test_experiment_tick_bounds(self, rejuvenation_tick):
        with pytest.raises(DomainError, match=r"rejuvenation_tick must fall inside \(0, 120\)"):
            apply_policy_experiment(
                SimConfig(),
                parse_workload(AGING_LOAD),
                RejuvenationPolicy.cache_hit(),
                ticks=120,
                rejuvenation_tick=rejuvenation_tick,
            )


def hand_loop(cfg, load, policy, ticks, seed, policy_from):
    """ticks public step() calls on one Generator; the policy from step policy_from on."""
    rng = np.random.default_rng(seed)
    states = [init_state(cfg)]
    for tick in range(ticks):
        tick_policy = policy if tick >= policy_from else NO_POLICY
        states.append(step(states[-1], load, cfg, tick_policy, rng))
    return states


def policy_of(variant, trigger_threshold):
    """The variant's policy, with admit probability 0.5 or refcount 15 where it takes one."""
    extra = {
        PolicyVariant.PROBABILISTIC_ADMISSION: {"admit_probability": 0.5},
        PolicyVariant.MEM_REAP_ENLARGE: {"refcount": 15},
    }.get(variant, {})
    return RejuvenationPolicy(variant, trigger_threshold, **extra)


# sha256 of trace_csv(run(SimConfig(), load, policy, ticks=2000, seed=s)) for
# seeds 0, 1, 2, computed at commit 5694385, whose step() rebuilt every
# per-run constant on each tick; they hold the tick kernel to those bytes.
# The trigger 0.07 arms each policy on part of the run under both laws.
PINNED_TRIGGER = 0.07
PINNED_LAWS = {"random": "600,0,100,20,1000,0", "poisson": "600,2,100,20,1000,0"}
PINNED_TRACE_SHA256 = {
    ("random", "none"): (
        "7526a88e98f4a66c6c7a8d843aa026ed2edb468a0baff1e98a4d3172faa6d52b",
        "3fb9d659eab472abf9fee3a63762312115b4c21df1a199846c2751a3935c52ba",
        "222008f2dcc0fa4634d23f29ca088196cbb91c62d9a5bfe19f49d3ec29ae1ecb",
    ),
    ("random", "cache-hit"): (
        "4ffbe370ec7d0cadcfd656cb031bfb076a6f8f775349f4c57cdff500257bc639",
        "4e881ce82b7fe0ebff946cb22499a36e226d6c9d2792fb2a470e466e8e0eb85c",
        "f296368fca3ac2ecbc88cc5ec4ba0f2cbd337f492fe615b973e5b06a16c8d462",
    ),
    ("random", "probabilistic"): (
        "2bc78f1582dc94bae235124b838282fd6b98aaa05038e5fc39ae64591b566e9e",
        "791fbb9e9d980422aeaf9d6e97f10f3c752421e988c5688f32b93876b3bf3c28",
        "35fec573f92dceeade9d79d3bdeb342341edbb758ce43bdd9da81b38932c473a",
    ),
    ("random", "block-reset"): (
        "5e1df26fc18a07a44a486e3b947071bfb651aa82360cec4891a32ec379127251",
        "bcf969e6224b52740cb196968fb2adb6db868ef4e4be5a3c61e08b65401b8a3e",
        "9a438bdf57b0d0e425ddf0ed0da23fef0c02060f4bbf4fc364e468201173c851",
    ),
    ("random", "memreap"): (
        "2f24af38f5ac96ad0c275727bd004737bcd8456e233d24543063b47c47236359",
        "3a2fea4035073c00a73f535e728bf86ebd1a89bfae0c5fd8afce9f9667e5ff98",
        "5d659d7cb5fa25edbd5651bed3b6cfcd047dd3fbbec59ed09e55f8a5188f72f4",
    ),
    ("poisson", "none"): (
        "a72ed1658d157c82c3008cf85e998dc56e6594f46b73290e414886c8e536c1c0",
        "a8e10c817ce8f93cd719e6c19ec060acfa2a17d43beb4599baa51a2ccf59c2e8",
        "23e6ca52d76ebe60f515f9427aa8d591248df23db3016afdd5dfcfdd2d66d26a",
    ),
    ("poisson", "cache-hit"): (
        "3434566715685c5dfdcffcea3817fc9117302e3b8d7bef5d6fa617ee07ed5ac3",
        "aecf93b8b089555adde1baff2269642ece16c5920cf072d174dcfc100112e5e6",
        "b0d671183404b3c28aad60daaea4cea930821933854d348ccd4de9f6e428d9fe",
    ),
    ("poisson", "probabilistic"): (
        "ccfbdec56fea3cf547af0699d9b442814acfafd86213fb23724ecf6b0ef88a22",
        "4625a7f02f72e5be21a7ec245f38b32fb186d18c6d0c87723c6989ea7dabe3f0",
        "a60f0802251d30ab12ac87ea6e1dce0202bd460501c7766146282be3496e4adc",
    ),
    ("poisson", "block-reset"): (
        "a72ed1658d157c82c3008cf85e998dc56e6594f46b73290e414886c8e536c1c0",
        "a8e10c817ce8f93cd719e6c19ec060acfa2a17d43beb4599baa51a2ccf59c2e8",
        "23e6ca52d76ebe60f515f9427aa8d591248df23db3016afdd5dfcfdd2d66d26a",
    ),
    ("poisson", "memreap"): (
        "965c0511d767f1a6842694b9d12c50b05557d1be18b52c039e374458df7b6495",
        "340f7a9594dbdea2e812ba192e9432f8ab8c45b317540fccb64f337992afa59f",
        "c04c402ea250e2072ba22ee2bc470ae113320780ffff2f82ce9a14f4117fdc70",
    ),
}


# sha256 of trace_csv(before + after) from apply_policy_experiment(SimConfig(),
# load, policy, ticks=2000, rejuvenation_tick=1000, seed=s) for seeds 0, 1, 2,
# computed at commit d683c02, whose kernel took the phase split as a per-tick
# test inside one call; they hold the two-call experiment to those bytes. The
# Poisson law never escalates the block, so block-reset there equals no policy.
PINNED_REJUVENATION_TICK = 1000
PINNED_EXPERIMENT_SHA256 = {
    ("poisson", "cache-hit"): (
        "d57ae373c5a451d6546c6db5357a58b6522a3e24cce0a43ea05b7cbf7cb40686",
        "9acc19b57d4f4d82c34a29261357cf1081b8411c38fa584408070a5d0b11aba5",
        "5767b53a7c9e3dfc51fb7131db53b32137cf021d7c7cc6272283d56e0edc0d85",
    ),
    ("poisson", "probabilistic"): (
        "8069b933d60749e4979b35b069bac317c5a49c0f006c2f937ddc913c75c1ac5e",
        "bb0bc1734d1daee53ecf90f9378487a2a8873a098ff7cea0eefc9e184108e48b",
        "12f5912c6f8916609f7e762a951aac7cd1b1c687998214ea3b3de8d04724d7d7",
    ),
    ("poisson", "block-reset"): (
        "a72ed1658d157c82c3008cf85e998dc56e6594f46b73290e414886c8e536c1c0",
        "a8e10c817ce8f93cd719e6c19ec060acfa2a17d43beb4599baa51a2ccf59c2e8",
        "23e6ca52d76ebe60f515f9427aa8d591248df23db3016afdd5dfcfdd2d66d26a",
    ),
    ("poisson", "memreap"): (
        "6ff46db72bfd23b635cbd82245fb7f0ba88695f412efeb0a6069f36f6b8fd324",
        "eacd384996118e673cca05f0c42aea2c69e802a45d93b3afab0ccc38fb44febe",
        "68d1d38ca308410a336166d29a8826ea93e434a102457b46a96823d74ca6c909",
    ),
    ("random", "cache-hit"): (
        "a10c3c6b59ce71966285f5609c0d439399640288b9a7201284382e3355f64a0e",
        "d1d20b96b56a6e3983bd286dd3c7c92fc9d38d77f4a779eb6ae14c7ffd144f8b",
        "531850f6ae06b189564fe7fb1577029faa71c88fbc7c34905792ee571ffa37da",
    ),
    ("random", "probabilistic"): (
        "9571e54884aff3a7e29bd5e0e77700e42363ce3568bc7120ffd8524bb612e820",
        "35ef728ab263ff295eaa827f055f7c8cdef92fbdd3f9c8e9b17d1f56f4447e1f",
        "0addf0f72500218535b364fc0d267c95d7a03a606b038a6df9d15c4f12fef167",
    ),
    ("random", "block-reset"): (
        "65e3f5881f03b1220525892f2f4173411efeea7ea230bf10836a7b87fc4cba1f",
        "c7c710effdbdfcf6dbc4f5a509b426e4454ce0276e9ce25f3424c90f7f9d19ef",
        "028994962aa266a86da61de72b31e93966749849d7d02f8a985693d784435e58",
    ),
    ("random", "memreap"): (
        "d281d768c911f21067ab70a6b0f4b90bcd8ff135fa09040256da87c7b2901f94",
        "4152f61414d83daa3960c8bc5266776cf7bcce926d61c1e8db4c3a14e69798e5",
        "8a1d3c10dc8cdfd51016606b15c16b840ce54392c5844f763c4f52623a188d43",
    ),
}

class TestTickKernel:
    def test_run_and_experiment_equal_hand_loop_of_steps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def workloads(draw):
            file_object = draw(st.integers(1, 100))
            return WorkloadSpec(
                draw(st.integers(0, 900)),
                draw(st.sampled_from(list(FileDist))),
                file_object,
                draw(st.integers(1, file_object)),
                draw(st.integers(1, 2000)),
                draw(st.sampled_from(list(FileDifference))),
            )

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            workloads(),
            st.sampled_from(list(PolicyVariant)),
            st.floats(0.01, 0.2),
            st.integers(2, 400),
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 1.0, exclude_max=True),
        )
        def check(load, variant, trigger, ticks, seed, split):
            cfg = SimConfig()
            policy = policy_of(variant, trigger)
            expected = hand_loop(cfg, load, policy, ticks, seed, 0)
            assert run(cfg, load, policy, ticks, seed) == expected
            switch = 1 + int(split * (ticks - 1))
            before, after = apply_policy_experiment(cfg, load, policy, ticks, switch, seed)
            assert before + after == hand_loop(cfg, load, policy, ticks, seed, switch)

        check()

    @pytest.mark.parametrize("law, policy", sorted(PINNED_TRACE_SHA256))
    def test_traces_match_pinned_digests(self, law, policy):
        cfg = SimConfig()
        load = parse_workload(PINNED_LAWS[law])
        variant = PolicyVariant(policy)
        digests = tuple(
            hashlib.sha256(
                trace_csv(run(cfg, load, policy_of(variant, PINNED_TRIGGER), 2000, seed)).encode()
            ).hexdigest()
            for seed in (0, 1, 2)
        )
        assert digests == PINNED_TRACE_SHA256[law, policy]

    @pytest.mark.parametrize("law, policy", sorted(PINNED_EXPERIMENT_SHA256))
    def test_experiments_match_pinned_digests(self, law, policy):
        cfg = SimConfig()
        load = parse_workload(PINNED_LAWS[law])
        variant = PolicyVariant(policy)
        digests = []
        for seed in (0, 1, 2):
            before, after = apply_policy_experiment(
                cfg, load, policy_of(variant, PINNED_TRIGGER), 2000, PINNED_REJUVENATION_TICK, seed
            )
            digests.append(hashlib.sha256(trace_csv(before + after).encode()).hexdigest())
        assert tuple(digests) == PINNED_EXPERIMENT_SHA256[law, policy]

    def test_one_check_guards_every_input_and_produced_state(self, monkeypatch):
        checked = []
        real_check = simulator._check_state

        def recording_check(cfg, tick, *values):
            checked.append(tick)
            real_check(cfg, tick, *values)

        monkeypatch.setattr(simulator, "_check_state", recording_check)
        cfg = SimConfig()
        load = parse_workload(AGING_LOAD)
        run(cfg, load, ticks=5)
        assert checked == [0, 1, 2, 3, 4, 5]
        checked.clear()
        step(init_state(cfg), load, cfg)
        assert checked == [0, 1]

    def test_kernel_states_are_ordinary_frozen_states(self):
        cfg = SimConfig()
        state = run(cfg, parse_workload(AGING_LOAD), ticks=3)[-1]
        rebuilt = SimState(**dataclasses.asdict(state))
        assert state == rebuilt
        assert hash(state) == hash(rebuilt)
        assert repr(state) == repr(rebuilt)
        assert pickle.dumps(state) == pickle.dumps(rebuilt)
        assert pickle.loads(pickle.dumps(state)) == state
        assert dataclasses.replace(state, tick=9) == dataclasses.replace(rebuilt, tick=9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.cache_mb = 1.0

    def test_step_is_pure_and_defaults_to_seed_zero(self):
        cfg = SimConfig()
        load = parse_workload(AGING_LOAD)
        state = init_state(cfg)
        first = step(state, load, cfg)
        assert step(state, load, cfg) == first
        assert step(state, load, cfg, NO_POLICY, np.random.default_rng(0)) == first
        assert state == init_state(cfg)


def recursion_pmf(file_object, mean_fraction):
    """The linear-space recursion: exp(-lam) times lam/k products, renormalized."""
    lam = max(mean_fraction * file_object, 1e-9)
    pmf = np.empty(file_object)
    pmf[0] = math.exp(-lam)
    for k in range(1, file_object):
        pmf[k] = pmf[k - 1] * lam / k
    return pmf / pmf.sum()


def uncached_top_mass(file_object, cached_files, cfg):
    """_poisson_top_mass with the pmf rebuilt and sorted on every call, and no memo."""
    ranked = np.sort(simulator._poisson_pmf(file_object, cfg.poisson_mean_fraction))[::-1]
    whole = int(math.floor(cached_files))
    mass = float(ranked[:whole].sum())
    if whole < file_object:
        mass += (cached_files - whole) * float(ranked[whole])
    return min(mass, 1.0)


class TestPoissonPopularity:
    @pytest.mark.parametrize("file_object", [1, 2, 745, 2_981, 4_000, 25_000, 100_000])
    def test_pmf_finite_and_normalized(self, file_object):
        pmf = simulator._poisson_pmf(file_object, 0.25)
        assert pmf.shape == (file_object,)
        assert np.all(np.isfinite(pmf)) and np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf[min(file_object // 4, file_object - 1)] == pmf.max()

    @pytest.mark.parametrize(
        "file_object, mean_fraction",
        [(f, 0.25) for f in (1, 2, 3, 20, 100, 1_000, 2_000, 2_900)]
        + [(f, 0.05) for f in (1, 20, 100, 2_900)]
        + [(f, 1.5) for f in (1, 20, 100, 480)],
    )
    def test_pmf_matches_recursion(self, file_object, mean_fraction):
        # past F = 2 900 (lam = 725) the recursion's exp(-lam) is subnormal, then 0
        reference = recursion_pmf(file_object, mean_fraction)
        pmf = simulator._poisson_pmf(file_object, mean_fraction)
        assert np.max(np.abs(pmf - reference)) <= 1e-14

    @pytest.mark.parametrize("file_object", [1, 2, 20, 100])
    def test_cached_top_mass_equals_uncached(self, file_object):
        configs = [SimConfig(), SimConfig(poisson_mean_fraction=0.6)]
        simulator._ranked_popularity.cache_clear()
        cached_files = [w + frac for w in range(file_object) for frac in (0.0, 0.375)]
        cached_files.append(float(file_object))
        # the first pass fills the prefix memos, the second reads them back
        for _ in range(2):
            for cfg in configs:
                ranked, prefix_mass = simulator._ranked_popularity(
                    file_object, cfg.poisson_mean_fraction
                )
                for c in cached_files:
                    expected = uncached_top_mass(file_object, c, cfg)
                    assert simulator._poisson_top_mass(ranked, prefix_mass, c) == expected

    @pytest.mark.parametrize("variant", list(PolicyVariant))
    def test_traces_match_uncached_evaluation(self, variant, monkeypatch):
        cfg = SimConfig()
        load = parse_workload("600,2,100,20,1000,0")
        # a trigger this low arms the policy from the first tick on
        policy = policy_of(variant, trigger_threshold=1e-6)
        simulator._ranked_popularity.cache_clear()
        cached = (
            trace_csv(run(cfg, load, policy, ticks=2000, seed=5)),
            apply_policy_experiment(cfg, load, policy, ticks=2000, rejuvenation_tick=700, seed=5),
        )
        monkeypatch.setattr(
            simulator,
            "_poisson_top_mass",
            lambda ranked, prefix_mass, c: uncached_top_mass(len(ranked), c, cfg),
        )
        uncached = (
            trace_csv(run(cfg, load, policy, ticks=2000, seed=5)),
            apply_policy_experiment(cfg, load, policy, ticks=2000, rejuvenation_tick=700, seed=5),
        )
        assert cached == uncached


class TestTraceIO:
    def test_header_is_pinned(self):
        assert TRACE_HEADER == (
            "tick",
            "cache_mb",
            "working_set_mb",
            "disk_queue_len",
            "block_kb",
            "bandwidth_kbyte",
            "sfr_mb",
        )
        states = run(SimConfig(), parse_workload(STABLE_LOAD), ticks=2)
        assert trace_csv(states).splitlines()[0] == ",".join(TRACE_HEADER)

    def test_round_trip_is_exact(self, tmp_path):
        cfg = SimConfig()
        states = run(cfg, parse_workload(AGING_LOAD), ticks=50)
        path = tmp_path / "trace.csv"
        write_trace(path, states)
        columns = load_trace(path)
        assert set(columns) == set(TRACE_HEADER)
        np.testing.assert_array_equal(columns["tick"], np.arange(51))
        np.testing.assert_array_equal(
            columns["bandwidth_kbyte"], np.array([s.bandwidth_kbyte for s in states])
        )
        np.testing.assert_array_equal(columns["sfr_mb"], np.array([s.sfr_mb for s in states]))

    def test_load_trace_rejects_bad_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match="file is empty"):
            load_trace(empty)

        wrong = tmp_path / "wrong.csv"
        wrong.write_text("tick,cache\n0,1\n")
        with pytest.raises(ParseError, match="expected trace header"):
            load_trace(wrong)

        short_row = tmp_path / "short.csv"
        short_row.write_text(",".join(TRACE_HEADER) + "\n1,2,3\n")
        with pytest.raises(ParseError, match="row 2: expected 7 fields"):
            load_trace(short_row)

        bad_value = tmp_path / "bad.csv"
        bad_value.write_text(",".join(TRACE_HEADER) + "\n0,1,2,3,4,five,6\n")
        with pytest.raises(ParseError, match="field bandwidth_kbyte is not numeric: 'five'"):
            load_trace(bad_value)

        header_only = tmp_path / "header.csv"
        header_only.write_text(",".join(TRACE_HEADER) + "\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_trace(header_only)

        # blank lines do not shift the reported row: the bad row is line 6
        blank_lines = tmp_path / "blank.csv"
        blank_lines.write_text(",".join(TRACE_HEADER) + "\n\n0,1,2,3,4,5,6\n\n\n1,2,3\n")
        with pytest.raises(ParseError, match="row 6: expected 7 fields"):
            load_trace(blank_lines)

        for text in ("nan", "inf", "-Infinity"):
            non_finite = tmp_path / "non_finite.csv"
            non_finite.write_text(",".join(TRACE_HEADER) + f"\n0,1,2,3,4,{text},6\n")
            message = f"row 2: field bandwidth_kbyte is not finite: '{text}'"
            with pytest.raises(ParseError, match=message):
                load_trace(non_finite)

        not_utf8 = tmp_path / "latin1.csv"
        not_utf8.write_bytes(",".join(TRACE_HEADER).encode() + b"\n0,1,2,3,4,\xb5,6\n")
        with pytest.raises(ParseError, match="can't decode"):
            load_trace(not_utf8)

    def test_missing_trace_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_trace(tmp_path / "nope.csv")


def degree_of(states, cfg):
    ticks = [s.tick for s in states]
    return aging_degree(ticks, [s.bandwidth_kbyte for s in states], cfg)


class TestAgingDegree:
    def test_declining_bandwidth_maps_to_rising_degree(self):
        cfg = SimConfig()
        base = init_state(cfg)
        states = [
            dataclasses.replace(base, tick=i, bandwidth_kbyte=110.0 - 10.0 * i) for i in range(6)
        ]
        curve = degree_of(states, cfg)
        # the tick-zero sample is dropped from the fit axis
        assert curve.t.shape == (5,)
        np.testing.assert_allclose(curve.t, np.arange(1, 6) * cfg.tick_seconds / 3600.0)
        assert np.all(np.diff(curve.y) > 0)
        assert curve.y[-1] == pytest.approx(1.0)

    def test_aging_run_degree_is_bounded(self):
        cfg = SimConfig()
        states = run(cfg, parse_workload(AGING_LOAD), ticks=600)
        curve = degree_of(states, cfg)
        assert np.all(curve.y >= 0.0) and np.all(curve.y <= 1.0)

    def test_needs_three_states(self):
        cfg = SimConfig()
        with pytest.raises(DomainError, match="at least 3 states"):
            degree_of(run(cfg, parse_workload(STABLE_LOAD), ticks=1), cfg)

    def test_flat_bandwidth_is_degenerate(self):
        cfg = SimConfig()
        base = init_state(cfg)
        states = [dataclasses.replace(base, tick=i) for i in range(5)]
        with pytest.raises(DomainError, match="degenerate"):
            degree_of(states, cfg)

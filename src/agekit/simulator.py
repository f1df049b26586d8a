"""Discrete-time feedback-loop simulator of a streaming server that ages.

One tick is 15 seconds of server time. The state couples a media cache, the
process working set, the disk request queue, the disk read block size, the
delivered client bandwidth, and the pool of stale cached blocks (cached data
nobody references anymore but the default reclaimer cannot free).

The positive loop: uncached requests pull data into the cache and, when the
requested file mix keeps rotating (more allowed files than concurrently
active ones), previously hot blocks go stale and stay resident. Memory
pressure rises, per-read latency rises, the server widens its disk read
block, wider blocks pile up the disk queue, and the backlog parks even more
unconsumed data in memory. Bandwidth falls as queue and pressure grow.

The negative loop: a reclaim daemon frees blocks whose reference count is at
or below a threshold (default 0, i.e. only fully unreferenced blocks), paced
by a reclaim rate.

Rejuvenation policies intervene once the observed aging degree (one minus
trailing bandwidth over nominal) reaches the policy's trigger threshold:
admit only cache hits, admit a fixed fraction of requests, pin the block size
back to base, or enlarge the reclaim threshold.

Every coupling below is a single-coefficient affine or saturating law. The
coefficients live in SimConfig; the defaults were calibrated once against the
stable/aging reference workloads and are not meant to be tuned per run.

One private kernel, ``_advance``, holds the tick and runs one policy per
call: ``step`` runs it for one tick, ``run`` for a whole run, and
``apply_policy_experiment`` twice on one Generator, unpoliced up to the
rejuvenation tick and then under the policy. It computes once per call
everything that (cfg, load, policy) fixes: the request count and its
thinned twin with their activities, the file mix and churn, the file-law and
policy-variant tests, the reclaimed fractions at the default and the policy's
refcount threshold, the sorted Poisson popularity with a memo of its prefix
masses, and every coefficient as a local. The state rides from tick to tick in
local floats; each produced state is checked by the same ``_check_state`` as
``SimState.validate`` and kept as a tuple in field order; ``run`` returns those
rows as a ``Trace``, which builds a ``SimState`` only when one is read. A
hoisted constant is only ever the leading factor of a left-to-right product
(the reclaim rate times a reclaimable fraction, the stale rate times churn),
so every value is the one the laws give when evaluated term by term in order.
The kernel clamps with comparisons, never with builtin min or max, whose call
costs CPython several times the comparison it makes. Each keeps the builtin's
argument order, max(a, b) as ``b if b > a else a`` and min(a, b) as
``b if b < a else a``, so ties, NaN and -0.0 give what the builtin gives.

It clamps cached files, block, queue, live cache, heap and working set, which
the laws can push out of range, and nothing the state invariants bound: the
miss probability lies in [0, 1], as cached files never exceed the catalog and
the Poisson top mass is capped at 1; the read-ahead damping 1 - working/total
is nonnegative, as working <= total; the stale pool stays nonnegative, as its
reclaim rate is at most 1 and its generation nonnegative.
"""

import itertools
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum, IntEnum

import numpy as np

from .errors import DomainError, ParseError, _is_integral, _is_real, _shown
from .normalize import to_aging_curve
from .timeseries import MetricSeries, Orientation, _read_columns, write_text_atomic
from .timeseries import _as_readonly_float_array, _open_text

class FileDist(IntEnum):
    """How clients choose files from the allowed set."""

    RANDOM = 0
    SEQUENTIAL = 1
    POISSON = 2
    SINGLE_FILE = 3


class FileDifference(IntEnum):
    """Whether clients request different files or all hammer the same one."""

    DIFFERENT = 0
    SAME = 1


@dataclass(frozen=True)
class WorkloadSpec:
    """Client load description, written on the CLI as a 6-number tuple.

    Order: client_count, file_dist, file_object, file_max_object,
    sleep_time_ms, file_difference. The stable reference load is
    (600,0,20,20,1000,0) and the aging one is (600,0,100,20,1000,0): same
    pressure, but the second rotates over five times more files than are ever
    concurrently active.
    """

    client_count: int
    file_dist: FileDist
    file_object: int
    file_max_object: int
    sleep_time_ms: int
    file_difference: FileDifference

    def __post_init__(self):
        for name, kind in (("file_dist", FileDist), ("file_difference", FileDifference)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, kind(value))
            except ValueError:
                allowed = list(map(int, kind))
                raise DomainError(f"{name} must be one of {allowed}, got {_shown(value)}") from None
        for name in ("client_count", "file_object", "file_max_object", "sleep_time_ms"):
            value = getattr(self, name)
            if not _is_integral(value) or value < 0:
                raise DomainError(f"{name} must be a nonnegative integer, got {_shown(value)}")
            object.__setattr__(self, name, int(value))
        if self.file_object < 1:
            raise DomainError("file_object must be at least 1")
        if self.file_max_object < 1:
            raise DomainError("file_max_object must be at least 1")
        if self.file_max_object > self.file_object:
            raise DomainError(
                f"file_max_object ({self.file_max_object}) exceeds file_object ({self.file_object})"
            )


def parse_workload(text):
    """Parse '600,0,100,20,1000,0' (optionally parenthesized) into a WorkloadSpec."""
    cleaned = text.strip().strip("()")
    parts = [p.strip() for p in cleaned.split(",")]
    if len(parts) != 6:
        raise ParseError(f"workload tuple needs 6 comma-separated integers, got {len(parts)}")
    numbers = []
    for i, part in enumerate(parts):
        try:
            numbers.append(int(part))
        except ValueError:
            raise ParseError(f"workload field {i + 1} is not an integer: {part!r}") from None
    for index, what in ((1, "file_dist"), (5, "file_difference")):
        allowed = {int(v) for v in (FileDist if index == 1 else FileDifference)}
        if numbers[index] not in allowed:
            raise ParseError(f"workload {what} must be one of {sorted(allowed)}, got {numbers[index]}")
    return WorkloadSpec(*numbers)


@dataclass(frozen=True)
class SimConfig:
    """Server capacity constants plus one coefficient per coupling law."""

    # capacity and protocol constants
    catalog_files: int = 100  # distinct media files the server hosts
    total_memory_mb: float = 1100.0  # hard ceiling for the working set
    base_block_kb: float = 4.0  # disk read block size when healthy
    max_block_kb: float = 16.0  # block escalation cap
    bandwidth_nominal_kbyte: float = 120.0  # per-client delivery rate when healthy
    bandwidth_fail_kbyte: float = 30.0  # below this the service has failed
    capacity_clients: int = 900  # admission limit
    refcount_threshold: int = 0  # default reclaimer frees blocks at or below this refcount
    tick_seconds: float = 15.0
    # initial memory layout
    initial_cache_mb: float = 80.0
    baseline_working_set_mb: float = 520.0
    # request -> cache coupling
    file_footprint_mb: float = 5.0  # cache that fully covers one file
    cache_growth_mb_per_miss: float = 0.0003
    backlog_cache_gain: float = 0.001  # queued-but-unconsumed data entering the cache
    cache_turnover_rate: float = 0.001  # fraction of the live cache replaced per tick
    # stale-block (software free radical) generation and reclaim
    sfr_stale_rate: float = 0.004  # churn-driven stale-block production
    sfr_reclaim_rate: float = 0.02  # reclaim speed for eligible blocks
    refcount_survival: float = 0.85  # P(stale block refcount >= k) = survival^k
    live_refcount_scale: float = 30.0  # refcount spread of live (non-stale) blocks
    # memory -> latency -> block size
    pressure_latency_gain: float = 2.0
    blocksize_trigger_ratio: float = 6.0  # latency multiple that doubles the block
    # disk queue service
    queue_service_rate: float = 8.0  # MB/s the disk subsystem absorbs
    queue_drain_rate: float = 0.1
    queue_gain: float = 1.0
    # working-set growth beyond the cache (sessions, buffers, fragmentation)
    heap_growth_per_queue: float = 0.02
    heap_decay_rate: float = 0.0001
    # bandwidth response
    bandwidth_queue_gain: float = 0.002
    bandwidth_pressure_gain: float = 0.06
    # workload shape
    poisson_mean_fraction: float = 0.25  # hot-set size under the Poisson file law
    activity_norm_requests: float = 1000.0  # requests per tick treated as full activity
    # rejuvenation trigger smoothing window (ticks)
    trigger_window_ticks: int = 200

    def __post_init__(self):
        positive = (
            "catalog_files",
            "total_memory_mb",
            "base_block_kb",
            "max_block_kb",
            "bandwidth_nominal_kbyte",
            "bandwidth_fail_kbyte",
            "capacity_clients",
            "tick_seconds",
            "file_footprint_mb",
            "queue_drain_rate",
            "blocksize_trigger_ratio",
            "queue_gain",
            "live_refcount_scale",
            "poisson_mean_fraction",
            "activity_norm_requests",
            "trigger_window_ticks",
        )
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            if field.type is int:
                if not _is_integral(value):
                    raise DomainError(f"config {name} must be an integer, got {_shown(value)}")
                object.__setattr__(self, name, int(value))
            elif not isinstance(value, numbers.Real):
                raise DomainError(f"config {name} must be a number, got {_shown(value)}")
            if name in positive:
                if not value > 0:
                    raise DomainError(f"config {name} must be positive, got {_shown(value)}")
            elif name != "refcount_survival" and not value >= 0:
                raise DomainError(f"config {name} must be nonnegative, got {_shown(value)}")
            if not _is_real(value):
                raise DomainError(f"config {name} must be finite, got {_shown(value)}")
        if self.max_block_kb < self.base_block_kb:
            raise DomainError("max_block_kb must be at least base_block_kb")
        if self.bandwidth_fail_kbyte >= self.bandwidth_nominal_kbyte:
            raise DomainError("bandwidth_fail_kbyte must be below bandwidth_nominal_kbyte")
        if not (0.0 < self.refcount_survival < 1.0):
            raise DomainError("refcount_survival must lie strictly inside (0, 1)")
        if self.queue_drain_rate > 1.0:
            raise DomainError("queue_drain_rate must be at most 1")
        if self.sfr_reclaim_rate > 1.0:
            raise DomainError("sfr_reclaim_rate must be at most 1")
        if self.sfr_stale_rate + self.cache_turnover_rate > 1.0:
            raise DomainError("sfr_stale_rate + cache_turnover_rate must not exceed 1")
        if self.initial_cache_mb + self.baseline_working_set_mb > self.total_memory_mb:
            raise DomainError("initial cache plus baseline working set exceeds total memory")


def load_sim_config(path):
    """Parse a flat key=value file of SimConfig overrides; unknown keys are parse errors.

    Each value is parsed as its SimConfig field's annotated type (int or float);
    fields the file leaves out keep their defaults.
    """
    kinds = {f.name: f.type for f in fields(SimConfig)}
    overrides = {}
    try:
        with _open_text(path) as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    for line_num, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {line_num}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in kinds:
            raise ParseError(f"{path}: line {line_num}: unknown config key {key!r}")
        try:
            overrides[key] = kinds[key](value)
        except ValueError:
            raise ParseError(
                f"{path}: line {line_num}: value for {key} is not numeric: {value!r}"
            ) from None
    try:
        return SimConfig(**overrides)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


class PolicyVariant(Enum):
    NONE = "none"
    CACHE_HIT_ADMISSION = "cache-hit"
    PROBABILISTIC_ADMISSION = "probabilistic"
    DISK_BLOCK_RESET = "block-reset"
    MEM_REAP_ENLARGE = "memreap"


@dataclass(frozen=True)
class RejuvenationPolicy:
    """A rejuvenation method plus the aging-degree level that arms it."""

    variant: PolicyVariant = PolicyVariant.NONE
    trigger_threshold: float = 0.5  # the constructors below take it as their default too
    admit_probability: float | None = None
    refcount: int | None = None

    def __post_init__(self):
        if not isinstance(self.variant, PolicyVariant):
            raise DomainError(f"unknown policy variant: {self.variant!r}")
        if not (_is_real(self.trigger_threshold) and 0.0 < self.trigger_threshold <= 1.0):
            raise DomainError(f"trigger threshold out of range (0, 1]: {_shown(self.trigger_threshold)}")
        if self.variant is PolicyVariant.PROBABILISTIC_ADMISSION:
            if not (_is_real(self.admit_probability) and 0.0 <= self.admit_probability <= 1.0):
                raise DomainError("probabilistic admission needs admit_probability in [0, 1]")
        elif self.admit_probability is not None:
            raise DomainError("admit_probability is only valid for probabilistic admission")
        if self.variant is PolicyVariant.MEM_REAP_ENLARGE:
            if not _is_integral(self.refcount) or self.refcount < 1:
                raise DomainError("memreap enlargement needs an integer refcount >= 1")
            object.__setattr__(self, "refcount", int(self.refcount))
        elif self.refcount is not None:
            raise DomainError("refcount is only valid for memreap enlargement")

    @classmethod
    def none(cls):
        return cls(PolicyVariant.NONE)

    @classmethod
    def cache_hit(cls, trigger_threshold=trigger_threshold):
        return cls(PolicyVariant.CACHE_HIT_ADMISSION, trigger_threshold)

    @classmethod
    def probabilistic(cls, admit_probability, trigger_threshold=trigger_threshold):
        return cls(
            PolicyVariant.PROBABILISTIC_ADMISSION, trigger_threshold, admit_probability=admit_probability
        )

    @classmethod
    def disk_block_reset(cls, trigger_threshold=trigger_threshold):
        return cls(PolicyVariant.DISK_BLOCK_RESET, trigger_threshold)

    @classmethod
    def mem_reap_enlarge(cls, refcount, trigger_threshold=trigger_threshold):
        return cls(PolicyVariant.MEM_REAP_ENLARGE, trigger_threshold, refcount=refcount)


NO_POLICY = RejuvenationPolicy.none()
DEFAULT_TICKS = 4000  # run's tick count, and the CLI's --ticks default
PRESSURE_CAP = 0.995  # memory_pressure's cap on the working set over total memory


@dataclass(frozen=True)
class SimState:
    """Snapshot of the server at one tick.

    ``bw_avg_kbyte`` is the trailing smoothed bandwidth feeding the
    rejuvenation trigger; the trace CSV keeps only the seven observable
    columns.
    """

    tick: int
    cache_mb: float
    working_set_mb: float
    disk_queue_len: float
    block_kb: float
    bandwidth_kbyte: float
    sfr_mb: float
    bw_avg_kbyte: float

    def validate(self, cfg):
        for field, value in zip(fields(self), _row(self)):
            kind = field.type.__name__
            if not (_is_integral if kind == "int" else _is_real)(value):
                raise DomainError(f"{field.name} must be a finite {kind}, got {_shown(value)}")
        _check_state(cfg, *_row(self)[:-1])  # the invariants; bw_avg_kbyte has none


# a state as a row of its fields in declaration order; the trace CSV keeps
# every column but the trigger's trailing average
_row = operator.attrgetter(*(field.name for field in fields(SimState)))
TRACE_HEADER = tuple(field.name for field in fields(SimState))[:-1]


class Trace(Sequence):
    """A run's states, kept as one tuple per tick in SimState field order.

    Reading an element builds its SimState; a slice or a sum is a Trace. A
    Trace equals a Trace or any sequence of the same states.
    """

    def __init__(self, rows):
        self._rows = rows

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self._rows[index])
        return SimState(*self._rows[index])

    def __iter__(self):
        # listing 8 001 states: 8.8-9.0 ms, against 9.6-10.1 ms by Sequence's
        # indexing default (2-vCPU x86_64, Python 3.11)
        return (SimState(*row) for row in self._rows)

    def __add__(self, other):
        return Trace(self._rows + _rows(other))

    def __radd__(self, other):
        return Trace(_rows(other) + self._rows)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return self._rows == other._rows
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def columns(self):
        """The TRACE_HEADER columns as float arrays, the mapping load_trace returns."""
        flat = np.fromiter(itertools.chain.from_iterable(self._rows), dtype=float)
        return dict(zip(TRACE_HEADER, flat.reshape(-1, len(fields(SimState))).T))


def _rows(states):
    """A Trace's rows, or the rows of a sequence of SimStates."""
    return states._rows if isinstance(states, Trace) else [_row(s) for s in states]


def _check_state(
    cfg, tick, cache_mb, working_set_mb, disk_queue_len, block_kb, bandwidth_kbyte, sfr_mb
):
    """The state invariants, checked in this order by SimState.validate and the tick kernel."""
    if tick < 0:
        raise DomainError(f"tick must be nonnegative, got {tick}")
    if not (0.0 <= sfr_mb <= cache_mb):
        raise DomainError(f"sfr_mb {sfr_mb} outside [0, cache_mb={cache_mb}]")
    if cache_mb > working_set_mb:
        raise DomainError(f"cache_mb {cache_mb} exceeds working_set_mb {working_set_mb}")
    if working_set_mb > cfg.total_memory_mb:
        raise DomainError(
            f"working_set_mb {working_set_mb} exceeds total memory {cfg.total_memory_mb}"
        )
    if not (cfg.base_block_kb <= block_kb <= cfg.max_block_kb):
        raise DomainError(f"block_kb {block_kb} outside configured range")
    if disk_queue_len < 0:
        raise DomainError(f"disk_queue_len must be nonnegative, got {disk_queue_len}")
    if not (0.0 < bandwidth_kbyte <= cfg.bandwidth_nominal_kbyte):
        raise DomainError(f"bandwidth_kbyte {bandwidth_kbyte} outside (0, nominal]")


def memory_pressure(working_set_mb, cfg):
    """Saturating pressure m/(1-m) with m = working set over total, clamped."""
    m = min(working_set_mb / cfg.total_memory_mb, PRESSURE_CAP)
    return m / (1.0 - m)


def read_latency(state, cfg):
    """Per-read latency as a multiple of the unloaded read time."""
    return 1.0 + cfg.pressure_latency_gain * memory_pressure(state.working_set_mb, cfg)


def bandwidth_for(queue_len, working_set_mb, cfg):
    """Delivered per-client bandwidth: nominal divided down by queue and pressure."""
    divisor = (
        1.0
        + cfg.bandwidth_queue_gain * queue_len
        + cfg.bandwidth_pressure_gain * memory_pressure(working_set_mb, cfg)
    )
    return cfg.bandwidth_nominal_kbyte / divisor


def aging_level(state, cfg):
    """Online aging degree: one minus trailing bandwidth over nominal."""
    return max(0.0, 1.0 - state.bw_avg_kbyte / cfg.bandwidth_nominal_kbyte)


def init_state(cfg):
    """Freshly started server: cold-ish cache, empty queue, base block size."""
    working = cfg.baseline_working_set_mb + cfg.initial_cache_mb
    bandwidth = bandwidth_for(0.0, working, cfg)
    return SimState(
        tick=0,
        cache_mb=cfg.initial_cache_mb,
        working_set_mb=working,
        disk_queue_len=0.0,
        block_kb=cfg.base_block_kb,
        bandwidth_kbyte=bandwidth,
        sfr_mb=0.0,
        bw_avg_kbyte=bandwidth,
    )


def validate_workload(load, cfg):
    """Checks that need the config; returns the requests the clients make per tick."""
    if load.file_object > cfg.catalog_files:
        raise DomainError(
            f"file_object ({load.file_object}) exceeds catalog_files ({cfg.catalog_files})"
        )
    if load.client_count > cfg.capacity_clients:
        raise DomainError(
            f"client_count ({load.client_count}) exceeds capacity_clients "
            f"({cfg.capacity_clients}); the server restarts at that point"
        )
    requests = load.client_count * (cfg.tick_seconds * 1000.0) / max(load.sleep_time_ms, 1)
    if not requests < 2.0**63:  # the most trials numpy's binomial draws take
        raise DomainError(f"requests per tick must stay below 2**63, got {requests!r}")
    return int(round(requests))


def _poisson_pmf(file_object, mean_fraction):
    """Poisson popularity of files 0..file_object-1, lam = mean_fraction * file_object.

    The pmf is renormalized over the catalog. It is built in log space outward
    from the mode m: log p(k) - log p(m) is a running sum of log(lam / j),
    small wherever p is large, so it stays finite and accurate for any catalog
    size (exp(-lam) itself underflows once lam > 745).
    """
    lam = max(mean_fraction * file_object, 1e-9)
    mode = min(int(lam), file_object - 1)
    log_ratio = np.log(lam / np.arange(1, file_object))  # log p(j) - log p(j - 1)
    log_pmf = np.zeros(file_object)
    log_pmf[mode + 1 :] = np.cumsum(log_ratio[mode:])
    log_pmf[:mode] = -np.cumsum(log_ratio[:mode][::-1])[::-1]
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


def _ranked_popularity(file_object, mean_fraction):
    """Popularity sorted most popular first, plus an empty memo of its prefix masses by length.

    Built once per run, so one sort serves every tick of that run.
    """
    return np.sort(_poisson_pmf(file_object, mean_fraction))[::-1], {}


def _poisson_top_mass(ranked, prefix_mass, cached_files):
    """Probability mass of the cached (most popular) files under Poisson popularity.

    ``ranked`` and ``prefix_mass`` are the pair ``_ranked_popularity`` returns.
    """
    whole = int(cached_files)  # floor, as cached_files is finite and nonnegative
    entry = prefix_mass.get(whole)
    if entry is None:
        # one np.sum over the prefix, never a running total, so every bit of
        # p_miss (and with it the RNG stream) matches an uncached evaluation;
        # past the last file the next mass is 0.0, and only cached_files ==
        # len(ranked) reaches it, where the term added below is 0.0 * 0.0
        entry = prefix_mass[whole] = (
            float(ranked[:whole].sum()),
            float(ranked[whole]) if whole < len(ranked) else 0.0,
        )
    mass, next_mass = entry
    mass += (cached_files - whole) * next_mass
    return 1.0 if 1.0 < mass else mass


def _reclaim_rates(threshold, cfg):
    """Per-tick reclaimed fractions of the stale and the live pool at a refcount threshold."""
    stale_reclaimable = 1.0 - cfg.refcount_survival ** (threshold + 1)
    live_reclaimable = 1.0 - math.exp(-threshold / cfg.live_refcount_scale)
    return cfg.sfr_reclaim_rate * stale_reclaimable, cfg.sfr_reclaim_rate * live_reclaimable


def _advance(state, load, cfg, policy, ticks, rng):
    """The tick kernel: ``ticks`` steps from ``state`` under ``policy`` on ``rng``.

    Returns a Trace of ``state`` and the ``ticks`` new states. Checks
    ``state``, then the workload, then every state it makes.
    """
    state.validate(cfg)
    # --- per-run constants ------------------------------------------------
    variant = policy.variant
    policed = variant is not PolicyVariant.NONE
    trigger = policy.trigger_threshold
    cache_hit = variant is PolicyVariant.CACHE_HIT_ADMISSION
    thinning = variant is PolicyVariant.PROBABILISTIC_ADMISSION
    block_reset = variant is PolicyVariant.DISK_BLOCK_RESET
    mem_reap = variant is PolicyVariant.MEM_REAP_ENLARGE

    requests = validate_workload(load, cfg)
    # mean-value thinning keeps p=1.0 bit-identical to no policy at all
    thinned = int(round(requests * policy.admit_probability)) if thinning else requests
    activity = min(1.0, requests / cfg.activity_norm_requests)
    thinned_activity = min(1.0, thinned / cfg.activity_norm_requests)

    if load.file_difference is FileDifference.SAME:
        file_object = 1
        file_max = 1
    else:
        file_object = load.file_object
        file_max = load.file_max_object
    churn = (file_object - file_max) / file_object
    catalog = float(file_object)
    poisson = load.file_dist is FileDist.POISSON
    single_file = load.file_dist is FileDist.SINGLE_FILE
    sampled = load.file_dist in (FileDist.RANDOM, FileDist.POISSON)
    if poisson:
        ranked, prefix_mass = _ranked_popularity(file_object, cfg.poisson_mean_fraction)
        top_mass = _poisson_top_mass

    stale_rate, live_rate = _reclaim_rates(cfg.refcount_threshold, cfg)
    if mem_reap:
        reap_stale_rate, reap_live_rate = _reclaim_rates(policy.refcount, cfg)

    total = cfg.total_memory_mb
    baseline = cfg.baseline_working_set_mb
    footprint = cfg.file_footprint_mb
    base_block = cfg.base_block_kb
    max_block = cfg.max_block_kb
    blocksize_ratio = cfg.blocksize_trigger_ratio
    latency_gain = cfg.pressure_latency_gain
    queue_keep = 1.0 - cfg.queue_drain_rate
    queue_gain = cfg.queue_gain
    service = cfg.queue_service_rate
    growth_per_miss = cfg.cache_growth_mb_per_miss
    backlog_gain = cfg.backlog_cache_gain
    stale_churn = cfg.sfr_stale_rate * churn
    turnover_rate = cfg.cache_turnover_rate
    heap_growth = cfg.heap_growth_per_queue
    heap_decay = cfg.heap_decay_rate
    nominal = cfg.bandwidth_nominal_kbyte
    queue_bw_gain = cfg.bandwidth_queue_gain
    pressure_bw_gain = cfg.bandwidth_pressure_gain
    window = cfg.trigger_window_ticks
    pressure_cap = PRESSURE_CAP
    binomial = rng.binomial
    check = _check_state

    # --- the state, carried as locals ---------------------------------------
    tick = state.tick
    cache_mb = state.cache_mb
    working_set_mb = state.working_set_mb
    queue_len = state.disk_queue_len
    block_kb = state.block_kb
    sfr_mb = state.sfr_mb
    bw_avg = state.bw_avg_kbyte
    # working set over total memory, and its memory_pressure(); each tick
    # computes both for the state it makes, and the next tick reuses them
    used = working_set_mb / total
    pressure = memory_pressure(working_set_mb, cfg)

    rows = [_row(state)]
    for _ in range(ticks):
        # aging_level() of the state this tick starts from, compared with the
        # trigger; its clamp at 0 cannot change the test, as the trigger is > 0
        active = policed and 1.0 - bw_avg / nominal >= trigger

        # --- request arrivals and cache misses ---------------------------
        if active and thinning:
            tick_requests = thinned
            tick_activity = thinned_activity
        else:
            tick_requests = requests
            tick_activity = activity
        live_mb = cache_mb - sfr_mb
        if tick_requests == 0 or (active and cache_hit):
            # cache-hit admission turns every would-be miss away at the door
            misses = 0
        else:
            cached_files = live_mb / footprint
            cached_files = cached_files if cached_files < catalog else catalog
            # p_miss lies in [0, 1]: cached_files <= catalog, top mass <= 1
            if poisson:
                p_miss = 1.0 - top_mass(ranked, prefix_mass, cached_files)
            elif single_file:
                p_miss = 0.0 if cached_files >= 1.0 else 1.0
            else:
                p_miss = 1.0 - cached_files / file_object
            if sampled:
                misses = int(binomial(tick_requests, p_miss))
            else:
                misses = int(round(tick_requests * p_miss))

        # --- block size escalation (or pinned reset) -----------------------
        latency = 1.0 + latency_gain * pressure
        if active and block_reset:
            block = base_block
        else:
            block = block_kb
            if block < max_block and latency > blocksize_ratio * (block / base_block):
                block = block * 2.0
                block = max_block if max_block < block else block

        # --- disk queue ------------------------------------------------------
        demand = misses * (block / base_block) / 1000.0
        queue = queue_keep * queue_len + queue_gain * (demand - service)
        queue = queue if queue > 0.0 else 0.0

        # --- cache, stale pool, reclaim --------------------------------------
        damp = 1.0 - used  # >= 0, as working <= total in every checked state
        # backlog data is parked in memory whether or not memory is tight; only
        # fresh read-ahead growth is throttled by free memory
        growth = misses * growth_per_miss * damp + backlog_gain * queue_len
        if active and mem_reap:
            reclaim_stale = reap_stale_rate * sfr_mb
            reclaim_live = reap_live_rate * live_mb
        else:
            reclaim_stale = stale_rate * sfr_mb
            reclaim_live = live_rate * live_mb
        stale_gen = stale_churn * live_mb * tick_activity
        turnover = turnover_rate * live_mb * tick_activity

        # >= 0, as reclaim_stale <= sfr_mb (its rate is at most 1) and stale_gen >= 0
        sfr = sfr_mb + stale_gen - reclaim_stale
        live = live_mb + growth - stale_gen - turnover - reclaim_live
        live = live if live > 0.0 else 0.0
        cache = sfr + live

        # --- working set beyond the cache --------------------------------------
        heap = working_set_mb - baseline - cache_mb
        heap = heap + heap_growth * queue_len * damp - heap_decay * heap
        heap = heap if heap > 0.0 else 0.0
        working = baseline + cache + heap
        # backlog parking and heap growth are not throttled by free memory, so
        # a large backlog_cache_gain or queue_gain reaches this clamp
        if working > total:
            overflow = working - total
            shaved = overflow if overflow < heap else heap
            heap -= shaved
            overflow -= shaved
            if overflow > 0.0:
                live = live - overflow
                live = live if live > 0.0 else 0.0
                cache = sfr + live
            working = baseline + cache + heap
            working = total if total < working else working

        # --- observable bandwidth and the trailing trigger average ------------
        used = working / total
        m = pressure_cap if pressure_cap < used else used
        pressure = m / (1.0 - m)  # memory_pressure(working, cfg), inlined
        bandwidth = nominal / (1.0 + queue_bw_gain * queue + pressure_bw_gain * pressure)
        bw_avg += (bandwidth - bw_avg) / window

        tick += 1
        check(cfg, tick, cache, working, queue, block, bandwidth, sfr)
        rows.append((tick, cache, working, queue, block, bandwidth, sfr, bw_avg))
        cache_mb = cache
        working_set_mb = working
        queue_len = queue
        block_kb = block
        sfr_mb = sfr
    return Trace(rows)


def step(state, load, cfg, policy=NO_POLICY, rng=None):
    """Advance one 15-second tick; pure function of (state, load, cfg, policy, rng)."""
    if rng is None:
        rng = np.random.default_rng(0)
    return _advance(state, load, cfg, policy, 1, rng)[1]


def _seeded_rng(seed):
    if not (_is_integral(seed) and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {_shown(seed)}")
    return np.random.default_rng(int(seed))


def run(cfg, load, policy=NO_POLICY, ticks=DEFAULT_TICKS, seed=0):
    """Simulate ticks steps from a fresh server; returns a Trace of ticks+1 states.

    The seed, a nonnegative integer, fixes the random stream.
    """
    if not _is_integral(ticks) or ticks < 0:
        raise DomainError(f"ticks must be nonnegative and integral, got {_shown(ticks)}")
    rng = _seeded_rng(seed)
    return _advance(init_state(cfg), load, cfg, policy, int(ticks), rng)


def apply_policy_experiment(cfg, load, policy, ticks, rejuvenation_tick, seed=0):
    """Run unpoliced until rejuvenation_tick, then with the policy; one RNG stream.

    Returns (before, after), two Traces: states 0..rejuvenation_tick and the rest.
    """
    if not (_is_integral(ticks) and _is_integral(rejuvenation_tick)):
        raise DomainError(
            f"ticks and rejuvenation_tick must be integral, "
            f"got {_shown(ticks)} and {_shown(rejuvenation_tick)}"
        )
    ticks, rejuvenation_tick = int(ticks), int(rejuvenation_tick)
    if not (0 < rejuvenation_tick < ticks):
        raise DomainError(
            f"rejuvenation_tick must fall inside (0, {ticks}), got {rejuvenation_tick}"
        )
    rng = _seeded_rng(seed)
    before = _advance(init_state(cfg), load, cfg, NO_POLICY, rejuvenation_tick, rng)
    after = _advance(before[-1], load, cfg, policy, ticks - rejuvenation_tick, rng)
    return before, after[1:]


def trace_csv(states):
    """Render a Trace, or a sequence of SimStates, as CSV text with the pinned header."""
    lines = [",".join(TRACE_HEADER)]
    for tick, cache, working, queue, block, bandwidth, sfr, _ in _rows(states):
        # format_float inlined: the shortest round-trip repr of each value as a float
        lines.append(
            f"{tick},{float(cache)!r},{float(working)!r},{float(queue)!r},"
            f"{float(block)!r},{float(bandwidth)!r},{float(sfr)!r}"
        )
    return "\n".join(lines) + "\n"


def write_trace(path, states):
    write_text_atomic(path, trace_csv(states))


def load_trace(path):
    """Read a trace CSV back as {column: array}; validates the header."""
    return dict(zip(TRACE_HEADER, _read_columns(path, TRACE_HEADER, "trace header")))


def aging_degree(ticks, bandwidth, cfg, name="bandwidth_kbyte"):
    """Bandwidth per tick -> smoothed, normalized aging curve on an hour axis."""
    ticks = _as_readonly_float_array(ticks, "ticks")
    if len(ticks) < 3:
        raise DomainError("aging_degree needs at least 3 states")
    series = MetricSeries(
        name=name,
        orientation=Orientation.LOWER_IS_WORSE,
        t=ticks * cfg.tick_seconds / 3600.0,
        values=bandwidth,
    )
    return to_aging_curve(series)

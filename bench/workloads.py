"""The five workloads: every constant, with its reason, and the seeded generators.

A generator is a pure function of ``(seed, corpus, scale)`` and never imports
``repro``: the program under test receives only the prompts, budgets and
schedule it returns.  Arrivals are on the **engine-step clock** (request *j*
is submitted just before the driver's ``arrival_step[j]``-th ``step()`` call),
never on the wall clock, so batch composition and every counter repeat exactly.

The *shapes* of a workload's requests — which template or document, how many
prompt and suffix tokens, what output budget, paired how — are one fixed
multiset (a quantile grid of each distribution, paired by a fixed shuffle).
The seed draws the token contents, the order the requests arrive in and each
arrival's offset inside its pacing window.  Every seed therefore carries the
same total work, and between-seed spread measures the program under a
different interleaving, not the luck of which long prompt met which budget
(seeded pairing moved ``tpot_ms_p50`` 8 % between seeds on ``spec_extractive``
and ``rows_per_token`` 3 % on ``prefix_prefill``; seeded order alone, 3 % and 1 %).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

WORKLOADS = ("decode_steady", "prefix_prefill", "spec_extractive", "async_priority", "pool_chaos")

#: One line per workload for BENCHMARK.json and the report header.
WHY = {
    "decode_steady": (
        "open loop of short unshared prompts and long outputs: >=70% of rows are batched "
        "single-token decode rows, prefix cache and speculation bypassed; the decode-glue workload"
    ),
    "prefix_prefill": (
        "open loop of long templated prompts and short outputs: >90% prefill rows; prefix "
        "match/publish/COW/LRU eviction decide how many; decode-only changes predict no move"
    ),
    "spec_extractive": (
        "open loop of extractive prompts under prompt-lookup speculation: wide verify forwards "
        "and KV truncate rollback instead of append-only decode; prefix cache off"
    ),
    "async_priority": (
        "closed loop through the asyncio front door: 3 urgent + 8 background clients, "
        "preemption with replay prefix hits; the only two-class workload"
    ),
    "pool_chaos": (
        "open loop on a 3-replica pool of 2-shard runners with scripted kills and collective "
        "corruption/drops: the only workload running cluster, shard and collective"
    ),
}

#: Measuring budget of one run in seconds (BENCHMARK.json ``run_seconds``): as
#: many identical repeats of the trace as fit, three on the defining VM.
DEFAULT_SECONDS = 18

#: ``--quick`` keeps one request in eight (same rates, same shapes).
QUICK_DIVISOR = 8

#: Every eighth request is checked against the alone-served oracle ...
ORACLE_STRIDE = 8
#: ... but never more than this many: the oracle decodes at batch 1 and a full
#: 1-in-8 sample of the 400-request trace would cost a quarter of the run.
ORACLE_MAX = 32


@dataclass
class Trace:
    """The inputs of one workload at one seed."""

    name: str
    seed: int
    #: One prompt per request, submission order.
    prompts: List[np.ndarray]
    #: Per-request ``max_new_tokens``.
    max_new: np.ndarray
    #: Per-request priority class (0 = urgent).
    priority: np.ndarray
    #: Open loop: engine step before which request *j* is submitted.
    arrival_step: Optional[np.ndarray] = None
    #: Closed loop: request indices each client sends, in order.
    clients: Optional[List[List[int]]] = None
    #: Closed loop: event-loop turns a client yields after each request.
    think_turns: Optional[np.ndarray] = None
    #: ``spec_extractive``: tokens of the model's own greedy continuation the
    #: set-up appends to every distinct prompt before serving.
    extend_tokens: int = 0
    #: ``pool_chaos``: ``{pool iteration: replica id}`` scripted kills.
    kill_at: Dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.prompts)

    def digest(self) -> str:
        """SHA-256 over every generated array (the byte-identity check)."""
        h = hashlib.sha256()
        for prompt in self.prompts:
            h.update(np.asarray(prompt, dtype=np.int64).tobytes())
            h.update(b"|")
        for array in (self.max_new, self.priority, self.arrival_step, self.think_turns):
            h.update(b"#" if array is None else np.asarray(array, dtype=np.int64).tobytes())
        h.update(repr(self.clients).encode())
        h.update(repr(sorted(self.kill_at.items())).encode())
        return h.hexdigest()

    def oracle_sample(self) -> List[int]:
        """Request indices compared with the oracle: evenly spaced, deterministic."""
        count = min(ORACLE_MAX, max(1, len(self) // ORACLE_STRIDE))
        return sorted({int(i) for i in np.linspace(0, len(self) - 1, count)})


# ----------------------------------------------------------------------
# Fixed shapes, seeded contents
# ----------------------------------------------------------------------
def _grid(count: int, low: int, high: int) -> np.ndarray:
    """``count`` integers covering ``[low, high]`` evenly, ascending."""
    return (low + (np.arange(count) * (high - low + 1)) // count).astype(np.int64)


def _shuffled_grid(count: int, low: int, high: int, salt: int) -> np.ndarray:
    """The grid in a fixed (seed-independent) order: decorrelates two shape columns."""
    return np.random.default_rng(salt).permutation(_grid(count, low, high))


def _arrival_steps(rng: np.random.Generator, count: int, rate: float) -> np.ndarray:
    """Evenly paced arrivals: request *j* falls at a seeded point of the *j*-th ``1/rate`` window."""
    return np.floor((np.arange(count) + rng.random(count)) / rate).astype(np.int64)


def _zipf_counts(count: int, items: int, exponent: float) -> np.ndarray:
    """How many of ``count`` draws each of ``items`` ranks gets under Zipf popularity."""
    weights = 1.0 / np.arange(1, items + 1) ** exponent
    shares = np.floor(count * weights / weights.sum()).astype(np.int64)
    shares[0] += count - shares.sum()
    return shares


def _slices(rng: np.random.Generator, corpus: np.ndarray, lengths: np.ndarray) -> List[np.ndarray]:
    """One corpus window per length, at seeded offsets."""
    offsets = rng.integers(0, len(corpus) - int(np.max(lengths)) - 1, size=len(lengths))
    return [np.asarray(corpus[o : o + n], dtype=np.int64) for o, n in zip(offsets, lengths)]


def _scaled(count: int, quick: bool) -> int:
    return max(1, count // QUICK_DIVISOR) if quick else count


# ----------------------------------------------------------------------
# decode_steady
# ----------------------------------------------------------------------
DECODE_REQUESTS = 400  # >= 240 so p90 has >= 24 samples beyond it; ~4.5 s per repeat
DECODE_RATE = 0.25  # req/step: 0.75 of the 16 slots / 48 mean output steps decode capacity (see README: load)
DECODE_PROMPT = (8, 24)  # short, so prefill stays a small share of rows
DECODE_OUTPUT = (32, 64)  # long, so >= 70 % of forwarded rows are decode rows


def decode_steady(seed: int, corpus: np.ndarray, quick: bool = False) -> Trace:
    """Short unshared prompts at random corpus offsets, long outputs."""
    rng = np.random.default_rng([seed, 1])
    count = _scaled(DECODE_REQUESTS, quick)
    order = rng.permutation(count)
    return Trace(
        name="decode_steady",
        seed=seed,
        prompts=_slices(rng, corpus, _grid(count, *DECODE_PROMPT)[order]),
        max_new=_shuffled_grid(count, *DECODE_OUTPUT, salt=1)[order],
        priority=np.zeros(count, dtype=np.int64),
        arrival_step=_arrival_steps(rng, count, DECODE_RATE),
    )


# ----------------------------------------------------------------------
# prefix_prefill
# ----------------------------------------------------------------------
PREFIX_REQUESTS = 420  # >= 240 for p90; a repeat is ~3 s
PREFIX_RATE = 1 / 3  # req/step: a 3-step miss has left the 64-token prefill budget before the next arrival
PREFIX_TEMPLATES = 8  # more than fit beside 8 live requests in 160 blocks, so LRU evicts
PREFIX_TEMPLATE_LEN = (128, 176)  # 8-11 full blocks each: the part a hit saves
PREFIX_ZIPF = 1.5  # popular templates stay resident, the tail gets evicted and recomputed
PREFIX_SHARED_SHARE = 0.8  # the other 20 % are unshared long prompts that pollute the pool
PREFIX_SUFFIX = (16, 48)  # unique per request: always computed
PREFIX_UNSHARED = (144, 224)  # same total length range as template + suffix
PREFIX_OUTPUT = (4, 8)  # short, so <= 15 % of rows are decode rows
PREFIX_CHUNK = 64  # prompt tokens a step may prefill: long prompts trickle in beside decodes


def prefix_prefill(seed: int, corpus: np.ndarray, quick: bool = False) -> Trace:
    """Templated long prompts with unique suffixes, mixed with unshared long prompts."""
    rng = np.random.default_rng([seed, 2])
    count = _scaled(PREFIX_REQUESTS, quick)
    shared = int(round(count * PREFIX_SHARED_SHARE))
    # Template lengths go by popularity rank, so the tokens a hit saves do not
    # depend on which length the seed would hand the top rank.
    templates = _slices(rng, corpus, _grid(PREFIX_TEMPLATES, *PREFIX_TEMPLATE_LEN))
    picks = np.repeat(np.arange(PREFIX_TEMPLATES), _zipf_counts(shared, PREFIX_TEMPLATES, PREFIX_ZIPF))
    suffixes = _slices(rng, corpus, _shuffled_grid(shared, *PREFIX_SUFFIX, salt=2))
    prompts = [np.concatenate([templates[t], s]) for t, s in zip(picks, suffixes)]
    prompts += _slices(rng, corpus, _grid(count - shared, *PREFIX_UNSHARED))
    order = rng.permutation(count)
    return Trace(
        name="prefix_prefill",
        seed=seed,
        prompts=[prompts[i] for i in order],
        max_new=_shuffled_grid(count, *PREFIX_OUTPUT, salt=3)[order],
        priority=np.zeros(count, dtype=np.int64),
        arrival_step=_arrival_steps(rng, count, PREFIX_RATE),
    )


# ----------------------------------------------------------------------
# spec_extractive
# ----------------------------------------------------------------------
SPEC_REQUESTS = 240  # the floor that leaves 24 samples beyond p90
SPEC_RATE = 0.2  # req/step: verify commits several tokens per forward, so slots turn over fast
SPEC_PROMPTS = 48  # drawn with replacement: repeats measure speculation (prefix cache is off)
SPEC_SEED_TOKENS = 16  # corpus window the model continues from
SPEC_PROMPT_SEED = 7  # which 48 windows
SPEC_EXTEND_TOKENS = 56  # the model's own greedy continuation: what prompt lookup can copy
SPEC_OUTPUT = (32, 64)  # long enough for the adaptive draft length to settle


def spec_extractive(seed: int, corpus: np.ndarray, quick: bool = False) -> Trace:
    """Extractive prompts (seed window + own continuation, appended at set-up)."""
    rng = np.random.default_rng([seed, 3])
    count = _scaled(SPEC_REQUESTS, quick)
    # The 48 documents are fixed, and so is the budget each of a document's
    # five quotations gets (the ascending grid walks every document through
    # the whole range): how much of a document the drafter can copy sets the
    # accept rate.  The seed draws the order and the arrivals.
    documents = _slices(np.random.default_rng(SPEC_PROMPT_SEED), corpus, np.full(SPEC_PROMPTS, SPEC_SEED_TOKENS))
    order = rng.permutation(count)
    return Trace(
        name="spec_extractive",
        seed=seed,
        prompts=[documents[i % SPEC_PROMPTS] for i in order],
        max_new=_grid(count, *SPEC_OUTPUT)[order],
        priority=np.zeros(count, dtype=np.int64),
        arrival_step=_arrival_steps(rng, count, SPEC_RATE),
        extend_tokens=SPEC_EXTEND_TOKENS,
    )


# ----------------------------------------------------------------------
# async_priority
# ----------------------------------------------------------------------
URGENT_CLIENTS = 3  # enough that an urgent request is usually in flight
URGENT_REQUESTS = 96  # per client: 288 urgent samples, 28 beyond p90
URGENT_PROMPT = (6, 12)  # interactive: short in, short out
URGENT_OUTPUT = (2, 4)
URGENT_THINK = (4, 11)  # event-loop turns between a reply and the next request
BACKGROUND_CLIENTS = 8  # more than the 6 slots, so every urgent arrival must preempt
BACKGROUND_REQUESTS = 16  # per client
BACKGROUND_PROMPT = (24, 64)  # >= 3 blocks of 8: what publish-at-preemption re-maps on replay
BACKGROUND_OUTPUT = (40, 64)  # long-lived victims
URGENT_PRIORITY, BACKGROUND_PRIORITY = 0, 5


def async_priority(seed: int, corpus: np.ndarray, quick: bool = False) -> Trace:
    """Closed loop: urgent clients with think time against always-busy background clients."""
    rng = np.random.default_rng([seed, 4])
    urgent = URGENT_CLIENTS * _scaled(URGENT_REQUESTS, quick)
    background = BACKGROUND_CLIENTS * _scaled(BACKGROUND_REQUESTS, quick)
    # The seed deals each class's fixed shapes out to its clients in a new order.
    first, rest = rng.permutation(urgent), rng.permutation(background)
    prompts = _slices(rng, corpus, _grid(urgent, *URGENT_PROMPT)[first])
    prompts += _slices(rng, corpus, _grid(background, *BACKGROUND_PROMPT)[rest])
    indices = np.arange(urgent + background)
    clients = [list(map(int, indices[:urgent][c::URGENT_CLIENTS])) for c in range(URGENT_CLIENTS)]
    clients += [list(map(int, indices[urgent:][c::BACKGROUND_CLIENTS])) for c in range(BACKGROUND_CLIENTS)]
    return Trace(
        name="async_priority",
        seed=seed,
        prompts=prompts,
        max_new=np.concatenate(
            [
                _shuffled_grid(urgent, *URGENT_OUTPUT, salt=4)[first],
                _shuffled_grid(background, *BACKGROUND_OUTPUT, salt=5)[rest],
            ]
        ),
        priority=np.concatenate(
            [np.full(urgent, URGENT_PRIORITY), np.full(background, BACKGROUND_PRIORITY)]
        ).astype(np.int64),
        clients=clients,
        think_turns=np.concatenate(
            [_shuffled_grid(urgent, *URGENT_THINK, salt=6)[first], np.zeros(background, dtype=np.int64)]
        ),
    )


# ----------------------------------------------------------------------
# pool_chaos
# ----------------------------------------------------------------------
POOL_REQUESTS = 240  # the p90 floor; a pool step runs up to three sharded forwards
POOL_RATE = 0.30  # req/step over 3 replicas x 6 slots: ~0.4 busy, so recovery has headroom
POOL_REPLICAS = 3
POOL_TEMPLATES = 24  # sticky routing spreads them over the replicas
POOL_TEMPLATE_LEN = 24  # covers the router's 16-token window and one full KV block
POOL_TEMPLATE_SEED = 2041  # a seed whose 24 templates the router spreads 8 / 8 / 8 over the three replicas
POOL_SUFFIX = (4, 12)
POOL_OUTPUT = (16, 32)  # long enough that a kill lands on requests mid-decode
POOL_KILLS = 8  # scripted replica kills, evenly spaced over the arrival span


def pool_chaos(seed: int, corpus: np.ndarray, quick: bool = False) -> Trace:
    """Templated prompts on a sharded replica pool with scripted replica kills."""
    rng = np.random.default_rng([seed, 5])
    count = _scaled(POOL_REQUESTS, quick)
    # The templates are the deployment's fixed system prompts: the router
    # hashes their tokens, so seeding them would reshuffle replica load.
    templates = _slices(np.random.default_rng(POOL_TEMPLATE_SEED), corpus, np.full(POOL_TEMPLATES, POOL_TEMPLATE_LEN))
    order = rng.permutation(count)
    suffixes = _slices(rng, corpus, _shuffled_grid(count, *POOL_SUFFIX, salt=7)[order])
    arrival = _arrival_steps(rng, count, POOL_RATE)
    kills = _scaled(POOL_KILLS, quick)
    span = int(arrival[-1])
    victims = rng.permutation(np.arange(kills) % POOL_REPLICAS)
    kill_at = {(i + 1) * span // (kills + 1): int(victims[i]) for i in range(kills)}
    return Trace(
        name="pool_chaos",
        seed=seed,
        prompts=[np.concatenate([templates[i % POOL_TEMPLATES], s]) for i, s in zip(order, suffixes)],
        max_new=_shuffled_grid(count, *POOL_OUTPUT, salt=8)[order],
        priority=np.zeros(count, dtype=np.int64),
        arrival_step=arrival,
        kill_at=kill_at,
    )


GENERATORS = {
    "decode_steady": decode_steady,
    "prefix_prefill": prefix_prefill,
    "spec_extractive": spec_extractive,
    "async_priority": async_priority,
    "pool_chaos": pool_chaos,
}


def generate(name: str, seed: int, corpus: np.ndarray, quick: bool = False) -> Trace:
    """The trace of workload ``name`` at ``seed``."""
    return GENERATORS[name](int(seed), np.asarray(corpus), quick)

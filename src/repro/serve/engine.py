"""Batched generation as one policy over the continuous-batching scheduler.

Historically this module owned the whole serving loop; since the scheduler
landed, :class:`GenerationEngine` is a thin *policy* over
:class:`~repro.serve.scheduler.Scheduler`: every prompt is submitted at time
zero with a slot reserved for each (``max_batch_size = len(prompts)``), the
scheduler runs to completion, and the per-request outputs are reassembled
into the familiar rectangular :class:`GenerationResult`.  Because all
quantization schemes in this repository plug into the runner through the
executor interface, the same loop serves the FP baseline, Tender (implicit
or explicit requantization), and every registry baseline unchanged.

Properties that are load-bearing and covered by tests:

* a request's continuation is independent of what it was batched with — a
  row's result depends on its position, not on the rows sharing its forward,
  and each request samples from its own seeded generator, so this holds *bit-identically*
  for Tender's integer pipeline (and up to ~1e-15 BLAS row-blocking noise in
  the FP baseline's logits, which never changes its sampled tokens);
* greedy decoding through the KV-cache reproduces the full-sequence
  forward's logits step for step for every scheme with statically-determined
  matmul parameters.  Tender "all" (``quantize_attention=True``) quantizes
  attention operands with dynamic per-head statistics, so its decode steps
  form a deliberately different (per-step) quantization schedule than a full
  forward — the serving-time behavior the paper's runtime requantization
  targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.models.inference import TransformerRunner
from repro.serve.request import GenerationConfig, Request
from repro.serve.scheduler import Scheduler
from repro.serve.spec import SpecConfig

__all__ = ["GenerationConfig", "GenerationResult", "GenerationEngine", "generate"]


@dataclass
class GenerationResult:
    """Everything produced by one batched :meth:`GenerationEngine.generate`.

    Attributes
    ----------
    sequences : list of ndarray
        Per request: prompt followed by its generated continuation.
    generated : list of ndarray
        Per request: only the generated tokens (truncated at eos, inclusive).
    prompt_lengths : ndarray
        Prompt length of each request.
    step_logits : ndarray
        Logits that produced each generated token, ``(batch, steps, vocab)``.
        Rows whose request finished before ``num_steps`` (eos, or a budget
        capped by ``max_seq_len``) have their trailing entries zeroed.
    num_steps : int
        The largest number of decode steps any request took.
    """

    sequences: List[np.ndarray]
    generated: List[np.ndarray]
    prompt_lengths: np.ndarray
    step_logits: np.ndarray
    num_steps: int = 0


class GenerationEngine:
    """Fixed-batch generation: submit everything at once, run to completion.

    This is the ``max_batch_size = len(prompts)`` policy over the
    :class:`~repro.serve.scheduler.Scheduler` — every request is admitted at
    time zero and the engine returns when the last one finishes.  For
    arrival traces, mid-flight admission, or bounded batch sizes, drive the
    scheduler directly.

    Parameters
    ----------
    runner : TransformerRunner
        The executor-backed model to decode with (any quantization scheme).
    prefix_cache : bool
        Reuse KV blocks across requests sharing a prompt prefix (see
        :class:`~repro.serve.scheduler.Scheduler`); the pool is then sized
        with shared prefix blocks counted once.  For Tender's integer
        pipeline the generated tokens are bit-identical either way.
    prefill_chunk : int, optional
        The scheduler's per-step prefill budget, in prompt tokens (``None``:
        unbounded — each prompt is prefilled in one forward).
    speculation : SpecConfig, optional
        Enable speculative decoding (see :mod:`repro.serve.spec`): the
        scheduler drafts and verifies multi-token runs per decode
        iteration.  Greedy outputs are bit-identical to non-speculative
        decoding for Tender implicit/explicit — only the forward count
        changes.

    Examples
    --------
    >>> engine = GenerationEngine(TransformerRunner(weights))
    >>> result = engine.generate([prompt_a, prompt_b], GenerationConfig(max_new_tokens=8))
    >>> result.sequences[0]
    array([...])
    """

    def __init__(
        self,
        runner: TransformerRunner,
        prefix_cache: bool = False,
        prefill_chunk: Optional[int] = None,
        speculation: Optional[SpecConfig] = None,
    ) -> None:
        self.runner = runner
        self.prefix_cache = bool(prefix_cache)
        self.prefill_chunk = prefill_chunk
        self.speculation = speculation

    def generate(
        self,
        prompts: Sequence[np.ndarray],
        config: Optional[GenerationConfig] = None,
    ) -> GenerationResult:
        """Generate continuations for a batch of (possibly ragged) prompts.

        Parameters
        ----------
        prompts : sequence of ndarray
            One token-id array per request; lengths may differ.
        config : GenerationConfig, optional
            Decoding parameters (default: greedy, 32 new tokens).

        Returns
        -------
        GenerationResult
            Sequences, continuations, and per-step logits, ordered like
            ``prompts``.

        Raises
        ------
        ConfigurationError
            If the batch is empty, a prompt is empty or out-of-vocabulary,
            or a prompt leaves no room below ``max_seq_len``.
        """
        config = config or GenerationConfig()
        prompts = [np.asarray(p, dtype=np.int64).reshape(-1) for p in prompts]
        if not prompts:
            raise ConfigurationError("generate() requires at least one prompt")
        # All requests are known up front, so size the KV pool to their exact
        # reservations instead of the scheduler's worst case (every slot at
        # max_seq_len).
        block_size = 16
        scheduler = Scheduler(
            self.runner,
            config=config,
            max_batch_size=len(prompts),
            block_size=block_size,
            num_blocks=Scheduler.blocks_for_requests(
                self.runner.config, prompts, config, block_size, prefix_cache=self.prefix_cache
            ),
            prefix_cache=self.prefix_cache,
            prefill_chunk=self.prefill_chunk,
            speculation=self.speculation,
        )
        for prompt in prompts:
            scheduler.submit(Request(prompt=prompt))
        outputs = {output.request_id: output for output in scheduler.run()}
        ordered = [outputs[request_id] for request_id in range(len(prompts))]

        num_steps = max(output.num_steps for output in ordered)
        vocab = self.runner.config.vocab_size
        step_logits = np.zeros((len(prompts), num_steps, vocab), dtype=np.float64)
        for row, output in enumerate(ordered):
            step_logits[row, : output.num_steps] = output.step_logits
        return GenerationResult(
            sequences=[output.sequence for output in ordered],
            generated=[output.generated for output in ordered],
            prompt_lengths=np.array([output.prompt_length for output in ordered], dtype=np.int64),
            step_logits=step_logits,
            num_steps=num_steps,
        )


def generate(
    runner: TransformerRunner,
    prompts: Sequence[np.ndarray],
    config: Optional[GenerationConfig] = None,
) -> GenerationResult:
    """Generate continuations for ``prompts`` in one call.

    Parameters
    ----------
    runner : TransformerRunner
        The executor-backed model to decode with.
    prompts : sequence of ndarray
        One token-id array per request.
    config : GenerationConfig, optional
        Decoding parameters (default: greedy, 32 new tokens).

    Returns
    -------
    GenerationResult
        See :class:`GenerationResult`.
    """
    return GenerationEngine(runner).generate(prompts, config)

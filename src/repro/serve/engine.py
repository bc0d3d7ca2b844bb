"""Fixed-batch generation as one policy over the continuous-batching scheduler.

:func:`generate` submits every prompt at time zero with a slot reserved for
each (``max_batch_size = len(prompts)``), runs the
:class:`~repro.serve.scheduler.Scheduler` to completion and returns one
:class:`~repro.serve.request.RequestOutput` per prompt, in prompt order.
Because all quantization schemes in this repository plug into the runner
through the executor interface, the same loop serves the FP baseline, Tender
(implicit or explicit requantization), and every registry baseline unchanged.

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

from dataclasses import replace
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.models.inference import TransformerRunner
from repro.serve.request import GenerationConfig, Request, RequestOutput, _as_request
from repro.serve.scheduler import Scheduler

__all__ = ["generate"]


def generate(
    runner: TransformerRunner,
    prompts: Sequence[Union[np.ndarray, Request]],
    config: Optional[GenerationConfig] = None,
    **scheduler_options,
) -> List[RequestOutput]:
    """Generate continuations for a batch of (possibly ragged) prompts.

    For arrival traces, mid-flight admission, or bounded batch sizes, drive
    the scheduler directly.

    Parameters
    ----------
    runner : TransformerRunner
        The executor-backed model to decode with (any quantization scheme).
    prompts : sequence of (ndarray or Request)
        One 1-D integer token-id array per request; lengths may differ.  A
        :class:`~repro.serve.request.Request` is served with its own
        budget, priority and deadline.
    config : GenerationConfig, optional
        Decoding parameters (default: greedy, 32 new tokens).
    **scheduler_options
        Passed straight to :class:`~repro.serve.scheduler.Scheduler`
        (``prefix_cache``, ``prefill_chunk``, ``speculation``, ...).  The pool
        is sized to the requests' exact reservations, shared prefix blocks
        counted once under ``prefix_cache=True``.

    Returns
    -------
    list of RequestOutput
        One per prompt, ordered like ``prompts``.

    Raises
    ------
    ConfigurationError
        If the batch is empty, a prompt is not one row of integer ids, is
        empty or out-of-vocabulary, or leaves no room below ``max_seq_len``.

    Examples
    --------
    >>> outputs = generate(TransformerRunner(weights), [prompt_a, prompt_b], GenerationConfig(8))
    >>> outputs[0].sequence
    array([...])
    """
    config = config or GenerationConfig()
    requests = [_as_request(prompt, None, 0.0, 0, None) for prompt in prompts]
    if not requests:
        raise ConfigurationError("generate() requires at least one prompt")
    # All requests are known up front, so size the KV pool to their exact
    # reservations instead of the scheduler's worst case (every slot at
    # max_seq_len).  A ``Request`` may carry a budget of its own: size every
    # slot for the largest.
    budget = max(request.max_new_tokens or config.max_new_tokens for request in requests)
    block_size = 16
    num_blocks = Scheduler.blocks_for_requests(
        runner.config,
        [request.prompt for request in requests],
        replace(config, max_new_tokens=budget),
        block_size,
        prefix_cache=scheduler_options.get("prefix_cache", False),
    )
    scheduler = Scheduler(
        runner,
        config=config,
        max_batch_size=len(requests),
        block_size=block_size,
        num_blocks=num_blocks,
        **scheduler_options,
    )
    for request in requests:
        scheduler.submit(request)
    return sorted(scheduler.run(), key=lambda output: output.request_id)

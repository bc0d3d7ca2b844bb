"""The sequence store behind :class:`~repro.serve.spec.PromptLookupDraft`.

Every committed sequence the drafter is asked to extend, live and retired,
is one :class:`_Sequence`; every position of every stored sequence is
indexed under the :data:`SUFFIX_KEY`-token window that ends there, so a
lookup is a dict probe plus a short backward extension, never a scan.  The
module loads with the first drafter built: a process that never drafts by
prompt lookup does not import it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

#: Tokens of context a continuation drafted from *another* sequence must
#: share with the request: every stored position is indexed under the
#: window of this many tokens that ends there.
SUFFIX_KEY = 8
#: Tokens of retired sequences a store keeps; past it the oldest retired
#: sequences go first.
RETIRED_TOKENS = 1 << 14
#: Most recent sites of one window a probe compares, and the longest context
#: it measures: a window repeated everywhere never turns a probe into a scan.
_CANDIDATES = 32
_CONTEXT = 64


class _Sequence:
    """One stored sequence: its committed tokens, its own n-gram ends, what it follows."""

    __slots__ = ("tokens", "ends", "follow")

    def __init__(self) -> None:
        self.tokens: List[int] = []
        #: Every ``min_ngram`` window of ``tokens`` that has a continuation,
        #: by its tokens: the positions it ends at, ascending (``None`` once
        #: retired: only the sequence's own lookups read them).
        self.ends: Optional[Dict[Tuple[int, ...], List[int]]] = {}
        #: The last lookup's best match in another sequence: (that sequence,
        #: where its continuation starts, the context they share).
        self.follow: Optional[Tuple["_Sequence", int, int]] = None


def _shared(a: List[int], i: int, b: List[int], j: int) -> int:
    """How many tokens right before ``a[i]`` and ``b[j]`` agree, walking back (at most ``_CONTEXT``)."""
    n, limit = 0, min(i, j, _CONTEXT)
    while n < limit:
        step = min(SUFFIX_KEY, limit - n)
        left, right = a[i - n - step : i - n], b[j - n - step : j - n]
        if left != right:
            return n + next(k for k in range(step) if left[-1 - k] != right[-1 - k])
        n += step
    return n


def _newest(sites: list):
    """The newest ``_CANDIDATES`` ``(sequence, start)`` pairs of a flat site list, newest first."""
    newest = sites[-2 * _CANDIDATES :]
    return zip(newest[-2::-2], newest[::-2])


def _windows(tokens: List[int], size: int, first: int):
    """``(end, window)`` for every ``size``-token window of ``tokens`` ending in ``[first, len - 1)``."""
    first = max(first, size - 1)
    stop = len(tokens) - 1
    return zip(range(first, stop), zip(*(tokens[first - size + 1 + i : stop - size + 1 + i] for i in range(size))))


class SequenceStore:
    """The committed sequences a :class:`~repro.serve.spec.PromptLookupDraft` drafts from.

    Parameters
    ----------
    min_ngram, max_ngram : int
        The drafter's bounds on a request's own suffix n-gram (validated there).
    """

    def __init__(self, min_ngram: int, max_ngram: int) -> None:
        self.min_ngram, self.max_ngram = min_ngram, max_ngram
        self._live: Dict[int, _Sequence] = {}
        #: Released sequences, oldest first, and their token total.
        self._retired: Deque[_Sequence] = deque()
        self._retired_tokens = 0
        #: Every stored ``SUFFIX_KEY`` window with a continuation, by the
        #: hash of its tokens: ``[sequence, where the continuation starts,
        #: ...]`` flat, oldest first (a lookup checks the tokens themselves).
        self._sites: Dict[int, list] = {}

    def propose(self, key: int, tokens: np.ndarray, max_tokens: int) -> np.ndarray:
        """Store ``tokens`` as ``key``'s sequence; draft the continuation of its longest matching context.

        The request's own match (:meth:`_own_match`) against the best other
        one (:meth:`_follow`, else :meth:`_probe`): the longer shared context
        wins, the request's own on ties.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1).tolist()
        own, known = self._extend(key, tokens)
        length = len(tokens)
        if max_tokens < 1 or length < self.min_ngram + 1:
            own.follow = None  # it would not move past this call's tokens
            return np.empty(0, dtype=np.int64)
        source, start = tokens, self._own_match(own, tokens, max_tokens)
        own.follow = self._follow(own, tokens, known) or self._probe(own, tokens, max_tokens)
        if own.follow is not None:
            context = -1 if start is None else _shared(tokens, start, tokens, length)
            other, at, shared = own.follow
            if shared > context:
                source, start = other.tokens, at
        if start is None:
            return np.empty(0, dtype=np.int64)
        return np.array(source[start : start + max_tokens], dtype=np.int64)

    def release(self, key: int, tokens: np.ndarray) -> None:
        """Retire ``key``'s sequence, grown to ``tokens``; drop the oldest retired past :data:`RETIRED_TOKENS`.

        A sequence another stored one holds from its start adds nothing and
        goes at once; one that holds a retired sequence replaces it.
        """
        tokens = np.asarray(tokens, dtype=np.int64).reshape(-1).tolist()
        sequence = self._extend(key, tokens)[0]
        del self._live[key]
        sequence.ends, sequence.follow = None, None
        first = self._sites.get(hash(tuple(tokens[:SUFFIX_KEY])), []) if len(tokens) > SUFFIX_KEY else []
        for other, at in _newest(first):
            if at != SUFFIX_KEY or other is sequence:
                continue
            if other.tokens[: len(tokens)] == tokens:
                self._forget(sequence)
                return
            if other.ends is None and tokens[: len(other.tokens)] == other.tokens:
                self._retired.remove(other)
                self._retired_tokens -= len(other.tokens)
                self._forget(other)
                break
        self._retired.append(sequence)
        self._retired_tokens += len(tokens)
        while self._retired_tokens > RETIRED_TOKENS:
            oldest = self._retired.popleft()
            self._retired_tokens -= len(oldest.tokens)
            self._forget(oldest)

    def _extend(self, key: int, tokens: List[int]) -> Tuple[_Sequence, int]:
        """``key``'s stored sequence grown to ``tokens``, and how many it held before."""
        sequence = self._live.get(key)
        if sequence is not None and tokens[: len(sequence.tokens)] != sequence.tokens:
            self._forget(sequence)  # not a continuation: the key starts over
            sequence = None
        if sequence is None:
            sequence = self._live[key] = _Sequence()
        known, sequence.tokens = len(sequence.tokens), tokens
        # A window is indexed once a token follows it: the last one never is.
        first = max(known - 1, 0)
        for end, gram in _windows(tokens, self.min_ngram, first):
            sequence.ends.setdefault(gram, []).append(end)
        for end, window in _windows(tokens, SUFFIX_KEY, first):
            self._sites.setdefault(hash(window), []).extend((sequence, end + 1))
        return sequence, known

    @staticmethod
    def _follow(own: _Sequence, tokens: List[int], known: int) -> Optional[Tuple[_Sequence, int, int]]:
        """The last lookup's match, moved past the tokens committed since, if they are its continuation.

        No site stored before it can have overtaken it (a context grows by
        at most what the followed one did); sites stored since wait until
        the request leaves it, or reaches its end, and the index is probed
        again.
        """
        if own.follow is None:
            return None
        other, at, shared = own.follow
        grown = len(tokens) - known
        if at + grown >= len(other.tokens) or other.tokens[at : at + grown] != tokens[known:]:
            return None
        return other, at + grown, min(shared + grown, _CONTEXT)

    def _probe(self, own: _Sequence, tokens: List[int], max_tokens: int) -> Optional[Tuple[_Sequence, int, int]]:
        """The best other site ending ``tokens``' last ``SUFFIX_KEY`` tokens.

        Longest shared context first, then the longer continuation (up to
        ``max_tokens``), then the most recent.
        """
        length = len(tokens)
        sites = self._sites.get(hash(tuple(tokens[-SUFFIX_KEY:])), []) if length >= SUFFIX_KEY else []
        best, best_rank = None, None
        for other, at in _newest(sites):
            shared = -1 if other is own else _shared(other.tokens, at, tokens, length)
            if shared < SUFFIX_KEY:  # the request itself, or a window that only shares the hash
                continue
            rank = (shared, min(len(other.tokens) - at, max_tokens))
            if best_rank is None or rank > best_rank:
                best, best_rank = (other, at, rank[0]), rank
                if rank == (_CONTEXT, max_tokens):
                    break  # nothing older can beat it
        return best

    def _own_match(self, sequence: _Sequence, tokens: List[int], max_tokens: int) -> Optional[int]:
        """Where the continuation of the longest own suffix n-gram starts (``None``: no match).

        The ``min_ngram`` suffix's earlier ends are one probe; each longer
        n-gram keeps the ends whose preceding token matches too, so the
        longest n-gram that still has an end wins, as if every window of
        every length had been compared.
        """
        length = len(tokens)
        ends = sequence.ends.get(tuple(tokens[length - self.min_ngram :]))
        if not ends:
            return None
        for ngram in range(self.min_ngram + 1, min(self.max_ngram, length - 1) + 1):
            longer = [end for end in ends if end >= ngram - 1 and tokens[end - ngram + 1] == tokens[length - ngram]]
            if not longer:
                break
            ends = longer
        full = [end for end in ends if length - end - 1 >= max_tokens]
        return (full[-1] if full else ends[0]) + 1

    def _forget(self, sequence: _Sequence) -> None:
        """Take ``sequence`` out of the store: its windows stop matching, its followers stop following."""
        tokens, sequence.tokens = sequence.tokens, []
        for _, window in _windows(tokens, SUFFIX_KEY, 0):
            sites = self._sites.get(hash(window))
            if sites is None:  # a window the sequence repeats: already gone
                continue
            for index in range(len(sites) - 2, -1, -2):
                if sites[index] is sequence:
                    del sites[index : index + 2]
            if not sites:
                del self._sites[hash(window)]

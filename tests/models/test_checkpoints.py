"""The committed checkpoints sit under the keys their zoo recipes hash to.

``.artifacts/`` ships two checkpoints: the ``opt-6.7b-sim`` language model
and the ``bert-large-sim`` SST-2 classifier.  A key hashes every
``ZooEntry`` field, so a changed recipe renames it; a file left under the old
name is never read, and the first use of the model trains it in-process
instead (for ``bench/program.py`` that roughly doubles ``peak_rss_mb``).
"""

from __future__ import annotations

import os

import pytest

from repro.models.checkpoints import _checkpoint_path
from repro.models.zoo import get_zoo_entry


@pytest.mark.skipif("REPRO_CACHE_DIR" in os.environ, reason="reads the repository's own .artifacts/")
def test_committed_checkpoints_match_their_recipe_keys():
    language_model = _checkpoint_path(get_zoo_entry("opt-6.7b-sim"), extra="lm")
    classifier = _checkpoint_path(get_zoo_entry("bert-large-sim"), extra="cls-SST-2-260")
    assert language_model.exists(), f"no checkpoint at {language_model.name}: rename the committed one"
    assert classifier.exists(), f"no checkpoint at {classifier.name}: rename the committed one"

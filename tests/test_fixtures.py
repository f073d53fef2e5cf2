"""The fixture registries and the seeded generators emit fixed text.

The benchmark's sweep workload draws its categories and covers from
``random_poset``, ``random_dag_category``, ``random_ideal_cover`` and
``random_filter_cover``, so a change to what they draw from the rng, or
in which order, silently changes the benchmark's inputs.  The digest
below pins the emitted text of the generators for three seeds and of
every named fixture; a refactor of ``fixtures`` must leave it alone.
"""

import hashlib
import random

from catnerve import fixtures as fx
from catnerve.io import emit_category, emit_cover

DIGEST = "c7ea35b27de00f48c6a1b81b9fd29493170da41e03b7018c3f14d74f7bc3736b"


def _emitted() -> str:
    chunks = []
    for seed in (5, 7, 241):
        rng = random.Random(seed)
        for cat in (fx.random_poset(rng, 7), fx.random_dag_category(rng, 6)):
            chunks.append(emit_category(cat))
            for make in (fx.random_ideal_cover, fx.random_filter_cover):
                chunks.append(emit_cover(make(rng, cat)))
    for _, cov in fx.all_cover_fixtures():
        chunks.append(emit_category(cov.parent))
        chunks.append(emit_cover(cov))
    for _, cat in fx.category_fixtures():
        chunks.append(emit_category(cat))
    return "\n".join(chunks)


def test_generators_and_fixtures_emit_pinned_text():
    assert hashlib.sha256(_emitted().encode()).hexdigest() == DIGEST

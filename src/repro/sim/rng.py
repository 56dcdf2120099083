"""Seeded random-stream management.

Every stochastic decision in the simulator (traffic destinations, class
draws, injection coin flips, application placement) draws from a named
stream derived from one master seed, so

* two runs with the same seed are bit-identical, and
* adding a new consumer of randomness does not perturb existing streams.

Streams are plain :class:`random.Random` instances; the derivation hashes
the master seed with the stream name through ``random.Random`` seeding of a
tuple, which is stable across processes (unlike ``hash(str)`` which is
salted).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from *master_seed* and *name*."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A registry of named, independently seeded random streams.

    Examples
    --------
    >>> streams = RandomStreams(42)
    >>> a = streams.get("traffic")
    >>> b = streams.get("traffic")
    >>> a is b
    True
    >>> streams2 = RandomStreams(42)
    >>> streams2.get("traffic").random() == RandomStreams(42).get("traffic").random()
    True
    """

    def __init__(self, master_seed: int = 1):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return (creating if needed) the stream called *name*."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

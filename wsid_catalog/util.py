"""Helpers shared by the catalogue stages.
"""

from __future__ import annotations


class BoundedCache(dict):
    """Pure-cache dict with a hard size cap (ADVICE r03): on overflow
    the cache RESETS wholesale — the cheapest policy that bounds
    long-lived Ray worker memory on open-vocabulary input, correct
    because every cached value is a recomputable hash.  (An LRU would
    keep warm entries but pays bookkeeping in the per-token hot loops
    these memos sit in.)"""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def __setitem__(self, key, value):
        if len(self) >= self.cap:
            self.clear()
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        if key not in self and len(self) >= self.cap:
            self.clear()
        return super().setdefault(key, default)


def pool_limits(frac: float = 0.25, lo: int = 1, hi: int = 8) -> tuple[int, int]:
    """Actor-pool (min, max) sized so pools never reserve every CPU slot.

    Idle actors hold their CPU reservation; if the pools of one execution
    cover all cluster CPUs, the shuffle (AllToAll) tasks of the same
    execution can never schedule — a deadlock observed at num_cpus=4 with
    two (1, 8) pools.  Cap each pool at ~frac of cluster CPUs and always
    leave ≥2 slots for tasks (ray_guide.md L127-131).
    """
    import ray
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    cap = max(lo, min(hi, int(cpus * frac), cpus - 2))
    return (lo, cap)

"""SplitMix64: the harness's only source of randomness.

Implemented here rather than taken from `random` so that a seed means
the same request bytes on every Python version.
"""

MASK = (1 << 64) - 1


class Rng:
    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self):
        """A float in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def below(self, n):
        return self.next_u64() % n

    def fork(self, label):
        """An independent stream for one purpose, derived from this seed."""
        h = self.state
        for ch in label.encode():
            h = ((h ^ ch) * 0x100000001B3) & MASK
        return Rng(Rng(h).next_u64())

"""serve-churn's seeded request schedule.

Arrivals are open loop: a Poisson process of `rate * seconds` arrivals,
drawn as sorted uniform instants over the run (a Poisson process
conditioned on its count), so every seed offers exactly the same number
of requests and the tail percentiles always have the same support.
The same seed gives byte-identical request lines.
"""

from .rng import Rng

DEFAULT_SEED = 0x90AD57EE12345678  # pra_bench::SEED, the paper sweep's seed
NETWORKS = ["Alexnet", "NiN", "Google", "VGGM", "VGGS", "VGG19"]
REPRS = ["fp16", "quant8"]
ENGINES = ["DaDN", "Stripes", "PRA-2b", "PRA-4b", "PRA-2b-1R"]
# serve-churn's engines: two PRA design points of about the same cost.
# PRA-2b-1R (column sync) is left out: at 3-4x the simulation time it
# made churn a second simulation benchmark and saturated the server.
CHURN_ENGINES = ["PRA-2b", "PRA-4b"]


class Request:
    """One request and the instant, in s from the schedule's start, it is due."""

    __slots__ = ("id", "at", "network", "repr", "engine", "seed", "v")

    def __init__(self, rid, at, network, repr_, engine, seed, v):
        self.id = rid
        self.at = at
        self.network = network
        self.repr = repr_
        self.engine = engine
        self.seed = seed
        self.v = v

    def line(self):
        """The wire line, in the field order `pra` itself renders."""
        s = (
            f'{{"id": {self.id}, "network": "{self.network}", "repr": "{self.repr}", '
            f'"engine": "{self.engine}", "seed": "{self.seed:#x}"'
        )
        if self.v == 2:
            s += ', "v": 2'
        return s + "}"

    def key(self):
        return (self.network, self.repr, self.engine, self.seed)


def arrivals(rng, count, seconds):
    return sorted(rng.uniform() * seconds for _ in range(count))


def churn_seed(seed):
    """The second workload seed of serve-churn, derived from the bench seed."""
    derived = Rng(seed).fork("churn-seed").next_u64()
    return derived ^ 1 if derived == DEFAULT_SEED else derived


def churn_keys(seed):
    """The 24 workload keys serve-churn cycles over, in round-robin order:
    networks rotate fastest, so the heavy VGG19 keys arrive evenly spaced."""
    return [(n, r, s) for r in REPRS for s in (DEFAULT_SEED, churn_seed(seed)) for n in NETWORKS]


def churn(seed, seconds, rate):
    """serve-churn: single PRA requests cycling round-robin over 24 keys.

    Only PRA engines are drawn: a baseline-only batch resolves no shared
    artifacts and inserts nothing into the pool, so it would neither
    exercise the pool -> disk path nor keep the working set above the
    pool's capacity. Each key's successive visits alternate between the
    `CHURN_ENGINES` and between v1/v2 from seeded offsets, so seeds differ
    in arrangement and arrival times, not in composition.
    """
    rng = Rng(seed).fork("serve-churn")
    keys = churn_keys(seed)
    engine_off = [rng.below(len(CHURN_ENGINES)) for _ in keys]
    v_off = [rng.below(2) for _ in keys]
    n = max(1, round(rate * seconds))
    requests = []
    for i, at in enumerate(arrivals(rng, n, seconds)):
        k, visit = i % len(keys), i // len(keys)
        network, repr_, wl_seed = keys[k]
        engine = CHURN_ENGINES[(visit + engine_off[k]) % len(CHURN_ENGINES)]
        v = 1 + (visit + v_off[k]) % 2
        requests.append(Request(i + 1, at, network, repr_, engine, wl_seed, v))
    return requests

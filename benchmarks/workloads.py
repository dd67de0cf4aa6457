"""Request mixes of the relayq benchmark.

A request is one ``relayq`` CLI invocation, given as its argument list. Each
workload is a fixed mix; the seed only shuffles the order and draws the
simulator's ``--seed`` values, so two seeds ask for the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = ("low_load", "high_load", "monte_carlo")

# Monte Carlo request size: 12 requests x 2 reps x (10k + 200k) slots ~ 5 M slots.
SIM_REPS = 2
SIM_WARMUP = 10_000
SIM_SLOTS = 200_000

# The default-CSV probe of `simulate` only needs to reach the output step.
PROBE_SIM = ("--reps", "2", "--warmup", "1000", "--slots", "20000")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str  # "ca" | "psa" | "oracle" | "sim" | "other": which latency sum it joins
    rho: float | None = None
    a: float | None = None
    # PSA points known to converge (rho <= 0.7) are compared against CA;
    # the divergent rho = 0.9 point is only checked for a valid grid.
    psa_converges: bool = False

    @property
    def is_json(self) -> bool:
        return "json" in self.argv

    @property
    def slots(self) -> int:
        """Simulated slots, reps x (warmup + slots), for simulator requests."""
        if self.kind != "sim":
            return 0
        opt = {k: v for k, v in zip(self.argv, self.argv[1:]) if k.startswith("--")}
        return int(opt["--reps"]) * (int(opt["--warmup"]) + int(opt["--slots"]))

    def label(self) -> str:
        return " ".join(self.argv)

    def key(self) -> str:
        """The label without the simulator seed, equal across seeds and passes."""
        if "--seed" not in self.argv:
            return self.label()
        i = self.argv.index("--seed")
        return " ".join(self.argv[:i] + self.argv[i + 2:])


def _solve(method: str, rho: float, a: float, *extra: str) -> Request:
    argv = ("solve", "--rho", str(rho), "--a", str(a), "--method", method, *extra, "--format", "json")
    return Request(argv, method, rho, a, psa_converges=(method == "psa" and rho <= 0.7))


def _sim(command: str, rho: float, a: float) -> Request:
    argv = (command, "--rho", str(rho), "--a", str(a))
    if command == "solve":
        argv += ("--method", "sim")
    argv += ("--reps", str(SIM_REPS), "--warmup", str(SIM_WARMUP), "--slots", str(SIM_SLOTS),
             "--seed", "0", "--format", "json")
    return Request(argv, "sim", rho, a)


def _low_load() -> list[Request]:
    reqs = [_solve("ca", rho, a) for rho in (0.1, 0.4, 0.7) for a in (0.3, 0.5, 0.7)]
    reqs += [_solve("psa", rho, 0.5) for rho in (0.1, 0.4, 0.7)]
    reqs += [_solve("oracle", rho, a, "--epsilon", "1e-10") for rho in (0.4, 0.7) for a in (0.3, 0.5)]
    reqs += [
        Request(("compare", "--rho", "0.4", "--format", "json"), "other", 0.4, 0.5),
        Request(("decay", "--rho", "0.4", "--format", "json"), "other", 0.4, 0.5),
        Request(("vs-single-server", "--lambda", "0.2", "--format", "json"), "other"),
        Request(("stability", "--rho", "0.4", "--format", "json"), "other", 0.4, 0.5),
    ]
    # default-CSV probes, one per subcommand except table1
    reqs += [
        Request(("stability", "--rho", "0.4"), "other", 0.4, 0.5),
        Request(("solve", "--rho", "0.4"), "ca", 0.4, 0.5),
        Request(("compare", "--rho", "0.4"), "other", 0.4, 0.5),
        Request(("decay", "--rho", "0.4"), "other", 0.4, 0.5),
        Request(("vs-single-server", "--lambda", "0.2"), "other"),
        Request(("simulate", "--rho", "0.4", *PROBE_SIM, "--seed", "0"), "sim", 0.4, 0.5),
    ]
    return reqs


def _high_load() -> list[Request]:
    reqs = [_solve("ca", rho, a) for rho in (0.9, 0.95, 0.97) for a in (0.5, 0.3)]
    reqs += [
        _solve("psa", 0.9, 0.5),
        Request(("decay", "--rho", "0.95", "--format", "json"), "other", 0.95, 0.5),
    ]
    return reqs


def _monte_carlo() -> list[Request]:
    return [_sim(cmd, rho, a) for rho in (0.4, 0.7, 0.9) for a in (0.5, 0.3) for cmd in ("simulate", "solve")]


_MIXES = {"low_load": _low_load, "high_load": _high_load, "monte_carlo": _monte_carlo}


def requests(workload: str, seed: int, pass_index: int = 0) -> list[Request]:
    """The workload's mix with fresh simulator seeds, in a seeded order."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    out = []
    for req in _MIXES[workload]():
        if "--seed" in req.argv:
            i = req.argv.index("--seed") + 1
            req = replace(req, argv=req.argv[:i] + (str(rng.randrange(2**31)),) + req.argv[i + 1:])
        out.append(req)
    rng.shuffle(out)
    return out

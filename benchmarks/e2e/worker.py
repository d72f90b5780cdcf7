"""One run of one workload, in a process of its own.

``run.py`` starts this file once per run so that imports, key
generation, caches and peak memory are the run's own.  The run's clock
starts on the first line below, before ``repro`` is imported.  The
result is one JSON object on the last line of standard output; a run
that fails its correctness gate prints none and exits 3.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import secrets  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
OUT = HERE / "out"
GATE_FAILED = 3


def install_drbg(seed: int) -> None:
    """Make every random draw of the program a function of ``seed``.

    ``repro`` takes all its randomness (key generation, salts, nonces,
    per-transaction keys) from :mod:`secrets`.  Replacing those three
    functions before ``repro`` is imported makes key-generation work,
    on-chain bytes and therefore every simulated number repeatable.
    """
    rng = random.Random(f"e2e-drbg-{seed}")
    secrets.token_bytes = lambda n=32: rng.randbytes(n)  # type: ignore[assignment]
    secrets.randbits = rng.getrandbits  # type: ignore[assignment]
    secrets.randbelow = lambda n: rng.randrange(n)  # type: ignore[assignment]


class Context:
    """Phase clock of a run, handed to the workload."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        #: Wall seconds per phase: setup, run, gate, and heal on chaos.
        self.wall: dict[str, float] = {"setup": 0.0, "run": 0.0, "gate": 0.0}
        self.run_cpu_s = 0.0
        #: Imports and argument parsing: process start to the first phase.
        self.preamble_s: float | None = None

    @contextmanager
    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name
        started, cpu = time.perf_counter(), time.process_time()
        if self.preamble_s is None:
            self.preamble_s = started - _STARTED
        with self.span(f"phase.{name}"):
            try:
                yield
            finally:
                self.wall[name] = self.wall.get(name, 0.0) + (
                    time.perf_counter() - started
                )
                if name == "run":
                    self.run_cpu_s += time.process_time() - cpu

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup_s(self) -> float:
        """Process start to the first request, plus the set-up a workload
        does between its legs (the ladder builds a channel per rung)."""
        return self.preamble_s + self.wall["setup"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leaked:
        print(f"refusing to run with {leaked} set", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    install_drbg(args.seed)

    import_started = time.perf_counter()
    import workloads  # imports repro

    import_s = time.perf_counter() - import_started
    tracer = None
    if args.trace:
        import trace as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ctx = Context(tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx, args.seed, args.scale)
    except workloads.GateError as error:
        print(f"correctness gate failed: {error}", file=sys.stderr)
        return GATE_FAILED

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.trace),
        "attempted": outcome.attempted,
        "succeeded": outcome.succeeded,
        "host": {
            "setup_s": ctx.setup_s(),
            "run_s": ctx.wall["run"],
            "gate_s": ctx.wall["gate"],
            "host_req_per_s": outcome.completed / ctx.wall["run"],
            "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "host.cpu_s": ctx.run_cpu_s,
            "host.import_s": import_s,
        },
        "sim": outcome.values,
    }
    if tracer is not None:
        totals = tracer.totals()
        result["layers"] = totals
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}.layers.json").write_text(
            json.dumps(totals, indent=1, sort_keys=True) + "\n"
        )
        (OUT / f"{args.workload}.spans.json").write_text(
            json.dumps(
                [
                    dict(
                        zip(("name", "start", "end", "parent", "tid", "thread"), span)
                    )
                    for span in tracer.spans
                ]
            )
            + "\n"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

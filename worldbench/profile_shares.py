"""Profile shares and the campaign comparison recorded in README.md.

Run from the repository root (takes about three minutes on 2 cores)::

    python3 worldbench/profile_shares.py --seed 7

It prints cProfile self-time shares by layer for an attacked 60 s fig-7
highway run on the default (legacy per-receiver) path and for an attacked
3 s urban CBF run, then times one campaign of 60 runs of 10 s on the lease
service (2 workers, 2 s checkpoints) and on the multiprocessing pool
(2 processes).  Scratch stores go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()

#: Source path fragment -> layer, most specific first.
LAYERS = (
    ("repro/radio/shadowing", "radio.shadowing"),
    ("repro/core/attacks", "core.attacks"),
    ("repro/sim/", "sim"), ("repro/traffic/", "traffic"),
    ("repro/radio/", "radio"), ("repro/geonet/", "geonet"),
    ("repro/security/", "security"), ("repro/", "other repro"),
)


def layer_shares(run) -> Counter:
    """Self-time share per layer of ``run()``; native calls go to 'native'."""
    profile = cProfile.Profile()
    profile.runcall(run)
    stats = pstats.Stats(profile, stream=io.StringIO()).stats
    seconds: Counter = Counter()
    for (filename, _line, _name), (_cc, _nc, self_time, _ct, _callers) in stats.items():
        path = filename.replace("\\", "/")
        layer = next((name for frag, name in LAYERS if frag in path), "native/stdlib")
        seconds[layer] += self_time
    total = sum(seconds.values())
    return Counter({layer: s / total for layer, s in seconds.items()})


def print_shares(title: str, shares: Counter) -> None:
    text = ", ".join(f"{layer} {share:.0%}" for layer, share in shares.most_common())
    print(f"- {title}: {text}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print("run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments.campaign import run_campaign
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_single
    from repro.experiments.service.scheduler import run_service_campaign
    from repro.experiments.store import open_store

    highway = ExperimentConfig.inter_area_default(duration=60.0)
    print_shares(
        "highway, attacked 60 s, legacy path",
        layer_shares(lambda: run_single(highway, attacked=True, seed=args.seed)),
    )
    urban = ExperimentConfig.intra_area_default(duration=3.0).urbanized()
    print_shares(
        "urban CBF, attacked 3 s",
        layer_shares(lambda: run_single(urban, attacked=True, seed=args.seed)),
    )

    targets, runs, duration = ["fig7a", "fig9a"], 5, 10.0
    walls = {}
    for name in ("service", "pool"):
        root = ROOT / ".bench_work" / f"compare-{name}"
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        if name == "service":
            report = run_service_campaign(
                targets, store=open_store(root), workers=2, runs=runs,
                duration=duration, seed=args.seed, checkpoint_interval=2.0,
            )
        else:
            report = run_campaign(
                targets, store=open_store(root), processes=2, runs=runs,
                duration=duration, seed=args.seed, log_stream=None,
            )
        walls[name] = time.perf_counter() - start
        shutil.rmtree(root, ignore_errors=True)
        if not report.ok:
            print(f"{name} campaign failed: {report.summary()}", file=sys.stderr)
            return 1
    print(
        f"- campaign, {report.planned} runs of {duration:g} s: service (2 workers, "
        f"2 s checkpoints) {walls['service']:.1f} s, pool (2 processes) "
        f"{walls['pool']:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

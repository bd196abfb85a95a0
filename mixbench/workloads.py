"""The benchmark's workloads: generator settings, run config, set-up depth.

Each workload hands a different layer most of the work; BENCHMARK.json
says which and why. ``prebuilt`` names
the artifacts set-up builds with the workload's own ``RunConfig``; every
timed run starts from a fresh copy of them and must build everything else
itself, which the stage guard checks. Sizes keep one ``backtest`` call at a
few seconds on one core, so that a run can repeat it and report a median.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from datagen import GenSpec

STAGES = ("graph", "embeddings", "clusters", "init", "chunks")


@dataclass(frozen=True)
class Workload:
    name: str
    gen: GenSpec
    run: dict = field(default_factory=dict)  # RunConfig fields besides paths
    prebuilt: tuple[str, ...] = ()

    @property
    def max_m(self) -> int:
        return max(self.run["m_values"])


_EMBED = {"dim": 32, "epochs": 6, "negatives": 5, "batch_size": 1024}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rolling",
            gen=GenSpec(
                users=800, cold_users=60, items=2500, blocks=30, support=3,
                train_chunks=3, test_chunks=3, train_rate=8.0, test_rate=5.0,
                activity=0.6, new_item_share=0.05, drift=0.3, zipf=0.8,
            ),
            run=dict(
                test_chunks=3, num_interests=100, kmeans_iters=25, embed=_EMBED,
                max_sweeps=8, convergence_tol=1e-3, m_values=[100],
            ),
        ),
        Workload(
            name="refresh",
            gen=GenSpec(
                users=400, cold_users=50, items=3000, blocks=50, support=4,
                train_chunks=3, test_chunks=3, train_rate=15.0, test_rate=25.0,
                activity=0.5, new_item_share=0.05, drift=0.3, zipf=0.8,
            ),
            run=dict(
                test_chunks=3, num_interests=1000, kmeans_iters=10, embed=_EMBED,
                max_sweeps=8, convergence_tol=1e-3, user_count_mode="accumulate", m_values=[100],
            ),
            prebuilt=("graph", "embeddings", "clusters", "init"),
        ),
        Workload(
            name="serve",
            gen=GenSpec(
                users=500, cold_users=50, items=2000, blocks=20, support=3,
                train_chunks=3, test_chunks=3, train_rate=25.0, test_rate=4.0,
                activity=0.7, new_item_share=0.05, drift=0.3, zipf=0.8,
            ),
            run=dict(
                test_chunks=3, num_interests=100, kmeans_iters=25, embed=_EMBED,
                max_sweeps=8, convergence_tol=1e-3, m_values=[20, 100],
            ),
            prebuilt=("graph", "embeddings", "clusters", "init", "chunks"),
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of a workload for the benchmark's own tests."""
    g = w.gen
    return replace(
        w,
        gen=replace(g, users=300, cold_users=20, items=600, blocks=min(g.blocks, 10)),
        run={
            **w.run,
            "num_interests": min(w.run["num_interests"], 40),
            "m_values": [max(1, m // 10) for m in w.run["m_values"]],
            "embed": {**_EMBED, "epochs": 1},
            "max_sweeps": 2,
            "kmeans_iters": 3,
        },
    )

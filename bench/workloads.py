"""Seeded inputs and job lists for the benchmark workloads.

Every input is drawn from a fixed pool of graphs whose semantic results are
recorded in ``golden.json``.  The run seed chooses the pool members and their
order, so one seed always gives the same jobs, different seeds give different
jobs, and every job that produces ranks or words has a recorded digest.

Sizes are stratified: each seed runs the same vertex counts (or the same
multiset of sizes) and only the graphs' structure changes, so the work per
pass, and with it the throughput, does not swing from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("catalog_check", "dense_random", "sparse_family")

# Label support and weights of the library's random graphs (labels 2-6, inf).
LABELS = ("2", "3", "4", "5", "6", "inf")
WEIGHTS = (3, 3, 1, 1, 1, 1)

CHECK = ("check",)
COMPUTE = ("compute", "--json")
GENERATORS = ("generators", "--json")
GENERATORS_ARTIN = ("generators", "--json", "--flavor", "artin")
GENERATORS_COXETER = ("generators", "--json", "--flavor", "coxeter")


def stability(n_max: int) -> tuple[str, ...]:
    return ("stability", "--json", "--n-max", str(n_max))


# The slice of every catalog family used by the library's corpus checks,
# spelled out here so that the benchmark's inputs do not follow the library.
CATALOG_SAMPLE = tuple(
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(3, 9)] + ["I2(inf)"]
    + [f"~A{n}" for n in range(2, 8)]
    + [f"~B{n}" for n in range(3, 8)]
    + [f"~C{n}" for n in range(2, 8)]
    + [f"~D{n}" for n in range(4, 9)]
    + ["~E6", "~E7", "~E8"]
)

# catalog_check: tiny random graphs of 1..10 vertices, TINY_POOL per size,
# TINY_PER_SIZE of them chosen per run.
TINY_POOL = 40
TINY_PER_SIZE = 12

# dense_random: one graph per size, chosen from DENSE_POOL per size, and
# DENSE_TOP_COUNT graphs of DENSE_TOP vertices.  Like the stability scans of
# sparse_family, the largest jobs share one size, so the tail percentile
# falls among several jobs, not on one.
DENSE_SIZES = tuple(range(30, 59, 4))
DENSE_TOP = 62
DENSE_TOP_COUNT = 4
DENSE_POOL = 10

# sparse_family: family k gets base sizes k and k + 6 of twelve, plus 0..3,
# and STABILITY_JOBS of the STABILITY_SEEDS seed graphs are scanned.  The
# scans are the longest jobs and share one n-max, so the tail percentile
# falls among several jobs of the same size, not on one job.
SPARSE_FAMILIES = ("A", "B", "D", "~A", "~C", "~D")
SPARSE_SIZES = tuple(range(60, 96, 3))
SPARSE_JITTER = 4
STABILITY_N_MAX = 60
STABILITY_JOBS = 6
STABILITY_SEEDS = 16


@dataclass(frozen=True)
class Item:
    """One input graph and the commands run on it.

    The graph is a catalog name or the text of a graph file.
    """

    id: str
    size: int
    commands: tuple[tuple[str, ...], ...]
    catalog: str | None = None
    text: str | None = None


@dataclass(frozen=True)
class Job:
    """One CLI call; ``key`` names its golden digest (None for `check`)."""

    key: str | None
    kind: str
    argv: tuple[str, ...]
    size: int


def random_graph_text(n: int, rng: random.Random) -> str:
    """Graph file with vertices v1..vn and one seeded label per pair."""
    lines = [f"vertex v{i}" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            m = rng.choices(LABELS, weights=WEIGHTS)[0]
            if m != "2":
                lines.append(f"edge v{i} v{j} {m}")
    return "\n".join(lines) + "\n"


def _tiny(n: int, variant: int) -> Item:
    text = random_graph_text(n, random.Random(f"catalog_check:{n}:{variant}"))
    commands = (CHECK, COMPUTE, GENERATORS_ARTIN, GENERATORS_COXETER)
    if n <= 4:
        commands += (stability(4 + variant % 5),)
    return Item(f"r{n}.{variant}", n, commands, text=text)


def _catalog(name: str) -> Item:
    return Item(f"cat:{name}", 0, (CHECK, COMPUTE, GENERATORS_ARTIN, GENERATORS_COXETER), catalog=name)


def _dense(n: int, variant: int) -> Item:
    text = random_graph_text(n, random.Random(f"dense_random:{n}:{variant}"))
    commands = (COMPUTE, GENERATORS)
    if n == DENSE_SIZES[0]:
        # The only stability job of this workload, so that every layer runs.
        commands += (stability(4),)
    return Item(f"d{n}.{variant}", n, commands, text=text)


def _dihedral(m: int) -> Item:
    # A `check` through a catalog name, so that the oracle and catalog layers
    # run on this workload too; check output carries no digest.
    return Item(f"I2({m})", 2, (CHECK,), catalog=f"I2({m})")


def _sparse(family: str, n: int) -> Item:
    return Item(f"{family}{n}", n, (COMPUTE, GENERATORS), catalog=f"{family}{n}")


def _sparse_bases():
    half = len(SPARSE_SIZES) // 2
    return [(family, SPARSE_SIZES[k::half]) for k, family in enumerate(SPARSE_FAMILIES)]


def _stability_seed(variant: int) -> Item:
    text = random_graph_text(3, random.Random(f"sparse_family:seed:{variant}"))
    return Item(f"seed{variant}", 3, (CHECK, stability(STABILITY_N_MAX)), text=text)


def pool(workload: str) -> list[Item]:
    """Every item a run of ``workload`` can choose; golden.json covers them all."""
    if workload == "catalog_check":
        return [_catalog(name) for name in CATALOG_SAMPLE] + [
            _tiny(n, v) for n in range(1, 11) for v in range(TINY_POOL)
        ]
    if workload == "dense_random":
        return [_dense(n, v) for n in DENSE_SIZES + (DENSE_TOP,) for v in range(DENSE_POOL)]
    if workload == "sparse_family":
        return [
            _sparse(family, base + jitter)
            for family, bases in _sparse_bases()
            for base in bases
            for jitter in range(SPARSE_JITTER)
        ] + [_stability_seed(v) for v in range(STABILITY_SEEDS)]
    raise ValueError(f"unknown workload {workload!r}")


def select(workload: str, seed: int) -> list[Item]:
    """The items one run of ``workload`` uses, in run order."""
    rng = random.Random(seed)
    if workload == "catalog_check":
        items = [_catalog(name) for name in CATALOG_SAMPLE]
        for n in range(1, 11):
            items += [_tiny(n, v) for v in rng.sample(range(TINY_POOL), TINY_PER_SIZE)]
    elif workload == "dense_random":
        items = [_dense(n, rng.randrange(DENSE_POOL)) for n in DENSE_SIZES]
        items += [_dense(DENSE_TOP, v) for v in rng.sample(range(DENSE_POOL), DENSE_TOP_COUNT)]
        items.append(_dihedral(rng.randint(3, 12)))
    elif workload == "sparse_family":
        items = [
            _sparse(family, base + rng.randrange(SPARSE_JITTER))
            for family, bases in _sparse_bases()
            for base in bases
        ]
        items += [_stability_seed(v) for v in rng.sample(range(STABILITY_SEEDS), STABILITY_JOBS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def jobs_for(workload: str, items: list[Item], workdir: Path) -> list[Job]:
    """Write each item's graph file under ``workdir`` and list its jobs."""
    jobs = []
    for index, item in enumerate(items):
        path = None
        if item.text is not None:
            path = workdir / f"g{index}.txt"
            path.write_text(item.text, encoding="utf-8")
        for command in item.commands:
            kind = command[0]
            if kind == "stability":
                source = ("--seed-file", str(path))
            elif path is not None:
                source = ("--file", str(path))
            else:
                source = ("--type", item.catalog)
            key = None if kind == "check" else f"{workload}/{item.id}/{' '.join(command)}"
            jobs.append(Job(key, kind, command + source, item.size))
    return jobs

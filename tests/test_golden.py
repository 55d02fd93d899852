"""Golden outputs: sha256 digests of seeded runs, pinned byte for byte.

A change that alters any random draw, its order, or the arithmetic of an
operator changes these digests. Regenerate them only for a deliberate change
of behaviour, and say so where the change is recorded.
"""

import hashlib

import numpy as np
import pytest

import tspga.data
from tspga import (
    ExperimentConfig,
    GaConfig,
    Instance,
    RngStream,
    build_distance_matrix,
    evolve,
    init_population,
    render_tour,
    run_comparison,
)
from tspga.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- compare

COMPARE_DIGESTS = {
    "report.json": "c0667f21f626d269081718dda8e8d00bca09ed8a44ce61ff8b2af3ed329c0927",
    "convergence.csv": "b460141cab819e49c90b249a7e8372cc586113cde54887bc5f062997f54cbc55",
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_compare_outputs_are_golden(tmp_path, jobs):
    cfg = ExperimentConfig(
        ga=GaConfig(population_size=30, max_generations=40),
        operators=("RSM", "PSM", "HPRM"),
        instance_path=str(tspga.data.BERLIN52_TSP),
        output_dir=str(tmp_path),
        root_seed=2012,
        runs=3,
        jobs=jobs,
    )
    run_comparison(cfg)
    digests = {name: _sha((tmp_path / name).read_bytes()) for name in COMPARE_DIGESTS}
    assert digests == COMPARE_DIGESTS


# ---------------------------------------------------------------- solve

SOLVE_DIGESTS = {
    "rsm": "1d7c0425ef782ab7f2a28d017af8e378b226444ba1f6decd431175231953301c",
    "psm": "26487e65e9a364ec374bb3260e2acbcd6aa92b2d49cebeabb1d7c610aa280e5f",
    "hprm": "2c2d605aef96881655db0a96417c3aacd285d295260920d277811de466d7a777",
}


@pytest.mark.parametrize("operator", sorted(SOLVE_DIGESTS))
def test_solve_stdout_is_golden(capsys, operator):
    code = main([
        "solve", str(tspga.data.BERLIN52_TSP), "--operator", operator,
        "--pop", "30", "--generations", "60", "--seed", "1203",
    ])
    assert code == 0
    assert _sha(capsys.readouterr().out.encode()) == SOLVE_DIGESTS[operator]


# ---------------------------------------------------------------- evolve at size

# Large enough that a generation's crossed children span several blocks of
# the crossover kernel.
LARGE_N = 2000
LARGE_POP = 80

EVOLVE_DIGESTS = {
    ("RSM", 0.3): "18215d5aeaab99061861fde1b83994d7a01380c526a1877dec9e45f0a099a964",
    ("PSM", 0.3): "9c3fc891be83a31aeab378f08df6309ccd0a9fbc9af96bbf0a3d2404db4ca22d",
    ("HPRM", 0.3): "5d6499970f05762d7cd99e5be85fbb8c44c6fc33cc535a4d069801c4df96388f",
    ("HPRM", 0.0): "18215d5aeaab99061861fde1b83994d7a01380c526a1877dec9e45f0a099a964",
}


@pytest.fixture(scope="module")
def large_dm():
    coords = np.random.default_rng(5000).uniform(0.0, 10_000.0, size=(LARGE_N, 2))
    return build_distance_matrix(Instance("synthetic", LARGE_N, coords))


@pytest.mark.parametrize("operator,pm", sorted(EVOLVE_DIGESTS))
def test_evolve_trace_and_best_tour_are_golden(large_dm, operator, pm):
    cfg = GaConfig(
        population_size=LARGE_POP, max_generations=3, crossover_rate=0.5,
        mutation_rate=pm, mutation_operator=operator,
    )
    rng = RngStream(77)
    result = evolve(cfg, large_dm, init_population(cfg, LARGE_N, rng), rng)
    trace = repr([(r.generation, r.best_so_far, r.gen_best, r.gen_mean) for r in result.trace])
    digest = _sha(trace.encode() + result.best_tour.astype("<i8").tobytes())
    assert digest == EVOLVE_DIGESTS[(operator, pm)]


# ---------------------------------------------------------------- distance matrix and validate

DM_DIGESTS = {
    "berlin52": "cee59c78d79425575eaca496358d32e5741eee67cb7eaee0686d8261bf43e5ff",
    5000: "b0afa82b9106b32668a1e31955e3d1ef6dc893c3fc4f35ebf5483793d5e30137",
}

# Instance size -> digest of the validate stdout of VALIDATE_TOURS seeded tours.
VALIDATE_DIGESTS = {
    2000: "a54f4b4e31b0080b335314390813423e28073ad3edcfbc361b500dc5bf2280fa",
    5000: "3702f86e226c285bbdab18cac6a39744394dc5c27b0278004aa19c7d707488f9",
}
VALIDATE_TOURS = 3


def _synthetic_instance(n):
    # One decimal keeps the written text an exact image of the array.
    coords = np.random.default_rng([2012, n]).uniform(0.0, 10_000.0, size=(n, 2)).round(1)
    return Instance("synthetic", n, coords)


def _instance_text(inst):
    head = [f"NAME: {inst.name}", "TYPE: TSP", f"DIMENSION: {inst.dimension}",
            "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
    body = [f"{i} {x!r} {y!r}" for i, (x, y) in enumerate(inst.coords.tolist(), 1)]
    return "\n".join(head + body + ["EOF"]) + "\n"


def test_berlin52_distance_matrix_is_golden(berlin52):
    digest = _sha(build_distance_matrix(berlin52).astype("<i8").tobytes())
    assert digest == DM_DIGESTS["berlin52"]


def test_large_distance_matrix_is_golden():
    # At n=5000 the matrix is built in hundreds of row blocks.
    digest = _sha(build_distance_matrix(_synthetic_instance(5000)).astype("<i8").tobytes())
    assert digest == DM_DIGESTS[5000]


@pytest.mark.parametrize("n", sorted(VALIDATE_DIGESTS))
def test_validate_stdout_is_golden(tmp_path, capsys, n):
    inst_path = tmp_path / "synthetic.tsp"
    inst_path.write_text(_instance_text(_synthetic_instance(n)), encoding="utf-8")
    rng = np.random.default_rng([77, n])
    out = []
    for k in range(VALIDATE_TOURS):
        tour_path = tmp_path / f"t{k}.tour"
        tour_path.write_text(render_tour(rng.permutation(n)), encoding="utf-8")
        assert main(["validate", str(inst_path), str(tour_path)]) == 0
        out.append(capsys.readouterr().out)
    assert _sha("".join(out).encode()) == VALIDATE_DIGESTS[n]

"""Codec selection against its frozen oracle (tests/oracle/selection.py).

Each assignment computes its per-program inputs once: every unit's
options are ranked once, and each codec name's payload table, model
overhead and cost model are resolved once per context.  The decisions
must not move: every policy on every program, granularity and base
codec gives the oracle's unit codecs and digest.  The lookup-count test
proves the once-per-option path is the one that ran.
"""

import pytest

from oracle.selection import oracle_assignment
from repro import api
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.selection import (
    UNCOMPRESSED,
    assignment,
    build_assignment,
    make_policy,
)
from repro.workloads import generate_sized_program, get_workload

PROGRAMS = ("cold_paths", "modular", "composite", "dijkstra", "generated")
POLICIES = (
    "pipeline-search",
    "pipeline-search:3",
    "knapsack",
    "knapsack:0.9",
    "hotness-threshold:0.25",
)
GRANULARITIES = ("block", "function")
BASE_CODECS = ("shared-dict", "huffman")


def _program(name):
    if name == "generated":
        return generate_sized_program(7, 4000, loop_iters=(2, 4))
    return get_workload(name).program


@pytest.fixture(scope="module")
def cfgs():
    return {name: build_cfg(_program(name)) for name in PROGRAMS}


def _assert_matches(cfg, config):
    fast = build_assignment(cfg, config)
    frozen = oracle_assignment(cfg, config)
    context = (cfg.name, config.codec, config.granularity,
               config.assignment)
    assert fast.unit_codecs == frozen.unit_codecs, context
    assert fast.digest == frozen.digest, context
    return fast


@pytest.mark.parametrize("program", PROGRAMS)
def test_matches_oracle(cfgs, program):
    chosen = set()
    for base in BASE_CODECS:
        for granularity in GRANULARITIES:
            for policy in POLICIES:
                config = SimulationConfig(
                    codec=base, granularity=granularity,
                    assignment=policy,
                )
                chosen.update(_assert_matches(cfgs[program], config)
                              .unit_codecs.values())
    # The matrix reaches past the base codec: pipelines and stored
    # (uncompressed) units are chosen too.
    assert UNCOMPRESSED in chosen
    assert any("|" in name for name in chosen)


@pytest.mark.parametrize("program", ("composite", "cold_paths"))
def test_profiled_matches_oracle(cfgs, program):
    profile = api.profile_workload(program)
    for granularity in GRANULARITIES:
        for policy in POLICIES:
            config = SimulationConfig(
                codec="shared-dict", granularity=granularity,
                assignment=policy, profile=profile,
            )
            _assert_matches(cfgs[program], config)


@pytest.mark.parametrize("program", ("cold_paths", "composite"))
def test_codec_lookups_once_per_option(cfgs, program, monkeypatch):
    cfg = cfgs[program]
    config = SimulationConfig(
        codec="shared-dict", assignment="pipeline-search"
    )
    build_assignment(cfg, config)  # warm: every artifact is built
    looked_up = []
    real = assignment.get_codec

    def counting(name):
        looked_up.append(name)
        return real(name)

    monkeypatch.setattr(assignment, "get_codec", counting)
    build_assignment(cfg, config)
    options = {config.codec, UNCOMPRESSED,
               *make_policy(config.assignment).candidate_specs}
    assert looked_up, "the search resolved no cost model"
    assert len(looked_up) == len(set(looked_up)) <= len(options)

"""Property-based system tests: random programs, random configurations.

The differential oracle as a hypothesis property: for any generated
program and any strategy configuration, the simulation must (a) terminate,
(b) produce the same architectural state as the uncompressed run, and
(c) keep its footprint between the compressed floor and the
compressed+all-decompressed ceiling.
"""

from hypothesis import given, settings, strategies as st

from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.isa.encoding import decode_program, encode_program
from repro.workloads import GeneratorConfig, generate_program

_FAST = dict(trace_events=False, record_trace=True)

_CONFIGS = st.builds(
    lambda dec, kc, kd, predictor, codec: SimulationConfig(
        decompression=dec,
        k_compress=kc,
        k_decompress=kd,
        predictor=predictor,
        codec=codec,
        **_FAST,
    ),
    dec=st.sampled_from(["ondemand", "pre-all", "pre-single"]),
    kc=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    kd=st.integers(min_value=1, max_value=4),
    predictor=st.sampled_from(
        ["online-profile", "last-successor", "markov"]
    ),
    codec=st.sampled_from(["shared-dict", "shared-fields", "lzw"]),
)

_GENERATOR_CONFIGS = st.builds(
    lambda seed, segments: GeneratorConfig(seed=seed, segments=segments),
    seed=st.integers(min_value=0, max_value=40),
    segments=st.integers(min_value=3, max_value=12),
)


def _remember_set_problems(residency):
    """Violations of the remember sets' invariant (empty when
    consistent): every site in a target's set maps back to that target,
    and every mapped site is in its target's set."""
    site_target, by_target = residency.site_target, residency.by_target
    problems = [
        f"site {site} in set of B{target} but maps to "
        f"{site_target.get(site)}"
        for target, sites in by_target.items() for site in sites
        if site_target.get(site) != target
    ]
    problems += [
        f"site {site} maps to B{target} but missing from its set"
        for site, target in site_target.items()
        if site not in by_target.get(target, set())
    ]
    return problems


class TestSystemInvariants:
    @given(gen=_GENERATOR_CONFIGS, config=_CONFIGS)
    @settings(max_examples=25, deadline=None)
    def test_transparency_and_bounds(self, gen, config):
        program = generate_program(gen)
        cfg = build_cfg(program)
        base = CodeCompressionManager(
            cfg, SimulationConfig(decompression="none", **_FAST)
        ).run()
        manager = CodeCompressionManager(cfg, config)
        result = manager.run()

        # (b) transparency
        assert result.registers == base.registers
        assert result.block_trace == base.block_trace
        assert result.execution_cycles == base.execution_cycles

        # (c) footprint bounds
        floor = manager.residency.image.compressed_image_size
        ceiling = floor + cfg.total_size_bytes()
        for _, footprint in result.footprint.samples:
            assert floor <= footprint <= ceiling

        # overhead is never negative; total decomposes exactly
        assert result.total_cycles >= result.execution_cycles
        assert result.total_cycles == (
            result.execution_cycles + result.counters.stall_cycles
        )

    @given(gen=_GENERATOR_CONFIGS)
    @settings(max_examples=15, deadline=None)
    def test_binary_roundtrip_of_generated_programs(self, gen):
        program = generate_program(gen)
        decoded = decode_program(program.encode())
        assert encode_program(decoded) == program.encode()

    @given(
        gen=_GENERATOR_CONFIGS,
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_remember_sets_stay_consistent(self, gen, k):
        program = generate_program(gen)
        cfg = build_cfg(program)
        manager = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="ondemand", k_compress=k,
                             **_FAST),
        )
        manager.run()
        assert _remember_set_problems(manager.residency) == []

    @given(gen=_GENERATOR_CONFIGS)
    @settings(max_examples=10, deadline=None)
    def test_kedge_k1_minimises_memory(self, gen):
        """k=1 is the most aggressive setting: its average footprint is a
        lower bound among k values (Section 3's monotone claim)."""
        program = generate_program(gen)
        cfg = build_cfg(program)
        averages = []
        for k in (1, 4, 16):
            result = CodeCompressionManager(
                cfg,
                SimulationConfig(decompression="ondemand", k_compress=k,
                                 **_FAST),
            ).run()
            averages.append(result.average_footprint)
        assert averages[0] <= averages[1] + 1e-9
        assert averages[1] <= averages[2] + 1e-9

"""Fuzz driver: generators are valid, seeds pass, repro files round-trip."""

from __future__ import annotations

import json
import random

import pytest

from repro.memory.l1 import L1Cache
from repro.sim import ExecutionMode, MachineConfig, engine_core
from repro.verify import assert_clean
from repro.verify.fuzz import (
    _run_case,
    config_from_dict,
    config_to_dict,
    main,
    random_machine_config,
    random_workload,
    run_repro,
    run_seed,
    write_repro,
)


class TestGenerators:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_pass_their_own_lint(self, seed):
        workload = random_workload(random.Random(seed))
        report = assert_clean(workload)
        assert report.units > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_configs_are_geometrically_valid(self, seed):
        config = random_machine_config(random.Random(seed))
        config.l1_geometry()
        config.l2_geometry()
        for mode in ExecutionMode.ALL:
            MachineConfig.for_mode(mode, base=config)

    def test_draws_are_deterministic(self):
        a = random_workload(random.Random(7))
        b = random_workload(random.Random(7))
        assert [t.instruction_count for t in a.transactions] == \
            [t.instruction_count for t in b.transactions]
        assert config_to_dict(random_machine_config(random.Random(7))) == \
            config_to_dict(random_machine_config(random.Random(7)))


class TestSeeds:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seed_passes_all_modes(self, seed):
        assert run_seed(seed) == []

    def test_seed_with_invariants(self):
        assert run_seed(2, check_invariants=True) == []


class TestReproFiles:
    def test_round_trip(self, tmp_path):
        rng = random.Random(0)
        workload = random_workload(rng)
        config = random_machine_config(rng)
        path = tmp_path / "repro.json"
        write_repro(path, workload, config, mode="baseline", seed=0,
                    error="synthetic")
        assert run_repro(path) is None  # healthy simulator: no failure

    def test_config_round_trip(self):
        config = random_machine_config(random.Random(3))
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_retired_config_fields_still_replay(self, tmp_path):
        # Repro files written while these execution-strategy switches
        # existed carry them in their config; they must replay, not
        # fail with a TypeError.
        rng = random.Random(0)
        path = tmp_path / "old.json"
        write_repro(path, random_workload(rng), random_machine_config(rng),
                    mode="baseline", seed=0, error="synthetic")
        doc = json.loads(path.read_text())
        doc["config"]["columnar"] = True
        doc["config"]["speculative_batches"] = False
        path.write_text(json.dumps(doc))
        assert run_repro(path) is None

    def test_unknown_config_field_still_raises(self):
        doc = config_to_dict(random_machine_config(random.Random(3)))
        doc["no_such_field"] = True
        with pytest.raises(TypeError):
            config_from_dict(doc)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a fuzz repro"):
            run_repro(path)


class TestCli:
    def test_main_passes_two_seeds(self, tmp_path, capsys):
        rc = main(["--seeds", "2", "--out", str(tmp_path), "-q"])
        assert rc == 0
        assert "2 seeds passed" in capsys.readouterr().out

    def test_main_repro_mode(self, tmp_path, capsys):
        rng = random.Random(0)
        path = tmp_path / "repro.json"
        write_repro(path, random_workload(rng),
                    random_machine_config(rng),
                    mode="baseline", seed=0, error="synthetic")
        assert main(["--repro", str(path)]) == 0
        assert "PASS" in capsys.readouterr().out


#: Slot of a CPU's hoist tuple (``Machine._run_region``) that holds the
#: other CPUs' L1s, which the compiled store arm invalidates.
HOIST_OTHER_L1S = 20


class TestDifferentialKillsFastPathMutant:
    """A fault that lives only in the compiled store arm — it stops
    invalidating the other CPUs' L1 copies, so they keep stale lines —
    passes the oracle and the invariant checker; the compiled-vs-
    interpreted differential is what catches it."""

    def test_skipped_other_l1_invalidation_is_caught(self, monkeypatch):
        real = engine_core.run_event_loop
        layout = []

        def mutant(machine):
            for cpu in machine.cpus:
                if cpu.hoist is None:
                    continue
                others = cpu.hoist[HOIST_OTHER_L1S]
                layout.append(
                    isinstance(others, list)
                    and all(isinstance(l1, L1Cache) for l1 in others)
                    and [id(l1) for l1 in others] == [
                        id(c.l1) for c in machine.cpus if c is not cpu
                    ]
                )
                cpu.hoist = (
                    cpu.hoist[:HOIST_OTHER_L1S] + ([],)
                    + cpu.hoist[HOIST_OTHER_L1S + 1:]
                )
            real(machine)

        monkeypatch.setattr(engine_core, "run_event_loop", mutant)
        errors = []
        for seed in range(12):
            rng = random.Random(seed)
            workload = random_workload(rng)
            base = random_machine_config(rng)
            for mode in ExecutionMode.ALL:
                config = MachineConfig.for_mode(mode, base=base)
                errors.append(_run_case(workload, config))
        # The emptied slot held the other CPUs' L1s: a reordered hoist
        # would make this mutant test nothing.
        assert layout and all(layout)
        assert any(
            e is not None and e.startswith("CompiledPathMismatch")
            for e in errors
        )

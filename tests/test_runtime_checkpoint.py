"""Checkpoint/resume: round-granular snapshots restore the fixpoint
environment bit-identically — resuming from ANY checkpoint converges to
the same canonical model and the same stats (modulo timings)."""

import json
import shutil
import threading

import pytest

import repro.core.engine as engine_module
from repro.constraints.system import ConstraintSystem
from repro.core import DeductiveEngine, parse_program
from repro.gdb import parse_database
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.runtime.checkpoint import (
    Checkpoint,
    engine_fingerprint,
    load_checkpoint,
    write_checkpoint,
)
from repro.util.errors import CheckpointError, GiveUpError

EDB = """
relation course[2; 1] {
  (168n+8, 168n+10; "database") where T2 = T1 + 2;
}
relation seed[1; 0] { (n) where T1 = 0; }
relation zero[2; 0] { (n, n) where T1 = 0 & T2 = 0; }
"""

PROGRAM = """
problems(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
problems(t1 + 48, t2 + 48; X) <- problems(t1, t2; X).
"""


def make_engine(program_text=PROGRAM, **kwargs):
    return DeductiveEngine(
        parse_program(program_text), parse_database(EDB), **kwargs
    )


def canon(relation):
    return sorted(gt.canonical_key() for gt in relation.tuples)


def model_keys(model):
    return {name: canon(model.relation(name)) for name in model.predicates()}


def comparable_stats(stats):
    """Stats dict minus fields legitimately differing across a resume."""
    payload = stats.to_dict()
    for volatile in (
        "elapsed_seconds",
        "prior_elapsed_seconds",
        "segment_elapsed_seconds",
        "resumed_from_round",
        "checkpoints_written",
    ):
        payload.pop(volatile)
    return payload


def keep_every_checkpoint(tmp_path, monkeypatch):
    """Make the engine keep a copy of each snapshot it writes; returns
    the list the copies' paths are appended to."""
    copies = []
    original = engine_module.write_checkpoint

    def copying_write(target, checkpoint):
        original(target, checkpoint)
        copy = tmp_path / ("round%d.ckpt.json" % len(copies))
        shutil.copyfile(target, copy)
        copies.append(str(copy))

    monkeypatch.setattr(engine_module, "write_checkpoint", copying_write)
    return copies


@pytest.fixture
def every_checkpoint(tmp_path, monkeypatch):
    """Run Example 4.1 checkpointing every round, keeping a copy of
    each snapshot; returns (clean_model, [checkpoint paths])."""
    copies = keep_every_checkpoint(tmp_path, monkeypatch)
    path = tmp_path / "run.ckpt.json"
    model = make_engine().run(checkpoint_every=1, checkpoint_path=str(path))
    return model, copies


class TestResume:
    def test_resume_from_every_checkpoint_is_bit_identical(
        self, every_checkpoint
    ):
        clean, copies = every_checkpoint
        assert clean.stats.checkpoints_written == len(copies) > 1
        for copy in copies:
            resumed = make_engine().run(resume_from=copy)
            assert model_keys(resumed) == model_keys(clean)
            assert comparable_stats(resumed.stats) == comparable_stats(
                clean.stats
            )
            assert resumed.stats.resumed_from_round is not None

    def test_checkpoint_signatures_are_its_environments(self, every_checkpoint):
        # A checkpoint stores no signature set: a resumed run reads the
        # free signatures off the restored environment.
        clean, copies = every_checkpoint
        for copy in copies:
            assert set(load_checkpoint(copy).env) == {"problems"}
            resumed = make_engine().run(resume_from=copy)
            assert str(resumed) == str(clean)
            assert comparable_stats(resumed.stats) == comparable_stats(clean.stats)

    def test_resumed_give_up_counts_signature_growth_from_its_environment(
        self, tmp_path, monkeypatch
    ):
        # A diverging program's give-up round depends on when the free
        # signatures last grew; a run resumed mid-way must give up at
        # the same round with the same stats and partial model.  E7's
        # unary arithmetic (t2 = 2 * t1) has no lrp closed form.
        program = (
            "double(t1, t2) <- zero(t1, t2).\n"
            "double(t1 + 1, t2 + 2) <- double(t1, t2).\n"
        )
        copies = keep_every_checkpoint(tmp_path, monkeypatch)
        path = tmp_path / "diverge.ckpt.json"
        with pytest.raises(GiveUpError) as clean:
            make_engine(program, patience=3).run(
                checkpoint_every=1, checkpoint_path=str(path)
            )
        assert len(copies) > 3
        for copy in copies:
            with pytest.raises(GiveUpError) as resumed:
                make_engine(program, patience=3).run(resume_from=copy)
            assert str(resumed.value.partial_model) == str(clean.value.partial_model)
            assert comparable_stats(resumed.value.stats) == comparable_stats(
                clean.value.stats
            )

    def test_resume_restores_progress_counters(self, every_checkpoint):
        clean, copies = every_checkpoint
        resumed = make_engine().run(resume_from=copies[2])
        assert resumed.stats.resumed_from_round == 3
        assert resumed.stats.rounds == clean.stats.rounds
        assert (
            resumed.stats.new_tuples_per_round
            == clean.stats.new_tuples_per_round
        )

    def test_checkpoint_validation_requires_path(self):
        with pytest.raises(ValueError):
            make_engine().run(checkpoint_every=1)
        with pytest.raises(ValueError):
            make_engine().run(checkpoint_every=0, checkpoint_path="x")

    def test_fingerprint_mismatch(self, every_checkpoint):
        _, copies = every_checkpoint
        other = make_engine(
            """
            q(t1 + 2, t2 + 2; X) <- course(t1, t2; X).
            """
        )
        with pytest.raises(CheckpointError):
            other.run(resume_from=copies[0])

    def test_strategy_changes_fingerprint(self):
        semi = make_engine().fingerprint()
        naive = make_engine(strategy="naive").fingerprint()
        assert semi != naive

    def test_shift_closure_changes_fingerprint(self, tmp_path):
        # Compiled mode closes p's shift chain at acceptance, the
        # reference walks it one round per step: a checkpoint of one
        # does not resume the other.  Example 4.1's chain is
        # two-column, so its fingerprint is the same in both modes.
        program = "p(t) <- seed(t).\np(t + 5) <- p(t).\n"
        compiled = make_engine(program)
        reference = make_engine(program, evaluation="reference")
        assert compiled.fingerprint() != reference.fingerprint()
        assert make_engine().fingerprint() == make_engine(
            evaluation="reference"
        ).fingerprint()
        path = tmp_path / "walked.ckpt.json"
        with pytest.raises(GiveUpError):
            make_engine(program, evaluation="reference", patience=3).run(
                checkpoint_every=1, checkpoint_path=str(path)
            )
        with pytest.raises(CheckpointError, match="fingerprint mismatch"):
            compiled.run(resume_from=str(path))


class TestCheckpointFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_earlier_version_is_refused(self, tmp_path):
        # Version 2 files also carried known_signatures and
        # plan_fingerprint; they load as a typed error, on which the
        # service pool restarts the job from round 0.
        path = tmp_path / "ck.json"
        make_engine().run(checkpoint_every=1, checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        assert payload["version"] == 3
        assert "known_signatures" not in payload
        assert "plan_fingerprint" not in payload
        del payload["digest"]
        payload.update(version=2, known_signatures={}, plan_fingerprint="")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
            load_checkpoint(str(path))

    def test_round_trip(self, tmp_path):
        relation = parse_database(EDB).relation("course")
        checkpoint = Checkpoint(
            fingerprint=engine_fingerprint("p", "e", "semi-naive", "paper"),
            stratum_index=0,
            rounds_in_stratum=2,
            last_growth=1,
            env={"problems": relation},
            stats={"rounds": 2},
            delta=None,
            complements={},
        )
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == checkpoint.fingerprint
        assert loaded.rounds_in_stratum == 2
        assert canon(loaded.env["problems"]) == canon(relation)


class TestTypedLoadErrors:
    """Every load failure is a CheckpointError locating the damage:
    the path always, the byte offset when the JSON decoder knows it."""

    def test_corrupt_json_carries_path_and_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-checkpoint", !garbage')
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(str(path))
        assert excinfo.value.path == str(path)
        assert excinfo.value.offset == 31
        assert "at byte 31" in str(excinfo.value)

    def test_truncated_file_carries_offset(self, tmp_path):
        whole = tmp_path / "whole.json"
        make_engine().run(checkpoint_every=1, checkpoint_path=str(whole))
        torn = tmp_path / "torn.json"
        torn.write_bytes(whole.read_bytes()[: whole.stat().st_size // 2])
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(str(torn))
        assert excinfo.value.path == str(torn)
        assert excinfo.value.offset is not None

    def test_unreadable_file_carries_path(self, tmp_path):
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(str(tmp_path / "nope.json"))
        assert excinfo.value.path == str(tmp_path / "nope.json")


class TestPayloadDigest:
    """Checkpoints self-verify: the written file carries a sha256 of
    its own payload, checked on load; files from before the digest was
    introduced (no ``digest`` key) still load."""

    def write_one(self, tmp_path):
        path = str(tmp_path / "ck.json")
        make_engine().run(checkpoint_every=1, checkpoint_path=path)
        return path

    def test_written_checkpoints_carry_digest(self, tmp_path):
        path = self.write_one(tmp_path)
        payload = json.loads(open(path).read())
        assert len(payload["digest"]) == 64
        load_checkpoint(path)  # verifies without complaint

    def test_bit_rot_detected(self, tmp_path):
        path = self.write_one(tmp_path)
        text = open(path).read()
        # Flip one digit inside the payload without breaking the JSON.
        assert '"rounds_in_stratum": ' in text or '"rounds_in_stratum":' in text
        rotted = text.replace('"last_growth"', '"last_gr0wth"', 1)
        assert rotted != text
        open(path, "w").write(rotted)
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert "digest" in str(excinfo.value)
        assert excinfo.value.path == path

    def test_digestless_legacy_checkpoint_accepted(self, tmp_path):
        path = self.write_one(tmp_path)
        payload = json.loads(open(path).read())
        del payload["digest"]
        open(path, "w").write(json.dumps(payload))
        loaded = load_checkpoint(path)
        assert loaded.stats["rounds"] >= 1

    def test_resumed_run_verifies_digest_end_to_end(self, tmp_path):
        path = str(tmp_path / "resume.ckpt.json")
        uninterrupted = make_engine().run(
            checkpoint_every=1, checkpoint_path=path
        )
        resumed = make_engine().run(resume_from=path)
        assert resumed.equivalent(uninterrupted)


class TestDurability:
    """Atomic, durable checkpoint writes: staged through a temp file,
    fsynced, renamed into place — and leftover temp files are refused
    with a clean typed error instead of being deserialized."""

    def make_checkpoint(self):
        relation = parse_database(EDB).relation("course")
        return Checkpoint(
            fingerprint=engine_fingerprint("p", "e", "semi-naive", "paper"),
            stratum_index=0,
            rounds_in_stratum=1,
            last_growth=1,
            env={"problems": relation},
            stats={"rounds": 1},
        )

    def test_no_temp_file_left_after_write(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(str(path), self.make_checkpoint())
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ck.json"]
        assert leftovers == []

    def test_leftover_tmp_path_is_refused(self, tmp_path):
        # A crash between the staged write and os.replace leaves
        # <path>.tmp.<pid>.<tid> behind; loading it must fail cleanly
        # even if its contents happen to be valid JSON.
        for name in ("ck.json.tmp", "ck.json.tmp.12345", "ck.json.tmp.12345.678"):
            torn = tmp_path / name
            torn.write_text(json.dumps({"format": "repro-checkpoint"}))
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(str(torn))
            assert "temporary" in str(info.value)

    def test_concurrent_writers_to_one_path_never_collide(self, tmp_path):
        # Two threads writing the same checkpoint path (an abandoned
        # worker racing its replacement) stage through distinct temp
        # files, so neither can unlink or rename the other's staging
        # file out from under it.
        path = str(tmp_path / "ck.json")
        checkpoint = self.make_checkpoint()
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    write_checkpoint(path, checkpoint)
            except Exception as error:  # pragma: no cover - the bug
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert load_checkpoint(path).rounds_in_stratum == 1
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ck.json"]
        assert leftovers == []

    def test_committed_file_unreadable_mid_write_never_torn(self, tmp_path):
        # Simulate the crash: stage a temp file but never rename it.
        # The committed path still loads the previous checkpoint.
        path = tmp_path / "ck.json"
        write_checkpoint(str(path), self.make_checkpoint())
        (tmp_path / "ck.json.tmp.999").write_text("{ torn garba")
        loaded = load_checkpoint(str(path))
        assert loaded.rounds_in_stratum == 1

    def test_write_failure_preserves_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        first = self.make_checkpoint()
        write_checkpoint(str(path), first)

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr("repro.runtime.checkpoint.os.replace", exploding_replace)
        second = self.make_checkpoint()
        second.rounds_in_stratum = 7
        with pytest.raises(OSError):
            write_checkpoint(str(path), second)
        monkeypatch.undo()
        assert load_checkpoint(str(path)).rounds_in_stratum == 1
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "ck.json"]
        assert leftovers == []


class TestJsonSerialization:
    def test_constraint_system_round_trip(self):
        relation = parse_database(EDB).relation("course")
        for gt in relation.tuples:
            system = gt.constraints
            rebuilt = ConstraintSystem.from_json_dict(system.to_json_dict())
            assert rebuilt.canonical_key() == system.canonical_key()

    def test_empty_zone_survives(self):
        bottom = ConstraintSystem.bottom(2)
        rebuilt = ConstraintSystem.from_json_dict(bottom.to_json_dict())
        assert not rebuilt.is_satisfiable()
        assert rebuilt.canonical_key() == bottom.canonical_key()

    def test_tuple_and_relation_round_trip(self):
        relation = parse_database(EDB).relation("course")
        rebuilt = GeneralizedRelation.from_json_dict(relation.to_json_dict())
        assert rebuilt.temporal_arity == relation.temporal_arity
        assert rebuilt.data_arity == relation.data_arity
        assert canon(rebuilt) == canon(relation)
        gt = relation.tuples[0]
        assert (
            GeneralizedTuple.from_json_dict(gt.to_json_dict()).canonical_key()
            == gt.canonical_key()
        )


class TestElapsedAccumulation:
    """A resumed run must report wall-clock for the WHOLE computation,
    not just the post-resume segment (pre-PR regression: checkpoints
    froze ``elapsed_seconds`` at 0.0 and ``restore_progress`` dropped
    the first segment entirely)."""

    def test_checkpoints_carry_live_elapsed(self, every_checkpoint):
        _, copies = every_checkpoint
        for copy in copies:
            assert load_checkpoint(copy).stats["elapsed_seconds"] > 0.0

    def test_resume_accumulates_across_segments(self, every_checkpoint):
        _, copies = every_checkpoint
        mid = load_checkpoint(copies[2])
        resumed = make_engine().run(resume_from=copies[2])
        stats = resumed.stats
        assert stats.prior_elapsed_seconds == pytest.approx(
            mid.stats["elapsed_seconds"]
        )
        assert stats.prior_elapsed_seconds > 0.0
        assert stats.elapsed_seconds > stats.prior_elapsed_seconds
        payload = stats.to_dict()
        assert payload["segment_elapsed_seconds"] == pytest.approx(
            stats.elapsed_seconds - stats.prior_elapsed_seconds
        )

    def test_double_resume_keeps_accumulating(self, tmp_path, every_checkpoint):
        # Resume from round 2, checkpoint again, resume from round 5:
        # the second resume's prior covers segments one AND two.
        _, copies = every_checkpoint
        first_prior = load_checkpoint(copies[1]).stats["elapsed_seconds"]
        path = tmp_path / "second.ckpt.json"
        make_engine().run(
            resume_from=copies[1],
            checkpoint_every=3,
            checkpoint_path=str(path),
        )
        second = load_checkpoint(str(path))
        assert second.stats["elapsed_seconds"] > first_prior
        final = make_engine().run(resume_from=str(path))
        assert final.stats.prior_elapsed_seconds == pytest.approx(
            second.stats["elapsed_seconds"]
        )
        assert final.stats.elapsed_seconds > first_prior

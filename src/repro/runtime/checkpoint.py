"""Round-granular checkpoints of the bottom-up fixpoint.

A checkpoint freezes everything :class:`~repro.core.engine.DeductiveEngine`
needs to continue a run mid-stratum: the intensional relations, the
last semi-naive delta, the stratum's negation complements, the round
counters, and the statistics so far — all serialized to JSON through
the canonical ``to_json_dict`` forms of the gdb layer, so a resumed run
replays bit-identically (same canonical relations, same stats modulo
timings) to an uninterrupted one.  A resumed run reads the free
signatures off the restored relations, so none are stored.

A fingerprint of the program text, the EDB text, the evaluation
configuration, and the compiled plans is stored; resuming against
anything else raises :class:`~repro.util.errors.CheckpointError`
instead of silently computing garbage.  Writes are atomic (temp file +
rename) so a crash during a write — the ``checkpoint_write`` fault site
injects exactly that — can never leave a truncated checkpoint behind,
and each file carries a sha256 ``digest`` of its own payload that
:func:`load_checkpoint` re-verifies, so bit rot after a clean write is
refused with a typed error instead of resumed from.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.util import hooks
from repro.util.errors import CheckpointError
from repro.util.files import atomic_write
from repro.util.hooks import fault_point

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 4


def engine_fingerprint(program_text, edb_text, strategy, safety, *extra):
    """A stable digest of everything that must match for a resume.

    ``extra`` chunks extend the digest — the engine passes the compiled
    plan fingerprint so a plan-layer change invalidates old checkpoints."""
    digest = hashlib.sha256()
    for chunk in (program_text, edb_text, strategy, safety) + extra:
        digest.update(chunk.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class Checkpoint:
    """One resumable snapshot of the fixpoint state."""

    fingerprint: str
    stratum_index: int
    rounds_in_stratum: int
    last_growth: int
    env: dict                       # predicate -> GeneralizedRelation (IDB only)
    stats: dict                     # EvaluationStats.to_dict()
    delta: Optional[dict] = None    # predicate -> [GeneralizedTuple]
    complements: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.fingerprint,
            "stratum_index": self.stratum_index,
            "rounds_in_stratum": self.rounds_in_stratum,
            "last_growth": self.last_growth,
            "env": {
                name: relation.to_json_dict() for name, relation in self.env.items()
            },
            "stats": self.stats,
            "delta": None
            if self.delta is None
            else {
                name: [gt.to_json_dict() for gt in tuples]
                for name, tuples in self.delta.items()
            },
            "complements": {
                name: relation.to_json_dict()
                for name, relation in self.complements.items()
            },
        }

    @classmethod
    def from_json_dict(cls, payload):
        try:
            if payload.get("format") != CHECKPOINT_FORMAT:
                raise CheckpointError(
                    "not a repro checkpoint (format=%r)" % payload.get("format")
                )
            if payload.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    "unsupported checkpoint version %r" % payload.get("version")
                )
            delta = payload["delta"]
            return cls(
                fingerprint=payload["fingerprint"],
                stratum_index=payload["stratum_index"],
                rounds_in_stratum=payload["rounds_in_stratum"],
                last_growth=payload["last_growth"],
                env={
                    name: GeneralizedRelation.from_json_dict(relation)
                    for name, relation in payload["env"].items()
                },
                stats=payload["stats"],
                delta=None
                if delta is None
                else {
                    name: [GeneralizedTuple.from_json_dict(t) for t in tuples]
                    for name, tuples in delta.items()
                },
                complements={
                    name: GeneralizedRelation.from_json_dict(relation)
                    for name, relation in payload["complements"].items()
                },
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise CheckpointError("malformed checkpoint: %s" % error) from error


#: Filename pattern of the temporary files :func:`write_checkpoint`
#: stages writes through (``<path>.tmp.<pid>.<tid>``).
_TMP_SUFFIX_RE = re.compile(r"\.tmp(\.\d+)*$")


def write_checkpoint(path, checkpoint):
    """Atomically and durably persist a checkpoint to ``path`` as JSON.

    The write goes through :func:`repro.util.files.atomic_write`
    (staged to ``<path>.tmp.<pid>.<tid>``, fsynced, renamed into place,
    directory fsynced).  A crash at any point leaves either the
    previous checkpoint or the new one — never a torn file — at
    ``path``; at worst a leftover ``*.tmp.*`` file remains, which
    :func:`load_checkpoint` refuses to load.
    """
    fault_point("checkpoint_write")
    started = time.perf_counter() if hooks.SINKS else None
    body = checkpoint.to_json_dict()
    body["digest"] = _payload_digest(body)
    payload = json.dumps(body, indent=None, sort_keys=False)
    atomic_write(path, payload)
    if started is not None:
        hooks.emit(
            "checkpoint.write",
            {
                "path": path,
                "bytes": len(payload),
                "round": checkpoint.stats.get("rounds"),
                "stratum": checkpoint.stratum_index,
                "duration_s": time.perf_counter() - started,
            },
        )


def _payload_digest(body):
    """sha256 of the checkpoint body serialized exactly as it is
    written (digest key excluded).  ``json.load`` preserves key order,
    so re-serializing a loaded body reproduces the written text."""
    text = json.dumps(
        {k: v for k, v in body.items() if k != "digest"},
        indent=None,
        sort_keys=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_checkpoint(path):
    """Load and validate a checkpoint written by :func:`write_checkpoint`.

    Every failure becomes a typed :class:`CheckpointError` carrying the
    path (and the byte offset of the damage, when the JSON decoder can
    report one).  Checkpoints written with a ``digest`` header have
    their sha256 payload digest re-verified, so silent single-bit
    corruption is refused rather than resumed from; digest-less
    checkpoints from older versions still load.
    """
    if _TMP_SUFFIX_RE.search(os.path.basename(path)):
        raise CheckpointError(
            "%s is a leftover temporary checkpoint file (a crash interrupted "
            "a checkpoint write); resume from the committed checkpoint "
            "instead" % path
        )
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise CheckpointError(
            "cannot read checkpoint: %s" % error, path=path
        ) from error
    except ValueError as error:
        raise CheckpointError(
            "checkpoint is not valid JSON: %s" % error,
            path=path,
            offset=getattr(error, "pos", None),
        ) from error
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint is not a JSON object", path=path)
    digest = payload.pop("digest", None)
    if digest is not None and digest != _payload_digest(payload):
        raise CheckpointError(
            "checkpoint payload does not match its sha256 digest "
            "(the file was corrupted after being written)",
            path=path,
        )
    return Checkpoint.from_json_dict(payload)

"""The columnar kernel: interning, batch ops, and the column store's
generation counter.

The batch helpers must be *exactly* equivalent to the per-tuple loops
they replace — each test writes that loop out as the reference —
including the alignment rule that an unsatisfiable result appears as
None in the output list.
"""

import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.atoms import Comparison, TemporalTerm
from repro.constraints.dbm import CONSTRAINT_TABLE, ConstraintTable, Dbm
from repro.constraints.system import ConstraintSystem
from repro.core import DeductiveEngine, parse_program
from repro.gdb import kernel, parse_database
from repro.gdb.relation import GeneralizedRelation
from repro.gdb.tuple import GeneralizedTuple
from repro.lrp.point import Lrp
from repro.util import hooks


def _sat_zone():
    zone = Dbm.unconstrained(2)
    zone.add_bound(1, 2, -1)  # x1 - x2 <= -1
    zone.add_bound(2, 1, 5)   # x2 - x1 <= 5
    return zone


class TestConstraintTable:
    def test_intern_shares_one_instance_per_key(self):
        a, b = _sat_zone(), _sat_zone()
        a.close()
        b.close()
        interned_a = CONSTRAINT_TABLE.intern(a)
        interned_b = CONSTRAINT_TABLE.intern(b)
        assert interned_a is interned_b
        assert interned_a._cid is not None
        assert CONSTRAINT_TABLE.zone_for(interned_a._cid) is interned_a

    def test_copy_never_carries_the_id(self):
        zone = _sat_zone()
        zone.close()
        interned = CONSTRAINT_TABLE.intern(zone)
        assert interned.copy()._cid is None

    def test_full_table_falls_back_to_canonical_key(self):
        table = ConstraintTable(cap=0)
        zone = _sat_zone()
        zone.close()
        returned = table.intern(zone)
        assert returned is zone
        assert returned._cid is None
        assert table.zone_id(zone) == zone.canonical_key()


def _gt(offset, data="x", constraints=None):
    return GeneralizedTuple((Lrp(24, offset),), (data,), constraints)


def _keys(results):
    return [None if gt is None else (gt.canonical_key(), gt.data) for gt in results]


_CACHES = ("_JOIN_CACHE", "_SELECT_CACHE", "_EXTEND_CACHE", "_PROJECT_CACHE")


def _empty_caches(monkeypatch):
    for name in _CACHES:
        monkeypatch.setattr(kernel, name, OrderedDict())


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty template caches for one test (the process-wide ones hold
    whatever earlier tests cached under the same content keys)."""
    _empty_caches(monkeypatch)


@pytest.mark.usefixtures("fresh_caches")
class TestBatchOps:
    """Each batch op must match the per-tuple loop it replaced (the
    loop the former kernel-off ablation ran), written out here."""

    def test_select_batch_matches_ablation(self):
        tuples = [
            _gt(1),
            _gt(1),  # duplicate ids: a template-cache hit
            _gt(3, constraints=ConstraintSystem.parse("T1 >= 0", 1)),
        ]
        atoms = [Comparison(">=", TemporalTerm(0), TemporalTerm(None, 5))]
        expected = [gt.conjoined(atoms) for gt in tuples]
        stats = {}
        got = kernel.select_batch(tuples, atoms, stats)
        assert _keys(got) == _keys(expected)
        assert stats["size"] == 3
        assert stats["hits"] == 1

    def test_join_batch_matches_ablation(self):
        pairs = [(_gt(1), _gt(3, "y")), (_gt(1), _gt(3, "z")), (_gt(2), _gt(4, "y"))]
        atoms = [Comparison("=", TemporalTerm(1), TemporalTerm(0, 2))]
        expected = [a.joined(b, atoms) for a, b in pairs]
        stats = {}
        got = kernel.join_batch(pairs, atoms, stats)
        assert _keys(got) == _keys(expected)
        # The second pair shares both operands' (lvid, cid) ids with the
        # first — data columns differ but the temporal template is shared.
        assert stats["hits"] == 1
        assert got[1].data == ("x", "z")

    def test_join_batch_caches_unsatisfiable_as_none(self):
        # T1 = T1 + 1 can never hold: every pair dies in the zone.
        atoms = [Comparison("=", TemporalTerm(0), TemporalTerm(0, 1))]
        pairs = [(_gt(1), _gt(1, "y"))] * 3
        stats = {}
        got = kernel.join_batch(pairs, atoms, stats)
        assert got == [None, None, None]
        assert stats["hits"] == 2

    def test_extend_batch_matches_ablation(self):
        tuples = [_gt(1), _gt(1), _gt(7)]
        atoms = [Comparison("=", TemporalTerm(1), TemporalTerm(0, 2))]
        expected = [gt.extended(1, atoms) for gt in tuples]
        stats = {}
        got = kernel.extend_batch(tuples, 1, atoms, stats)
        assert _keys(got) == _keys(expected)
        assert got[0].temporal_arity == 2
        assert stats["hits"] == 1

    def test_project_batch_matches_ablation(self):
        wide = GeneralizedTuple(
            (Lrp(24, 1), Lrp(24, 3)),
            ("x", "y"),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )
        tuples = [wide, wide]
        expected = [
            [gt.shift_column(0, 2) for gt in wide_gt.project((0,), (1,))]
            for wide_gt in tuples
        ]
        stats = {}
        got = kernel.project_batch(tuples, (0,), (1,), ((0, 2),), stats)
        assert [_keys(results) for results in got] == [
            _keys(results) for results in expected
        ]
        assert stats["hits"] == 1
        for results in got:
            for gt in results:
                assert gt.data == ("y",)

    def test_cache_stats_shape(self):
        stats = kernel.cache_stats()
        assert set(stats) == {"join", "select", "extend", "project", "cap"}


_MEET_PROGRAM = """
p(t; X) <- seed(t; X).
p(t + 2; X) <- p(t; X).
meet(t; X, Y) <- p(t; X), p(t; Y).
late(t; X) <- meet(t; X, Y), t >= 30.
"""

_MEET_EDB = 'relation seed[1; 1] { (12n+0; "a"); (12n+5; "b"); }'


def _run_meet(program_text=_MEET_PROGRAM):
    """One fresh engine over the meet program; returns the model and
    its join steps' ``kernel.batch`` (size, hits) totals."""
    totals = {"size": 0, "hits": 0}

    def sink(kind, fields):
        if kind == "kernel.batch" and fields["fast_path"] in (
            "hash", "fused-closure", "product",
        ):
            totals["size"] += fields["size"]
            totals["hits"] += fields["hits"]

    engine = DeductiveEngine(parse_program(program_text), parse_database(_MEET_EDB))
    hooks.subscribe(sink)
    try:
        model = engine.run()
    finally:
        hooks.unsubscribe(sink)
    return model, totals


class TestContentKeys:
    """Template keys are the operation's content plus the operands'
    ids, so engines share templates and distinct operations never do."""

    def test_second_engine_hits_the_first_engines_templates(self, fresh_caches):
        first, first_joins = _run_meet()
        filled = kernel.cache_stats()
        second, second_joins = _run_meet()
        assert str(second) == str(first)
        assert second_joins["size"] == first_joins["size"] > 0
        assert second_joins["hits"] > first_joins["hits"]
        # Nothing new was cached: every lookup of the rerun hit a
        # template of the first run.
        assert kernel.cache_stats() == filled

    def test_join_atoms_are_part_of_the_key(self, fresh_caches):
        pairs = [(_gt(1), _gt(3, "y"))]
        loose = [Comparison("<=", TemporalTerm(0), TemporalTerm(1, 2))]
        tight = [Comparison("=", TemporalTerm(1), TemporalTerm(0, 2))]
        kernel.join_batch(pairs, loose)
        stats = {}
        got = kernel.join_batch(pairs, tight, stats)
        assert stats["hits"] == 0
        assert _keys(got) == _keys([a.joined(b, tight) for a, b in pairs])
        assert _keys(got) != _keys([a.joined(b, loose) for a, b in pairs])

    def test_select_atoms_are_part_of_the_key(self, fresh_caches):
        tuples = [_gt(1)]
        low = [Comparison(">=", TemporalTerm(0), TemporalTerm(None, 5))]
        high = [Comparison(">=", TemporalTerm(0), TemporalTerm(None, 50))]
        kernel.select_batch(tuples, low)
        stats = {}
        got = kernel.select_batch(tuples, high, stats)
        assert stats["hits"] == 0
        assert _keys(got) == _keys([gt.conjoined(high) for gt in tuples])
        assert _keys(got) != _keys([gt.conjoined(low) for gt in tuples])

    def test_extend_count_and_atoms_are_part_of_the_key(self, fresh_caches):
        tuples = [_gt(1)]
        pinned = [Comparison("=", TemporalTerm(1), TemporalTerm(0, 2))]
        kernel.extend_batch(tuples, 1, pinned)
        for count, atoms in ((1, []), (2, pinned)):
            stats = {}
            got = kernel.extend_batch(tuples, count, atoms, stats)
            assert stats["hits"] == 0
            assert _keys(got) == _keys([gt.extended(count, atoms) for gt in tuples])

    def test_projection_parameters_are_part_of_the_key(self, fresh_caches):
        wide = GeneralizedTuple(
            (Lrp(24, 1), Lrp(24, 3)),
            ("x", "y"),
            ConstraintSystem.parse("T2 = T1 + 2", 2),
        )

        def expected(keep_temporal, keep_data, shifts):
            results = wide.project(keep_temporal, keep_data)
            for column, delta in shifts:
                results = [r.shift_column(column, delta) for r in results]
            return _keys(results)

        kernel.project_batch([wide], (0,), (1,), ((0, 2),))
        variants = (
            ((1,), (1,), ((0, 2),)),   # other kept temporal column
            ((0,), (1,), ((0, 5),)),   # other shift
            ((0,), (1,), ()),          # no shift
            ((0,), (0,), ((0, 2),)),   # other kept data column
        )
        for keep_temporal, keep_data, shifts in variants:
            stats = {}
            got = kernel.project_batch([wide], keep_temporal, keep_data, shifts, stats)
            assert stats["hits"] == 0, (keep_temporal, keep_data, shifts)
            assert _keys(got[0]) == expected(keep_temporal, keep_data, shifts)


class TestEviction:
    """Each cache holds at most ``CACHE_CAP`` templates, evicting the
    oldest first, and keeps caching new templates once full."""

    def test_full_cache_stays_at_cap_and_caches_new_templates(
        self, fresh_caches, monkeypatch
    ):
        monkeypatch.setattr(kernel, "CACHE_CAP", 4)
        atoms = [Comparison(">=", TemporalTerm(0), TemporalTerm(None, 5))]
        kernel.select_batch([_gt(offset) for offset in range(10)], atoms)
        assert kernel.cache_stats()["select"] == 4
        stats = {}
        kernel.select_batch([_gt(11), _gt(11)], atoms, stats)
        assert stats["hits"] == 1
        assert kernel.cache_stats()["select"] == 4
        # First in, first out: the oldest templates went, the newest stay.
        stats = {}
        kernel.select_batch([_gt(0), _gt(9)], atoms, stats)
        assert stats["hits"] == 1
        assert kernel.cache_stats()["select"] == 4

    def test_engine_models_unchanged_under_eviction(self, fresh_caches, monkeypatch):
        reference, _ = _run_meet()
        monkeypatch.setattr(kernel, "CACHE_CAP", 8)
        _empty_caches(monkeypatch)
        model, joins = _run_meet()
        assert str(model) == str(reference)
        assert joins["size"] > 8
        assert kernel.cache_stats()["join"] == 8


class TestConcurrentEngines:
    """The service runs engines on several threads over the shared
    caches: more threads than cores, with a short switch interval so
    the interpreter interleaves them finely."""

    @pytest.fixture(autouse=True)
    def _fine_switching(self):
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(saved)

    def _run_threads(self, work, count):
        errors = []
        start = threading.Barrier(count)

        def guarded(slot):
            try:
                start.wait(timeout=60)
                work(slot)
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=guarded, args=(slot,)) for slot in range(count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors

    def test_threads_match_sequential_models(self, fresh_caches, monkeypatch):
        # The meet program with its shift chain over two temporal
        # columns: a one-column chain closes at acceptance and leaves
        # too few joins to fill the cache.
        program = _MEET_PROGRAM.replace(
            "p(t; X) <- seed(t; X).\np(t + 2; X) <- p(t; X).\n"
            "meet(t; X, Y) <- p(t; X), p(t; Y).",
            "p(t, u; X) <- seed(t; X), u = t.\np(t + 2, u + 2; X) <- p(t, u; X).\n"
            "meet(t; X, Y) <- p(t, u; X), p(t, v; Y).",
        )
        assert program != _MEET_PROGRAM
        texts = [program, program.replace("t >= 30", "t <= 40")]
        expected = [str(_run_meet(text)[0]) for text in texts]
        monkeypatch.setattr(kernel, "CACHE_CAP", 32)
        _empty_caches(monkeypatch)
        got = [[] for _ in range(4)]

        def work(slot):
            for _ in range(3):
                engine = DeductiveEngine(
                    parse_program(texts[slot % 2]), parse_database(_MEET_EDB)
                )
                got[slot].append(str(engine.run()))

        self._run_threads(work, 4)
        assert got == [[expected[slot % 2]] * 3 for slot in range(4)]
        stats = kernel.cache_stats()
        assert all(stats[name] <= 32 for name in ("join", "select", "extend", "project"))
        assert stats["join"] == 32

    def test_signature_ids_stay_one_per_content(self):
        contents = [("race", k) for k in range(400)]
        seen = [{} for _ in range(4)]

        def work(slot):
            order = contents if slot % 2 else contents[::-1]
            for content in order:
                seen[slot][content] = kernel._signature_id(content)

        self._run_threads(work, 4)
        assert all(ids == seen[0] for ids in seen)
        assert len(set(seen[0].values())) == len(contents)


class TestStoreGenerations:
    """Satellite regression: mutate via with_tuples, then re-query every
    memo/index — the single generation counter must invalidate them."""

    def test_mutate_then_requery_indexes(self):
        base = GeneralizedRelation(1, 1, [_gt(1, "a"), _gt(3, "b")])
        # Prime both indexes on the original view.
        assert set(base.data_index(0)) == {"a", "b"}
        assert len(base.tuples_with_signature(_gt(1, "a").free_signature())) == 1
        grown = base.with_tuples([_gt(5, "a"), _gt(7, "c")])
        # The grown view serves the appended rows...
        index = grown.data_index(0)
        assert set(index) == {"a", "b", "c"}
        assert index["a"] == [0, 2]
        matches = grown.tuples_with_signature(_gt(5, "a").free_signature())
        assert _gt(5, "a") in matches
        # ...while the stale pre-growth view never sees past its prefix.
        old_index = base.data_index(0)
        assert set(old_index) == {"a", "b"}
        assert all(
            position < len(base.tuples)
            for positions in old_index.values()
            for position in positions
        )

    def test_generation_counter_bumps_once_per_growth(self):
        base = GeneralizedRelation(1, 1, [_gt(1)])
        one = base.with_tuples([_gt(3)])
        two = one.with_tuples([_gt(5), _gt(7)])
        assert one.coverage_generation == base.coverage_generation + 1
        assert two.coverage_generation == one.coverage_generation + 1

    def test_growth_drops_stale_negative_coverage_only(self):
        gt = _gt(1, "a")
        base = GeneralizedRelation(1, 1, [gt])
        cache = base.coverage_cache()
        signature = gt.kernel_ids()[1]
        cache[signature] = {"was-covered": True, "was-uncovered": False}
        other = _gt(3, "b").kernel_ids()[1]
        cache[other] = {"elsewhere": False}
        # Same lrps + data (same free signature), tighter zone: touches
        # the cached signature without duplicating the row key.
        grown = base.with_tuples(
            [_gt(1, "a", ConstraintSystem.parse("T1 >= 0", 1))]
        )
        after = grown.coverage_cache()
        # The touched signature keeps positives, drops negatives; the
        # untouched signature keeps everything.
        assert after[signature] == {"was-covered": True}
        assert after[other] == {"elsewhere": False}


class TestClosedFormEmptiness:
    """``_is_empty_uncached`` answers tuples of temporal arity <= 1 in
    closed form (an interval against a residue class); it must agree
    with the exact aligned-disjunct test it shortcuts."""

    @settings(max_examples=200, deadline=None)
    @given(
        period=st.integers(min_value=1, max_value=12),
        offset=st.integers(min_value=-30, max_value=30),
        low=st.one_of(st.none(), st.integers(min_value=-40, max_value=40)),
        width=st.one_of(st.none(), st.integers(min_value=-3, max_value=30)),
    )
    def test_one_column_closed_form_matches_aligned(
        self, period, offset, low, width
    ):
        bounds = []
        if low is not None:
            bounds.append("T1 >= %d" % low)
            if width is not None:
                bounds.append("T1 <= %d" % (low + width))
        elif width is not None:
            bounds.append("T1 <= %d" % width)
        constraints = (
            ConstraintSystem.parse(" & ".join(bounds), 1) if bounds else None
        )
        gt = GeneralizedTuple((Lrp(period, offset),), (), constraints)
        assert gt._is_empty_uncached() == (not gt.aligned())


class TestPastInternCap:
    """Zones that overflowed the ConstraintTable cap carry no integer
    id: ``constraint_id`` falls back to the structural canonical key."""

    def _overflow_tuples(self):
        # Clamp the shared table at its current size: every zone below
        # is distinct and new, so none of them gets interned.
        tuples = []
        for k in range(5):
            system = ConstraintSystem.parse(
                "T2 = T1 + %d & T1 >= %d" % (7919 + k, 104729 + k), 2
            )
            tuples.append(
                GeneralizedTuple((Lrp(24, 1), Lrp(24, 3)), ("v%d" % k,), system)
            )
        # Two rows sharing one overflowed zone.
        shared = ConstraintSystem.parse("T2 = T1 + 7930 & T1 >= 104740", 2)
        tuples.append(GeneralizedTuple((Lrp(24, 5), Lrp(24, 7)), ("w0",), shared))
        tuples.append(GeneralizedTuple((Lrp(24, 9), Lrp(24, 11)), ("w1",), shared))
        return tuples

    def test_overflowed_zones_key_by_canonical_form(self):
        saved_cap = CONSTRAINT_TABLE.cap
        CONSTRAINT_TABLE.cap = len(CONSTRAINT_TABLE)
        try:
            tuples = self._overflow_tuples()
            # The clamp really bit: none of these zones was interned.
            for gt in tuples:
                assert not isinstance(
                    gt.constraints.constraint_id(), int
                ), "zone unexpectedly interned despite the cap clamp"
            # The shared overflowed zone still has one key.
            assert (
                tuples[5].constraints.constraint_id()
                == tuples[6].constraints.constraint_id()
            )
            assert len({gt.constraints.constraint_id() for gt in tuples}) == 6
        finally:
            CONSTRAINT_TABLE.cap = saved_cap


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

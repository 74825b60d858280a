"""Run the doctests embedded in the library's docstrings.

Keeping the examples in the API documentation executable guards
against documentation rot; every public module with examples is
listed here.
"""

import doctest

import pytest

import repro.constraints.atoms
import repro.constraints.dbm
import repro.constraints.system
import repro.core.engine
import repro.core.shift
import repro.fo
import repro.fo.evaluator
import repro.gdb.database
import repro.gdb.relation
import repro.gdb.tuple
import repro.lrp.congruence
import repro.lrp.periodic_set
import repro.lrp.point
import repro.omega.monoid
import repro.util.lexing

MODULES = [
    repro.lrp.congruence,
    repro.lrp.point,
    repro.lrp.periodic_set,
    repro.constraints.dbm,
    repro.constraints.system,
    repro.constraints.atoms,
    repro.gdb.tuple,
    repro.gdb.relation,
    repro.gdb.database,
    repro.core.engine,
    repro.core.shift,
    repro.fo,
    repro.fo.evaluator,
    repro.omega.monoid,
    repro.util.lexing,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, "%d doctest failures in %s" % (
        results.failed,
        module.__name__,
    )
    assert results.attempted > 0, "no doctests found in %s" % module.__name__

"""Randomized equivalence of compiled plans and the reference path.

Hypothesis generates small deductive programs — recursion, data
variables and constants, comparison constraints, negation of EDB
predicates — and checks that evaluating through the compiled clause
plans (:mod:`repro.plan`) agrees with the paper-literal
product-then-select oracle (:mod:`repro.plan.reference`):

* round-by-round: one naive T_GP application derives equivalent
  relations per predicate;
* end-to-end: the engine's fixpoint models are ``equivalent()`` under
  both backends, for both strategies;
* columnar vs reference: the same programs through the columnar batch
  kernel (:mod:`repro.gdb.kernel`) are equivalent to the reference
  oracle.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import DeductiveEngine, parse_program
from repro.core.evaluation import ProgramEvaluator
from repro.gdb import parse_database
from repro.gdb.relation import GeneralizedRelation

EDB_TEXT = """
relation a[1; 1] { (6n; "x") where T1 >= 0; (4n+1; "y") where T1 >= 0; }
relation b[1; 1] { (3n+2; "x") where T1 >= 0; }
"""


def edb():
    return parse_database(EDB_TEXT)


@st.composite
def program_text(draw):
    """A small stratified program over the fixed EDB.

    Bodies draw positive atoms over ``a``/``b``/``p`` (so every body
    predicate has a schema), negation only over EDB predicates (so
    stratification always succeeds), and head data terms are constants
    or variables bound by a positive atom."""
    clauses = []
    n_clauses = draw(st.integers(1, 3))
    for index in range(n_clauses):
        head_pred = "p" if index == 0 else draw(st.sampled_from(["p", "q"]))
        n_atoms = draw(st.integers(1, 2))
        body = []
        positive_temporal = []
        positive_data = []
        for _ in range(n_atoms):
            pred = draw(st.sampled_from(["a", "b", "p"]))
            var = draw(st.sampled_from(["t", "u"]))
            offset = draw(st.integers(-2, 2))
            data = draw(st.sampled_from(['"x"', '"y"', "X", "Y"]))
            body.append("%s(%s; %s)" % (pred, _term(var, offset), data))
            positive_temporal.append(var)
            if data in ("X", "Y"):
                positive_data.append(data)
        if draw(st.booleans()):
            pred = draw(st.sampled_from(["a", "b"]))
            var = draw(st.sampled_from(positive_temporal))
            data = draw(st.sampled_from(['"x"', '"y"'] + positive_data))
            body.append(
                "not %s(%s; %s)"
                % (pred, _term(var, draw(st.integers(-1, 1))), data)
            )
        if draw(st.booleans()):
            left = draw(st.sampled_from(positive_temporal))
            right = draw(st.sampled_from(positive_temporal + ["0", "12"]))
            op = draw(st.sampled_from(["<", "<=", ">=", "="]))
            body.append("%s %s %s" % (left, op, _maybe_offset(draw, right)))
        head_var = draw(st.sampled_from(positive_temporal))
        head_data = draw(st.sampled_from(['"x"', '"y"'] + positive_data))
        head = "%s(%s; %s)" % (
            head_pred,
            _term(head_var, draw(st.integers(0, 3))),
            head_data,
        )
        clauses.append("%s <- %s." % (head, ", ".join(body)))
    return "\n".join(clauses)


def _term(var, offset):
    if offset == 0:
        return var
    return "%s %s %d" % (var, "+" if offset > 0 else "-", abs(offset))


def _maybe_offset(draw, right):
    if right in ("0", "12"):
        return right
    return _term(right, draw(st.integers(-2, 2)))


def _relations_equivalent(derived_a, derived_b, schemas):
    assert set(derived_a) == set(derived_b)
    for name in derived_a:
        relation_a = GeneralizedRelation(*schemas[name], tuples=derived_a[name])
        relation_b = GeneralizedRelation(*schemas[name], tuples=derived_b[name])
        assert relation_a.equivalent(relation_b), name


@settings(max_examples=40, deadline=None)
@given(program_text())
def test_naive_round_matches_reference(text):
    program = parse_program(text)
    database = edb()
    compiled = ProgramEvaluator(program, database, evaluation="compiled")
    reference = ProgramEvaluator(program, database, evaluation="reference")
    env = compiled.initial_environment()
    complements = compiled.complements_for(compiled.evaluators, env)
    derived_c = compiled.naive_round(env, complements=complements)
    derived_r = reference.naive_round(env, complements=complements)
    _relations_equivalent(derived_c, derived_r, compiled.schemas)
    # A second round from the grown environment exercises joins whose
    # intensional inputs are non-empty.
    for name, tuples in derived_c.items():
        env[name] = env[name].with_tuples(tuples)
    complements = compiled.complements_for(compiled.evaluators, env)
    _relations_equivalent(
        compiled.naive_round(env, complements=complements),
        reference.naive_round(env, complements=complements),
        compiled.schemas,
    )


@settings(max_examples=25, deadline=None)
@given(program_text(), st.sampled_from(["naive", "semi-naive"]))
def test_fixpoint_matches_reference(text, strategy):
    program = parse_program(text)

    def run(evaluation):
        return DeductiveEngine(
            program,
            edb(),
            strategy=strategy,
            evaluation=evaluation,
            max_rounds=60,
            patience=4,
            on_give_up="partial",
        ).run()

    model_c = run("compiled")
    model_r = run("reference")
    # A partial (gave-up) model depends on derivation order; only
    # completed fixpoints are canonical.
    assume(not model_c.stats.gave_up and not model_r.stats.gave_up)
    assert model_c.predicates() == model_r.predicates()
    for name in model_c.predicates():
        assert model_c.relation(name).equivalent(model_r.relation(name)), name


@settings(max_examples=15, deadline=None)
@given(program_text(), st.sampled_from(["naive", "semi-naive"]))
def test_columnar_kernel_matches_reference(text, strategy):
    """Columnar vs reference: the compiled model, whose operators run
    through the batch kernel, must stay equivalent to the paper-literal
    oracle."""
    program = parse_program(text)

    def run(evaluation):
        return DeductiveEngine(
            program,
            edb(),
            strategy=strategy,
            evaluation=evaluation,
            max_rounds=60,
            patience=4,
            on_give_up="partial",
        ).run()

    columnar = run("compiled")
    oracle = run("reference")
    assume(not columnar.stats.gave_up and not oracle.stats.gave_up)
    assert columnar.predicates() == oracle.predicates()
    for name in columnar.predicates():
        assert columnar.relation(name).equivalent(oracle.relation(name)), name

"""Rendering compiled plans and fingerprinting them.

The ``repro explain`` CLI subcommand prints, per clause, every
compiled variant as a numbered pipeline, then one line per predicate
whose shift recursion closes at acceptance (:mod:`repro.core.shift`);
:func:`plan_fingerprint` hashes the same rendering, so the fingerprint
changes exactly when a plan-visible compilation decision changes —
checkpoints store it and refuse to resume under a different plan
(bit-identical replay).
"""

from __future__ import annotations

import hashlib

from repro.plan.operators import CarrierStep


#: How each join-like operator prefixes its source predicate (``~``
#: marks a complement).
_KINDS = {
    "join": "scan",
    "anti-join": "anti-join",
    "complement-join": "complement-join ~",
}


def _format_step(step, number):
    if isinstance(step, CarrierStep):
        line = "%d. carriers [%s]" % (number, ", ".join(step.names))
    else:
        kind = _KINDS[step.op]
        line = "%d. %s %s -> [%s]" % (
            number,
            kind,
            step.predicate,
            ", ".join(step.temporal_vars),
        )
        details = []
        for column, value in step.const_sels:
            details.append("data[%d] = %r" % (column, value))
        for first, dup in step.eq_sels:
            details.append("data[%d] = data[%d]" % (first, dup))
        for bound, local in step.match_pairs:
            details.append("match col %d ~ data[%d]" % (bound, local))
        if details:
            line += " where " + ", ".join(details)
    if step.atoms:
        line += " apply " + " & ".join(str(atom) for atom in step.atoms)
    return line


def format_variant(variant, label):
    """Render one compiled pipeline as indented text lines."""
    lines = ["  plan %s:" % label]
    for number, step in enumerate(variant.steps, 1):
        lines.append("    " + _format_step(step, number))
    joins = [
        "%s %s" % (step.predicate, step.fast_path)
        for step in variant.steps
        if not isinstance(step, CarrierStep)
    ]
    if joins:
        lines.append("    fast path: " + ", ".join(joins))
    projection = variant.projection
    head_cols = ", ".join(
        variant.columns[index] if not offset
        else "%s%+d" % (variant.columns[index], offset)
        for index, offset in zip(projection.keep_temporal, projection.shifts)
    )
    parts = ["    -> project [%s" % head_cols]
    if projection.keep_data or projection.constant_slots:
        rendered = {}
        for slot, value in projection.constant_slots:
            rendered[slot] = repr(value)
        data_iter = iter(projection.keep_data)
        _, data_arity = projection.head_schema
        data_cols = []
        for slot in range(data_arity):
            if slot in rendered:
                data_cols.append(rendered[slot])
            else:
                name = variant.data_names[next(data_iter)]
                data_cols.append(name if name is not None else "?")
        parts.append("; " + ", ".join(data_cols))
    parts.append("]")
    lines.append("".join(parts))
    return lines


def format_plan(plan):
    """Render every variant of one :class:`ClausePlan`."""
    lines = ["clause: %s" % plan.normalized]
    for key in sorted(plan.variants, key=lambda k: (k is not None, k)):
        variant = plan.variants[key]
        label = "naive" if key is None else "semi-naive, delta @ body position %d" % key
        lines.extend(format_variant(variant, label))
    return "\n".join(lines)


def format_program_plans(plans, shifts=None):
    """Render the plans of a whole program (one block per clause), and
    a last block with one line per accelerated predicate of ``shifts``
    (``{predicate: ShiftRecursion}``) when there are any."""
    blocks = [format_plan(plan) for plan in plans]
    if shifts:
        blocks.append(
            "\n".join(shifts[name].describe(name) for name in sorted(shifts))
        )
    return "\n\n".join(blocks)


def plan_fingerprint(plans, shifts=None):
    """A stable digest of the compiled plans and accelerated predicates:
    sha256 over the full textual rendering.  Recorded in checkpoints so
    a resume under different plans (different join order, pushdown,
    shift closure, …) is rejected instead of silently diverging."""
    digest = hashlib.sha256()
    digest.update(format_program_plans(plans, shifts).encode("utf-8"))
    return digest.hexdigest()

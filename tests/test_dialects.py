"""The edit rule both sides of the wire share: ``dialects.splice`` writes an
edited text and ``dialects.read_edit`` reads one, against an oracle that
edits the unit list itself."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from talescale.dialects import read_edit, splice

# A line break (Slurm lines, the LRM's output, whose PBS blocks span lines)
# and PBS's unit_start (the middleware's PBS units).
_SEPS = ["\n", "\nJob Id:"]

# Units that hold one another ("1" in "11", a sacct line in a longer one),
# PBS blocks, the empty unit, and short texts of the separators' characters.
_UNITS = st.one_of(
    st.sampled_from(["1", "11", "1|RUNNING|0:0", "11|RUNNING|0:0", "",
                     " 1.c\n    job_state = Q", " 11.c\n    job_state = Q"]),
    st.text(alphabet="1 .c|\nJob Id:=", max_size=10))
_EDITS = st.lists(st.tuples(_UNITS, st.none() | _UNITS), max_size=5)

_PBS_Q = " 1.c\n    job_state = Q"
_PBS_KILLED = " 1.c\n    job_state = F\n    exit_status = 271"


def _text(sep, units):
    """A text of ``units``: framed by a line break, each follows ``sep``."""
    return sep[1:] + sep.join(units)


def _no_sep(sep, unit):
    while sep in unit:
        unit = unit.replace(sep, "")
    return unit


@settings(max_examples=1000, deadline=None)
@given(sep=st.sampled_from(_SEPS), units=st.lists(_UNITS, min_size=1, max_size=8),
       edits=_EDITS, added=st.lists(_UNITS, max_size=3))
# a unit named twice: neither edit may pick one of them
@example(sep="\n", units=["1|R", "2|R", "1|R"], edits=[("1|R", "1|F")], added=[])
@example(sep="\n", units=["1|R", "2|R", "1|R"], edits=[("1|R", None)], added=[])
# one unit inside another: an edit of "1" touches no part of "11"
@example(sep="\n", units=["11|R", "2|R"], edits=[("1|R", "1|F")], added=["3|R"])
@example(sep="\n", units=["11", "1"], edits=[("1", None)], added=[])
# a PBS block replaced by a longer one, another cut, and a block added
@example(sep="\nJob Id:", units=[" 2.c\n    job_state = R", _PBS_Q, " 3.c\n    job_state = Q"],
         edits=[(_PBS_Q, _PBS_KILLED), (" 3.c\n    job_state = Q", None)],
         added=[" 4.c\n    job_state = Q"])
# overlapping edits of one unit, and a cut of an absent one
@example(sep="\n", units=["1", "2"], edits=[("1", "3"), ("1", None)], added=[])
@example(sep="\nJob Id:", units=[_PBS_Q], edits=[(" 2.c", None)], added=[])
def test_read_edit_reads_what_splice_writes(sep, units, edits, added):
    units = [_no_sep(sep, unit) for unit in units]
    edits = [(_no_sep(sep, unit), new if new is None else _no_sep(sep, new))
             for unit, new in edits]
    added_text = "".join(sep + _no_sep(sep, unit) for unit in added)
    old = _text(sep, units)
    times, edited = Counter(units), Counter(unit for unit, _ in edits)
    # the rule: a unit to cut occurs once, one to replace at most once, and
    # no unit is edited twice
    if any(times[unit] > 1 or (new is None and not times[unit]) or (times[unit] and edited[unit] > 1)
           for unit, new in edits):
        assert splice(old, sep, edits) is None
        assert read_edit(sep, old + added_text, old, edits) is None
        return
    new_of = {unit: new for unit, new in edits if times[unit]}
    left = [unit if unit not in new_of else new_of[unit] for unit in units
            if unit not in new_of or new_of[unit] is not None]
    spliced = splice(old, sep, edits)
    assert spliced == (_text(sep, left) if left else "")
    if left:  # an empty text reads as one empty unit
        assert read_edit(sep, spliced + added_text, old, edits) == (
            [(new_of[unit], new_of[unit]) for unit in units if new_of.get(unit) is not None],
            added_text)

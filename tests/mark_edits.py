"""Edits of an event log that the paper's inert-mark lemmas say never matter.

Each returns a new log with the same header; replaying it from a state
warmed through the history must give the same sites as replaying the
original.  Not collected by pytest (the name does not match ``test_*.py``).
"""

from coopsim import graphical as g


def without_self_dotted(log: g.EventLog) -> g.EventLog:
    """Delete every dot-arrow whose dot is its own target: its dot sits on
    the birth site, which must be empty, so it can never fire."""
    return log.with_marks(
        m for m in log.marks if not (m.kind == g.DOT_ARROW and m.dot == m.target)
    )


def sterile_births_blocked(log: g.EventLog) -> g.EventLog:
    """Take the cooperator birth away from every sterile dot-arrow of the window.

    In an equal-rate log a dot-arrow whose dot is not its target also lets
    a defector source through, so it becomes a ``d_arrow`` with the same
    time, target and source; a self-dotted one carries no birth and is
    dropped.
    """
    sterile = {
        i for i, m in log.window_marks() if m.kind == g.DOT_ARROW and g.classify_sterile(log, i)
    }
    marks = []
    for i, m in enumerate(log.marks):
        if i not in sterile:
            marks.append(m)
        elif m.dot != m.target:
            marks.append(g.Mark(m.time, g.D_ARROW, m.target, m.source))
    return log.with_marks(marks)

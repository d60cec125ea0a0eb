"""Shared error types and the one cost check behind every resource refusal.

An operation predicts its work in units before it starts: one unit per mask
bit, sign byte or inner-loop step, and 16 per Python object it holds, such
as a per-path list or tuple entry, a hull member or a Fraction elimination
step.  `charge` refuses a prediction over the budget.
"""

BUDGET = 1 << 24


class ResourceLimitError(RuntimeError):
    """A computation would exceed the library's desk-scale bounds.

    The message names the operation, its predicted units and the budget.
    """


def charge(units: int, what: str) -> None:
    """Refuse `what` when its predicted `units` exceed the budget."""
    if units > BUDGET:
        raise ResourceLimitError(f"{what} costs {units} units, over the budget of {BUDGET}")

"""The count planner against a counts-only run of the step loop, for every now up to 2^14 at budgets 1-64."""

import pytest

from gfstore.record import PROVENANCE_RING, level_quotas, next_step, plan_counts

LAST_NOW = 1 << 14
BLOCKS = (2, 3, 7, 64, 500)


def counts_only_run(budget: int, rows: int):
    """The step loop of ``SummaryRecord._curate`` under untuned rules, on counts alone, one row at a time from empty.

    Returns, per now, the counts per level and the merges per level so far
    with the number of events so far; every event; and the level count at
    the first promotion, or None.  A merge on a dyadic layout joins the
    oldest pair of level k, which starts where the coarser levels end.  The
    run stops before its first promotion, which leaves the dyadic layout.
    """
    lengths = [0]
    quotas = level_quotas(budget, 1)
    merges = [0]
    events = []
    trace = [(tuple(lengths), tuple(merges), 0)]
    slots = 0
    for _ in range(rows):
        lengths[0] += 1
        slots += 1
        while slots > budget:
            slots -= 1
            k, promote = next_step(lengths, quotas)
            if promote:
                return trace, events, len(lengths)
            t0 = sum(n << j for j, n in enumerate(lengths[k + 1 :], k + 1))
            lengths[k] -= 2
            if k + 1 == len(lengths):
                lengths.append(0)
                merges.append(0)
                quotas = level_quotas(budget, len(lengths))
            lengths[k + 1] += 1
            merges[k] += 1
            events.append((k, 0, k + 1, t0, t0 + (2 << k)))
        trace.append((tuple(lengths), tuple(merges), len(events)))
    return trace, events, None


@pytest.mark.parametrize("budgets", [range(1, 17), range(17, 41), range(41, 65)], ids=["1-16", "17-40", "41-64"])
def test_the_count_plan_is_the_step_loop_on_counts(budgets):
    for budget in budgets:
        trace, events, promoted_at = counts_only_run(budget, LAST_NOW)
        # budgets below 14 promote before now = 2^14, once the level count passes the budget
        assert promoted_at == (budget + 1 if budget < 14 else None)
        for block in BLOCKS:
            for start in range(0, len(trace), block):
                counts, merged, seen = trace[start]
                plan = plan_counts(counts, block, budget)
                if start + block >= len(trace):  # the block runs past now = 2^14, or holds the first promotion
                    assert plan is None or promoted_at is None, (budget, block, start)
                    continue
                after, merged_after, seen_after = trace[start + block]
                assert plan is not None, (budget, block, start)
                new_counts, merges, ring = plan
                assert new_counts == list(after), (budget, block, start)
                was = merged + (0,) * (len(merged_after) - len(merged))
                assert merges == [b - a for a, b in zip(was, merged_after)], (budget, block, start)
                assert ring == events[max(seen, seen_after - PROVENANCE_RING) : seen_after], (budget, block, start)


def test_the_plan_declines_a_layout_over_budget_and_a_promotion():
    assert plan_counts([5], 2, 4) is None  # more slots than the budget before the block
    assert plan_counts([1, 0, 1], 2, 2) is None  # the second row finds no pair to merge and promotes
    # [0, 2) [2, 3) and two rows: [0, 2) [2, 4) [4, 5)
    assert plan_counts([1, 1], 2, 3) == ([1, 2], [1, 0], [(0, 0, 1, 2, 4)])

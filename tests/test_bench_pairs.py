"""The claim rule of ``scripts/bench_pairs.py --claim`` and its per-run
resource deltas, on made-up runs."""
import resource
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from bench_pairs import child_usage, claim_verdict, pair_record  # noqa: E402

PARENT = [48.0, 49.0, 50.0, 51.0, 52.0, 48.5, 49.5, 50.5, 51.5, 50.0]  # q3 - q1 = 2.0
NO_FAILURES = {"parent": 0.0, "change": 0.0}


def test_pair_record_counts_wins_losses_and_ties_in_the_metric_direction():
    assert pair_record([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], lower=True) == (1, 1, 1)
    assert pair_record([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], lower=False) == (1, 1, 1)


def test_a_gain_on_every_pair_beyond_the_quartile_distance_is_met():
    met, reasons = claim_verdict([v - 5.0 for v in PARENT], PARENT, True, NO_FAILURES)
    assert met, reasons
    assert reasons.startswith("10 of 10 pairs won, 9 needed")


@pytest.mark.parametrize(
    "change, failed_share, why",
    [
        ([v - 1.0 for v in PARENT], NO_FAILURES, "median better by 1"),  # inside q3 - q1
        ([v - 5.0 for v in PARENT[:8]] + [60.0, 60.0], NO_FAILURES, "8 of 10 pairs won"),
        ([v - 5.0 for v in PARENT], {"parent": 0.0, "change": 0.01}, "failed share 0.01"),
        ([v + 5.0 for v in PARENT], NO_FAILURES, "0 of 10 pairs won"),
    ],
    ids=["inside_spread", "eight_of_ten", "more_failures", "worse"],
)
def test_a_claim_that_breaks_one_condition_is_not_met(change, failed_share, why):
    met, reasons = claim_verdict(change, PARENT, True, failed_share)
    assert not met
    assert why in reasons


def test_a_higher_is_better_metric_wins_by_rising():
    met, _ = claim_verdict([v + 5.0 for v in PARENT], PARENT, False, NO_FAILURES)
    assert met


def _rusage(stime: float, minflt: int) -> resource.struct_rusage:
    fields = [0] * 16
    fields[1], fields[6] = stime, minflt  # ru_stime, ru_minflt
    return resource.struct_rusage(fields)


def test_child_usage_is_the_fault_and_system_time_delta_of_two_readings():
    before, after = _rusage(1.25, 70_000), _rusage(2.0, 450_000)
    assert child_usage(before, after) == {"minflt": 380_000, "sys_s": 0.75}
    assert child_usage(after, after) == {"minflt": 0, "sys_s": 0.0}

"""Coverage-curve math shared by the figure reproductions.

The paper's Figures 1 and 4 are cumulative coverage curves: sort the
contributors (static instructions / unique repeatable instances) by their
contribution to dynamic repetition, then ask what fraction of contributors
accounts for a given fraction of the total.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple


def contributors_for_fraction(weights: Sequence[int], fraction: float) -> int:
    """Smallest number of largest-weight contributors covering ``fraction``.

    ``weights`` need not be sorted; zero weights never count as
    contributors.  Returns 0 when the total weight is 0.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    positive = sorted((w for w in weights if w > 0), reverse=True)
    total = sum(positive)
    if total == 0:
        return 0
    target = total * fraction
    covered = 0
    for index, weight in enumerate(positive, start=1):
        covered += weight
        if covered >= target - 1e-9:
            return index
    return len(positive)


#: Figure 3's bucket boundaries for unique-repeatable-instance counts.
INSTANCE_BUCKETS: Tuple[Tuple[int, int, str], ...] = (
    (1, 1, "1"),
    (2, 10, "2-10"),
    (11, 100, "11-100"),
    (101, 1000, "101-1000"),
    (1001, 1 << 62, ">1000"),
)


def bucket_label(instance_count: int) -> str:
    """Figure 3 bucket for a static instruction's unique-instance count."""
    for low, high, label in INSTANCE_BUCKETS:
        if low <= instance_count <= high:
            return label
    raise ValueError(f"instance count must be >= 1, got {instance_count}")


def bucket_shares(per_static: Dict[str, int]) -> Dict[str, float]:
    """Normalize per-bucket weights into shares of the total."""
    total = sum(per_static.values())
    if total == 0:
        return {label: 0.0 for _, _, label in INSTANCE_BUCKETS}
    return {
        label: per_static.get(label, 0) / total for _, _, label in INSTANCE_BUCKETS
    }

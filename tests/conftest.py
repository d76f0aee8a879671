from __future__ import annotations

import json
from pathlib import Path

import pytest

from codedmr import (
    fano_matrix,
    format_cover,
    man_cover,
    man_matrix,
    parse_cover,
    search_cover,
    t_subset_cover,
    t_subset_matrix,
    transversal_cover,
    transversal_matrix,
)

DATA = Path(__file__).parent / "data"


def label_cover(pairs):
    """The cover whose member s matches the row labels ``pairs[s][0]`` in
    order with the column labels ``pairs[s][1]``, built by writing its
    text and parsing it."""
    lines = [str(len(pairs))]
    lines += [" ".join([str(len(rows)), *rows, *cols]) for rows, cols in pairs]
    return parse_cover("\n".join(lines) + "\n")


def cover_members(cover):
    """Each member's (row labels, column labels), as tuples in member
    order, read back from the cover's text."""
    members = []
    for line in format_cover(cover).splitlines()[1:]:
        size, *labels = line.split()
        members.append((tuple(labels[: int(size)]), tuple(labels[int(size) :])))
    return tuple(members)


def plan_pairs(plan):
    """Each member's (coded, uncoded) sender labels, as tuples in member
    order, read back from the plan's JSON."""
    payload = json.loads(plan.to_json())
    pairs = (payload[str(i)] for i in range(len(payload)))
    return tuple((pair["coded"], pair["uncoded"]) for pair in pairs)


def build_suite():
    """Every construction the verification suite runs against.

    Subset placements for K <= 8 and all r, the Fano plane, t-subset
    schemes for v <= 8, and transversal designs for n in {2, 3, 5}.
    """
    items = []
    for K in range(2, 9):
        for r in range(1, K):
            m = man_matrix(K, r)
            items.append((f"man(K={K},r={r})", m, man_cover(m)))
    m = fano_matrix()
    items.append(("fano", m, search_cover(m, 3, mode="exact")))
    for v in range(2, 9):
        for t in range(1, v):
            m = t_subset_matrix(v, t)
            items.append((f"tsubset(v={v},t={t})", m, t_subset_cover(m)))
    for n in (2, 3, 5):
        for k in range(2, n + 1):
            m = transversal_matrix(k, n)
            items.append((f"transversal(k={k},n={n})", m, transversal_cover(m)))
    return items


@pytest.fixture(scope="session")
def suite():
    return build_suite()


@pytest.fixture(scope="session")
def fano_pair():
    m = fano_matrix()
    return m, search_cover(m, 3, mode="exact")

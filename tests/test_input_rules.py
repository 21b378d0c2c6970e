"""Each input rule that several routes share is checked by one function.

For each rule, every package function that refuses an input by it is
called with such an input: each raises the rule's one message from the
rule's one check, the last frame of the traceback.  The rules whose copies
read differently (integer entries, a partition's order, F_j's index) are
covered here, where ``tests/test_readers.py``'s guard lint, which compares
the text of conditions, cannot see them.  So are the caps that library
routes check too, and the edgeless graph at t = n: the CLI refuses each
before any work with the same message as the library."""

import pytest

from snspectra import cli, reports
from snspectra.bounds import cross_hoffman_bound, hoffman_bound
from snspectra.characters import mn_character
from snspectra.families import (
    Family,
    agreement_graph,
    family_B,
    family_B_size_formula,
    family_F,
    family_F_size_formula,
    family_G,
    t_coset,
    verify,
)
from snspectra.partitions import _dimension, check_partition, classify, dimension, partitions_of
from snspectra.perms import derangement_count, perm_rows
from snspectra.search import max_independent_set
from snspectra.spectrum import brute_force_spectrum, eigenvalue, generating_classes
from snspectra.weightopt import optimize_bound


def refusal(call, check: str) -> str:
    """The message of the ValueError that ``call()`` raises, asserting that
    ``check`` raised it."""
    with pytest.raises(ValueError) as info:
        call()
    assert info.traceback[-1].name == check
    return str(info.value)


def cli_refusal(monkeypatch, capsys, command: str) -> str:
    """The stderr of ``command``, asserting that it exits 2 with no output
    and enters no report builder."""
    for name in BUILDERS + ("family_members_text",):
        monkeypatch.setattr(reports, name, lambda *a, name=name: pytest.fail(f"entered {name}"))
    code = cli.main(command.split())
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    return err


# 1: t in 1..n, at n = 5
T_ROUTES = {
    "spectrum.generating_classes": lambda t: generating_classes(5, t),
    "spectrum.eigenvalue": lambda t: eigenvalue((3, 2), t),
    "families.verify": lambda t: verify(t_coset([(1, 1)], 5), t),
    "families.agreement_graph": lambda t: agreement_graph(5, t),
}


@pytest.mark.parametrize("t", [0, 6])
@pytest.mark.parametrize("route", T_ROUTES)
def test_t_outside_1_to_n(route, t):
    message = refusal(lambda: T_ROUTES[route](t), "check_t")
    assert message == f"need 1 <= t <= n, got t={t}, n=5"


# every command that takes (n, t), at a degree it serves
T_COMMANDS = ["spectrum --n 5", "hoffman --n 5", "wopt --n 5", "search --n 5", "families --family B --n 8"]
BUILDERS = ("spectrum_report", "hoffman_report", "wopt_report", "search_report", "family_report")


@pytest.mark.parametrize("above", [False, True], ids=["t=0", "t=n+1"])
@pytest.mark.parametrize("command", T_COMMANDS)
def test_every_n_t_command_refuses_t_outside_1_to_n_before_its_report(
    capsys, monkeypatch, command, above
):
    n = int(command.split()[-1])
    t = n + 1 if above else 0
    err = cli_refusal(monkeypatch, capsys, f"{command} --t {t}")
    assert err == f"error: need 1 <= t <= n, got t={t}, n={n}\n"


# 2: a nonnegative degree; perm_rows and t_coset used to reach numpy's
# "negative dimensions are not allowed"
DEGREE_ROUTES = {
    "partitions.partitions_of": lambda: partitions_of(-1),
    "perms.derangement_count": lambda: derangement_count(-1),
    "perms.perm_rows": lambda: perm_rows(-1),
    "families.t_coset": lambda: t_coset([], -1),
}


@pytest.mark.parametrize("route", DEGREE_ROUTES)
def test_a_negative_degree(route):
    message = refusal(DEGREE_ROUTES[route], "check_degree")
    assert message == "a degree n must be nonnegative (got n=-1)"


# 3: integer entries, 2.0 refused; the message names what holds them
INTEGER_ROUTES = {
    "partitions.check_partition": (
        lambda: check_partition((2.0, 1)),
        "partition (2.0, 1) is not a tuple of integers",
    ),
    "partitions.dimension": (
        lambda: dimension((2.0, 1)),
        "partition (2.0, 1) is not a tuple of integers",
    ),
    "characters.mn_character": (
        lambda: mn_character((2, 1), (2.0, 1)),
        "partition (2.0, 1) is not a tuple of integers",
    ),
    "perms.perm_rows": (
        lambda: perm_rows(3, [(1, 2.0)]),
        "pin (1, 2.0) is not a pair of integers",
    ),
    "families.Family": (
        lambda: Family(3, "rows", [(1, 2, 3), (2.0, 1, 3)]),
        "member (2.0, 1, 3) is not a row of integers",
    ),
}


@pytest.mark.parametrize("route", INTEGER_ROUTES)
def test_an_entry_that_is_not_an_integer(route):
    call, message = INTEGER_ROUTES[route]
    assert refusal(call, "integer_entries") == message


# 4: a partition's order
ORDER_ROUTES = {
    "partitions.check_partition": lambda: check_partition((1, 2)),
    "partitions.dimension": lambda: dimension((1, 2)),
    "partitions._dimension": lambda: _dimension.__wrapped__((1, 2)),  # past the memo
    "partitions.classify": lambda: classify((1, 2), 1),
}


@pytest.mark.parametrize("route", ORDER_ROUTES)
def test_parts_out_of_order(route):
    assert refusal(ORDER_ROUTES[route], "check_partition") == "not a partition: (1, 2)"


# 5: F_j's index j in 1..4
INDEX_ROUTES = {
    "families.family_F": lambda: family_F(5, 8),
    "families.family_G": lambda: family_G(5, 8),
    "families.family_F_size_formula": lambda: family_F_size_formula(5, 8),
}


@pytest.mark.parametrize("route", INDEX_ROUTES)
def test_an_index_of_F_outside_1_to_4(route):
    message = refusal(INDEX_ROUTES[route], "_f_rule")
    assert message == "families F_j and G_j: j must be 1..4, got 5"


# 6: B and F_j from n = 7
SEVEN_ROUTES = {
    "families.family_B": lambda: family_B(6),
    "families.family_F": lambda: family_F(1, 6),
    "families.family_B_size_formula": lambda: family_B_size_formula(6),
}


@pytest.mark.parametrize("route", SEVEN_ROUTES)
def test_B_and_F_below_seven(route):
    message = refusal(SEVEN_ROUTES[route], "_from_seven")
    assert message == "families B and F_j are defined for n >= 7 (got n=6)"


# 7: the ratio bound x/(d + x) N needs d > 0
RATIO_ROUTES = {
    "bounds.hoffman_bound": lambda: hoffman_bound(0, -1, 12),
    "bounds.cross_hoffman_bound": lambda: cross_hoffman_bound(0, 1, 12),
}


@pytest.mark.parametrize("route", RATIO_ROUTES)
def test_a_ratio_bound_of_a_degree_below_one(route):
    message = refusal(RATIO_ROUTES[route], "cross_hoffman_bound")
    assert message == "ratio bound nu/(d + nu) * N: degree d must be positive (got d=0)"


# 8-11: the caps that library routes check too, and the edgeless graph at
# t = n, where no eigenvalue bound applies, as check: (its one message, the
# library routes that make it, commands that it refuses before any work)
CAP_RULES = {
    "check_row_degree": (
        "int8 rows: n capped at 127 by ROW_DEGREE_CAP (got n=128)",
        {
            "perms.perm_rows": lambda: perm_rows(128),
            "families.Family": lambda: Family(128, "x", []),
        },
        ["families --family 2coset --n 128"],
    ),
    "check_graph_degree": (
        "explicit graphs capped at 7 by GRAPH_CAP (got n=8)",
        {
            "families.agreement_graph": lambda: agreement_graph(8, 2),
            "search.max_independent_set": lambda: max_independent_set(8, 2),
            "spectrum.brute_force_spectrum": lambda: brute_force_spectrum(8, 2),
        },
        ["search --n 8", "spectrum --n 8 --verify"],
    ),
    "check_pairwise": (
        "pairwise scans capped at 12000 by PAIRWISE_CAP (got 40320)",
        {"families.verify": lambda: verify(Family(8, "S_8", perm_rows(8)), 2)},
        ["families --family 2coset --n 10 --verify-independence"],
    ),
    "check_edges": (
        "the generating set is empty (no permutation of degree 5 has exactly 4 fixed "
        "points), so no eigenvalue bound applies",
        {"weightopt.optimize_bound": lambda: optimize_bound(5, 5)},
        ["hoffman --n 5 --t 5", "wopt --n 5 --t 5"],
    ),
}


@pytest.mark.parametrize(
    "check,route", [(check, r) for check, (_, routes, _) in CAP_RULES.items() for r in routes]
)
def test_a_library_route_past_a_cap_or_at_t_equal_to_n(check, route):
    message, routes, _ = CAP_RULES[check]
    assert refusal(routes[route], check) == message


@pytest.mark.parametrize(
    "check,command", [(check, c) for check, (_, _, commands) in CAP_RULES.items() for c in commands]
)
def test_a_command_past_a_cap_or_at_t_equal_to_n(capsys, monkeypatch, check, command):
    assert cli_refusal(monkeypatch, capsys, command) == f"error: {CAP_RULES[check][0]}\n"


# 12: a pin of perm_rows is a pair; (1, 2, 3) used to reach Python's own
# "dictionary update sequence element #0 has length 3; 2 is required"
PIN_ROUTES = {
    "perms.perm_rows": lambda: perm_rows(4, [(1, 2, 3)]),
    "families.t_coset": lambda: t_coset([(1, 2, 3)], 4),
}


@pytest.mark.parametrize("route", PIN_ROUTES)
def test_a_pin_that_is_not_a_pair(route):
    message = refusal(PIN_ROUTES[route], "perm_rows")
    assert message == "a pin is a pair (i, j) with s(i) = j (got [(1, 2, 3)])"

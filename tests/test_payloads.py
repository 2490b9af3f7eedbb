"""Payload pins: the CSV of each experiment on a small fixed config, with its
``config_digest`` column dropped, must keep the sha256 recorded here.

The digest column is left out so that a change to the config's canonical form
(which renames the files and restamps every row) does not hide or fake a change
to the numbers.  Any other change to these bytes is a change to the results
and must be explained when the pins are updated.  The pins were taken with
Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; the coupling pins depend on
numpy's hypergeometric sampler and the profile pins on its floating-point
arithmetic, so another numpy may need new pins.
"""

import hashlib
import json

import pytest

from blmix.config import parse_config, render_csv, run

PINS = {
    "schedule": (
        {"experiment": "schedule", "n_grid": [100, 1000, 1_000_000],
         "lambda": 0.25},
        "d48a281664e47a710ccfe17d6512edc5759048d8d3d61d33c07303d99c1789b1"),
    # all_states at n=40; untrimmed and trimmed state_zero at n=700, 5000.
    # Retaken when the all-states profile began to evolve only the rows
    # x <= n/2 (the others are their colour swaps): 26 of the 30 d(t) at
    # n=40 moved in their last digits, by at most 1.1e-16.
    # tests/test_chain.py::test_all_states_half_rows_match_every_row checks
    # the profile against a loop over every row within 1e-14.
    # Retaken again when each kernel row began to take its incoming reds as
    # the reflection of its outgoing reds' hypergeometric law, and the sparse
    # kernel to mirror the rows above n/2: d(t) moved in the last digits by
    # at most 1.1e-16 (27 of 30 at n=40, 33 of 39 at n=700, 35 of 43 at
    # n=5000) and lost_mass at n=5000 by at most 6.9e-31.
    # tests/test_chain.py::test_one_law_rows_match_two_law_rows checks the
    # rows against rows built from two laws within 1e-15.
    # Retaken again when the sparse kernel stopped storing the rows above
    # n/2 and began to step their mass through the rows of their colour
    # swaps, summed apart and added last: d(t) moved in the last digits by
    # at most 9.4e-17 (33 of 39 at n=700, 36 of 43 at n=5000; n=40 runs the
    # all-states profile and is unchanged) and lost_mass at n=5000 by at
    # most 2.4e-30.  tests/test_chain.py::
    # test_sparse_kernel_step_matches_kernel_matrix checks a step against
    # the full kernel matrix within 1e-15.
    "profile": (
        {"experiment": "profile", "n_grid": [40, 700, 5000], "lambda": 0.25},
        "01b8666e184bffc9adec620596a77d43d71f23c7c345719dcec5cfda7f35eb9e"),
    "mixtime": (
        {"experiment": "mixtime", "n_grid": [100, 200], "lambda": 0.3},
        "0e8f5cb214833685887e48ed42032f87a11f896a1c37c63993ecadfd1fc10837"),
    "sweep": (
        {"experiment": "sweep", "n_grid": [64, 128], "lambda": 0.2,
         "epsilons": [0.1, 0.5], "k_rule": "explicit", "k": 16},
        "9142d54ff5ac981e689889791b2947e53c22ce31cfbd8991439e07dc762aabb0"),
    # The coupling pins were retaken when hit replicas stopped being stepped:
    # the generator's draws then go to fewer replicas after the first hit,
    # so the curves change by sampling noise only.
    # tests/test_coupling.py::test_dropping_hit_replicas_matches_stepping_all
    # checks these four configs against a loop that steps every replica.
    # Each runs fewer than 2 * coupling.MIN_CHUNK replicas, so it is one
    # replica chunk drawing from the stream itself, and the pins held when
    # larger curves were split into chunks on worker threads.
    "coupling-tau_couple": (
        {"experiment": "coupling", "n": 200, "lambda": 0.25,
         "replicas": 2000, "master_seed": 7},
        "baff78f0584192e39f323028254c59e1c237cf9e0428aa9aff8d2826a3233fc2"),
    "coupling-tau1": (
        {"experiment": "coupling", "n": 400, "lambda": 0.25, "replicas": 1000,
         "kind": "tau1", "kappa1": 1.0, "master_seed": 8},
        "b14af44f36009e1fc26df588d6b8d01cc3ce56877d5927128a027b81c1263f81"),
    "coupling-tau3": (
        {"experiment": "coupling", "n": 400, "lambda": 0.25, "replicas": 1000,
         "kind": "tau3", "kappa3": 0.2, "master_seed": 9},
        "b74e12bc3feec8005620d55babc3933c32f8438de6386a66d9767c3754ab949d"),
    "coupling-tau4": (
        {"experiment": "coupling", "n": 400, "lambda": 0.25, "replicas": 1000,
         "kind": "tau4", "kappa4": 1.0, "master_seed": 10},
        "8b51fcda183cbb36d694f93b58b4c276e0f0d2c73f72b6d2d2d78b995e1dc992"),
    # Retaken when each kernel row began to take its incoming reds as the
    # reflection of its outgoing reds' law: exact_tv at n=1000 moved by
    # 4.2e-16, every other value is unchanged.
    # tests/test_chain.py::test_one_law_rows_match_two_law_rows checks the
    # rows against rows built from two laws within 1e-15.
    "approx": (
        {"experiment": "approx", "n_grid": [100, 1000], "lambda": 0.25},
        "9725b5336cab253748341d154b6d874c45722b3453914ad6a74d54f0594a95c0"),
    "lowerbound": (
        {"experiment": "lowerbound", "n_grid": [100, 100_000], "lambda": 0.25},
        "9c9cfb6a32db6c22b337ccc54f58407dcfc755b1b792f79ff29059c026cb5c62"),
}


def csv_without_digest(text: str) -> str:
    """The CSV with its last column, ``config_digest``, removed."""
    assert text.split("\r\n", 1)[0].endswith(",config_digest")
    return "\r\n".join(line.rsplit(",", 1)[0] for line in text.split("\r\n"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_payload_is_pinned(name):
    doc, sha = PINS[name]
    body = csv_without_digest(render_csv(run(parse_config(json.dumps(doc)))))
    assert hashlib.sha256(body.encode()).hexdigest() == sha

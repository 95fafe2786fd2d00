"""Documents whose period matrix gives no polarized structure.

Shared by the command-line tests, which check that each one is refused while
the document is read, and by the oracle test of the Hodge-Riemann relations,
which checks that the old and new validations refuse it for the same reason.
"""

I = {"re": "0", "im": "1"}
# phs payloads whose omega fails validation, with the subcommand run on each
# and the reason the message keeps
UNPOLARIZED_OMEGA = {
    "weight1-omega-real": ("refine", {"weight": 1, "omega": [["1"]]},
                           "Hodge pieces do not decompose the space"),
    "weight1-omega-minus-i": ("validate", {"weight": 1, "omega": [[{"re": "0", "im": "-1"}]]},
                              "metric is not positive definite"),
    "weight1-omega-not-symmetric": ("horizontal", {"weight": 1, "omega": [[I, "1"], ["0", I]]},
                                    "first bilinear relation fails"),
    "weight2-omega-zero": ("refine", {"weight": 2, "h20": 1, "h11": 1, "omega": [["0"]]},
                           "Hodge pieces do not decompose the space"),
}

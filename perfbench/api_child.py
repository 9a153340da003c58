"""graph-api child: the characteristic-matrix chain through the charmat API.

Usage: ``python api_child.py T.npy RESULT.json``

Loads one operator from ``.npy`` (no ``charmat.io``), runs
:func:`run_chain` once and writes its outcome plus ``command_s``, the
in-process time of the chain alone, to ``RESULT.json``.  The benchmark
also imports this module to replay the chain in-process under tracing, so
the charmat functions are looked up on ``charmat.graph`` at call time.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from charmat import graph


def run_chain(T: np.ndarray) -> dict:
    """``char_matrix`` -> identity suite -> oracle -> A9/A11 -> recover ``T``."""
    P = graph.char_matrix(T)
    ident = graph.verify_identities(T, P)
    oracle = P.blockwise_distance(graph.char_matrix_oracle(T))
    a9 = graph.adjoint_char_matrix(P).blockwise_distance(graph.char_matrix(T.conj().T))
    a11 = graph.inverse_char_matrix(P).blockwise_distance(graph.char_matrix(np.linalg.inv(T)))
    recovered = graph.operator_from_char_matrix(P)
    return {
        "all_pass": ident.all_pass,
        "identities": ident.residuals,
        "oracle": oracle,
        "A9": a9,
        "A11": a11,
        "recovery": float(np.linalg.norm(recovered - T) / np.linalg.norm(T)),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    T = np.load(argv[0])
    start = time.perf_counter()
    result = run_chain(T)
    result["command_s"] = time.perf_counter() - start
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

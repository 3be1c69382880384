"""Additivity of the Waring rank on sums of pairwise coprime monomials.

When the monomials of a form share no variables (and the degree is at
least 2), the rank of the sum is the sum of the ranks.  The decomposition
is built block by block and verified by exact expansion, and the result
round-trips through the JSON schema.
"""

import json

from waring import (
    decompose_form,
    parse_form,
    rank_coprime_sum,
    rank_monomial,
    verify_decomposition,
)
from waring.serialize import decomposition_from_json, dumps


def main():
    text = "x1^2*x2 + 2*x3^3 - 1/2*x4*x5*x6"
    form = parse_form(text)
    parts = [f"rk({m}) = {rank_monomial(m)}" for m in form.monomials]
    print(f"F = {text}")
    print("  " + ",  ".join(parts))
    print(f"  rank(F) = {rank_coprime_sum(form)}")

    dec = decompose_form(form)
    report = verify_decomposition(form, dec)
    print(f"  decomposition has {len(dec.terms)} terms; "
          f"expansion matches: {report.expansion_matches}; "
          f"all checks: {report.passed}")

    blob = dumps(dec)
    back = decomposition_from_json(json.loads(blob))
    print(f"  JSON round trip is exact: {back == dec} "
          f"({len(blob)} bytes, deterministic)")


if __name__ == "__main__":
    main()

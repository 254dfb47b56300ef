"""Survey the small-dimension search corpus.

Enumerates anti-pre-Lie tables over F2/F3 in dimension 2, lifts the F3 hits
to the rationals, and tabulates the second-cohomology dimension profile of
the lifted tables over their regular representations.

Usage: python scripts/survey_corpus.py
"""

import time
from collections import Counter

from antiprelie.algebra import AntiPreLieAlgebra
from antiprelie.cohomology import cohomology_spaces
from antiprelie.representation import regular_representation
from antiprelie.search import SearchSpec, rational_algebra_corpus, search_algebras, space_size


def main():
    for p in (2, 3):
        spec = SearchSpec(kind="algebra", dim=2, p=p)
        t0 = time.monotonic()
        found = search_algebras(spec)
        print(
            f"dim 2 over F{p}: {len(found)} verified tables out of "
            f"{space_size(spec)} candidates ({time.monotonic() - t0:.1f}s)"
        )

    t0 = time.monotonic()
    lifted = rational_algebra_corpus(2, p=3)
    print(f"rational lifts surviving re-verification: {len(lifted)} ({time.monotonic() - t0:.1f}s)")

    t0 = time.monotonic()
    profile = Counter()
    rigid = 0
    for table in lifted:
        alg = AntiPreLieAlgebra.verify(table)
        spaces = cohomology_spaces(alg, regular_representation(alg))
        profile[(spaces.z2_dim, spaces.b2_dim, spaces.h2_dim)] += 1
        if spaces.h2_dim == 0:
            rigid += 1
    print(f"cohomology profile over the regular representation ({time.monotonic() - t0:.1f}s):")
    for dims, count in sorted(profile.items()):
        print(f"  (Z2, B2, H2) = {dims}: {count} tables")
    print(f"tables with H2 = 0 (rigid): {rigid}")


if __name__ == "__main__":
    main()

"""Print the solution-count families and cross-check two routes.

Every row printed here comes out of the census's series pipeline;
the final section recomputes a slice of each row with the exhaustive
oracle to show the two independent routes agree.
"""

from quiddity import census
from quiddity.matrices import TARGETS
from quiddity.oracle import survey


def print_family(family, n_max, **kwargs):
    table = census.census_table(family, n_max, **kwargs)
    values = " ".join(str(table.entries[n]) for n in sorted(table.entries))
    print(f"{table.family:>8}: {values}")


def main():
    print("Whole-count rows, n = 0..12")
    for family in ("P", "Q", "Ptilde"):
        print_family(family, 12)

    print()
    print("Last-component refinements V(k), n = 0..10")
    for k in range(1, 6):
        print_family("V", 10, k=k)

    print()
    print("First-and-last refinements W(k,l), n = 0..10")
    for k, l in ((1, 1), (1, 2), (2, 2), (2, 3)):
        print_family("W", 10, k=k, l=l)

    print()
    print("Named-target counts by tuple size (size = n + 2)")
    for family in ("S", "T", "u", "v", "w", "x", "y"):
        print_family(family, 10)

    print()
    print("Dissection rows D, E, F")
    print_family("D", 10)
    print_family("E", 10)
    print_family("F", 10)

    print()
    print("Oracle cross-check at sizes 4..8: target -> census = search")
    for size in range(4, 9):
        sv = survey(size)
        for name in TARGETS:
            expected = census.count_solutions(name, size)
            got = sv.counts[name]
            flag = "ok" if expected == got else "MISMATCH"
            print(f"  size {size} {name:>5}: {expected} = {got}  {flag}")


if __name__ == "__main__":
    main()

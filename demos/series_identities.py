"""Walk through the generating-series identities numerically.

Each identity is stated, then both sides are expanded to order 12 and
compared coefficient by coefficient.  Everything is exact integer
arithmetic; a single wrong coefficient would print MISMATCH.
"""

from quiddity import census
from quiddity.series import TruncSeries

ORDER = 12


def show(name, lhs, rhs):
    verdict = "ok" if lhs == rhs else "MISMATCH"
    print(f"{name}: {verdict}")
    print(f"  lhs {list(lhs.coeffs)}")
    print(f"  rhs {list(rhs.coeffs)}")


def main():
    one = TruncSeries.one(ORDER)
    p = census.series_row("P", ORDER)
    q = census.series_row("Q", ORDER)
    p_inv = census.series_row("Ptilde", ORDER)
    u1 = census.series_row("U", ORDER, 1)
    v1 = census.series_row("V", ORDER, 1)
    w11 = census.series_row("W", ORDER, 1, 1)

    print(f"P  = {list(p.coeffs)}")
    print(f"Q  = {list(q.coeffs)}")
    print()

    denom_p = one.sub(p.mul(p).shift(3))
    show("P * (1 - X^3 P^2) = (1 - X^3 P^2) + X P^2",
         p.mul(denom_p), denom_p.add(p.mul(p).shift(1)))

    denom_q = one.sub(p.pow(3).shift(3))
    show("Q * (1 - X^3 P^3) = (1 - X^3 P^3) + X P^2",
         q.mul(denom_q), denom_q.add(p.mul(p).shift(1)))

    show("V(1) * P = Q - 1", v1.mul(p), q.sub(one))
    show("U(1) * P = P - 1", u1.mul(p), p.sub(one))
    show("P * W(1,1) * P = Q - 1", p.mul(w11).mul(p), q.sub(one))

    total_v = TruncSeries.zero(ORDER)
    total_u = TruncSeries.zero(ORDER)
    total_w = TruncSeries.zero(ORDER)
    for k in range(1, ORDER + 1):
        total_v = total_v.add(census.series_row("V", ORDER, k))
        total_u = total_u.add(census.series_row("U", ORDER, k))
        total_w = total_w.add(census.series_row("W", ORDER, 1, k))
    show("sum_k V(k) = Q - 1", total_v, q.sub(one))
    show("sum_k U(k) = P - 1", total_u, p.sub(one))
    show("sum_k W(1,k) = V(1)", total_w, v1)

    print()
    print("V(k) triangle spot checks: coefficient n of V(k)")
    print("  V(n) at n is always 1:",
          [census.series_row("V", ORDER, n).coeff(n) for n in range(1, ORDER + 1)])
    print("  V(n-1) at n is n - 1: ",
          [census.series_row("V", ORDER, n - 1).coeff(n) for n in range(2, ORDER + 1)])
    print("  V(k) at n for k > n:  ",
          [census.series_row("V", ORDER, n + 1).coeff(n) for n in range(1, ORDER)])


if __name__ == "__main__":
    main()

"""Literals of ``integral_reps``'s series in sigma at strides m = 1..CARDANO_MAX_STRIDE.

x = 4 R**m sigma / (1 + sigma)**2, R = 27/4, maps the unit disk |sigma| < 1 one-to-one onto
the plane cut along [R**m, inf), where S(n, m; x) is analytic; sigma = s(x / R**(m - 1)) with
the stride-1 map s. So S(n, m; x) = sum_j a_j(n) sigma**j, with the exact weight-0 row

    a_j(0) = sum_{k<=j} (-1)**(j-k) C(j+k-1, j-k) (4 R**m)**k / C(3mk, mk)

and, as x d/dx = sigma (1 + sigma) / (1 - sigma) d/dsigma at every stride,
j a_j(n) = 2 P_j - a_j(n - 1), P_j = sum_{i<=j} (-1)**(j-i) a_i(n - 1). Every a_j is
(-1)**(j+1) c_j with c_j >= 1, which this script checks, so the library holds the c_j.

For each stride it prints, in exact rational arithmetic (standard library only):

* the weight-3 row c_j(3), j = 1..K, in units of 2**-FIXED: floor(c_j 2**FIXED) at strides
  2..6; at stride 1 the correctly rounded binary64 c_j, the row the library has held since
  before the other strides, times 2**FIXED. K is the table length ``_s_terms(S_MAX, 8, m)``;
* the envelope: max_j c_j(n) for n = 3..8 over j <= ENVELOPE_TERMS, the j where it lies,
  and c_j(n) at j = ENVELOPE_TERMS, which shows every weight falling past its maximum
  (asymptotically c_j ~ log(j)**(n-1) / j); the rows past the table come from a fixed-point
  sum with 3 ENVELOPE_TERMS + 128 fraction bits, which the alternating weight-0 sum needs;
* the share of the terms k >= 2 of S(3, m; x) against the first on |x| <= R**m, which
  gives |S(n, m; x)| >= LOWER |x| / C(3m, m) on the closed disk for n >= 3.

Takes about fifteen minutes at the default ENVELOPE_TERMS = 2000 (the largest c_j(8) lies
at j = 232..260); the rows need only the envelope, which 400 terms already find.
Run: python3 tools/cardano_s_tables.py [ENVELOPE_TERMS]
"""

import math
import sys
from fractions import Fraction

CARDANO_MAX_STRIDE = 6
WEIGHTS = range(3, 9)
ENVELOPE_TERMS = 2000
FIXED = 60
S_MAX = 0.6
EPS = 2.0**-52
LOWER = 0.6


def exact_rows(m, terms):
    """a_j(n), n 0..8 and j 1..terms, as Fractions."""
    w = [
        Fraction(27 ** (m * k), 4 ** ((m - 1) * k) * math.comb(3 * m * k, m * k))
        for k in range(terms + 1)
    ]
    rows = [
        [
            sum((-1) ** (j - k) * math.comb(j + k - 1, j - k) * w[k] for k in range(1, j + 1))
            for j in range(1, terms + 1)
        ]
    ]
    for _ in range(8):
        p, row = Fraction(0), []
        for j, a in enumerate(rows[-1], start=1):
            p = a - p
            row.append((2 * p - a) / j)
        rows.append(row)
    return rows


def fixed_rows(m, terms):
    """|a_j(n)| 2**bits, n 0..8 and j 1..terms, floored in fixed point, and bits."""
    bits = 3 * terms + 128
    num, den = 27**m, 4 ** (m - 1)
    w, nk, dk = [0], 1, 1
    for k in range(1, terms + 1):
        nk, dk = nk * num, dk * den
        w.append((nk << bits) // (dk * math.comb(3 * m * k, m * k)))
    row = []
    for j in range(1, terms + 1):
        acc = 0
        for k in range(1, j + 1):
            t = math.comb(j + k - 1, j - k) * w[k]
            acc += -t if (j - k) & 1 else t
        row.append(acc)
    rows = [row]
    for _ in range(8):
        p, new = 0, []
        for j, a in enumerate(rows[-1], start=1):
            p = a - p
            new.append((2 * p - a) // j)
        rows.append(new)
    return [[abs(a) for a in r] for r in rows], bits


def table_terms(m, envelope):
    """_s_terms(S_MAX, n, m) at the largest n, as ``integral_reps`` forms it at stride m."""
    trunc = 3.0 * EPS * (27.0 / 4.0) ** m / (5 * math.comb(3 * m, m))
    r = S_MAX
    return max(
        max(1, math.ceil(math.log(trunc * (1.0 - r) / (e * (1.0 + r) ** 2)) / math.log(r)))
        for e in envelope
    )


def lower_share(m):
    """sum_{k>=2} R**(m(k-1)) C(3m, m) / (k**3 C(3mk, mk)) over k < 20000 (the rest is below
    1e-10), the largest share of the terms k >= 2 against the first on |x| <= R**m."""
    share = 0.0
    for k in range(2, 20000):
        share += math.exp(
            (k - 1) * m * math.log(6.75)
            - 3 * math.log(k)
            + math.lgamma(3 * m + 1) - math.lgamma(m + 1) - math.lgamma(2 * m + 1)
            - math.lgamma(3 * m * k + 1) + math.lgamma(m * k + 1) + math.lgamma(2 * m * k + 1)
        )
    return share


def weight_three_row(m, exact):
    """The literal row: c_j(3) in units of 2**-FIXED (see the module docstring)."""
    if m == 1:
        return [int(float(abs(a)) * 2.0**FIXED) for a in exact]
    return [math.floor(abs(a) * 2**FIXED) for a in exact]


def main():
    envelope_terms = int(sys.argv[1]) if len(sys.argv) > 1 else ENVELOPE_TERMS
    for m in range(1, CARDANO_MAX_STRIDE + 1):
        fixed, bits = fixed_rows(m, envelope_terms)
        envelope = []
        print(f"stride {m}:")
        for n in WEIGHTS:
            top = max(range(envelope_terms), key=fixed[n].__getitem__)
            most = (fixed[n][top] >> (bits - 60)) / 2.0**60
            envelope.append(math.ceil(most))
            last = (fixed[n][-1] >> (bits - 60)) / 2.0**60
            print(f"  n = {n}: max c_j {most:.6g} at j = {top + 1};"
                  f" c_j {last:.6g} at j = {envelope_terms}")
        terms = table_terms(m, envelope)
        exact = exact_rows(m, terms)
        for n in WEIGHTS:
            for j, a in enumerate(exact[n], start=1):
                assert (a > 0) == (j % 2 == 1) and abs(a) >= 1, (m, n, j)
        share = lower_share(m)
        assert share <= 1.0 - LOWER, (m, share)
        print(f"  envelope (ceilings): {tuple(map(float, envelope))}")
        print(f"  share of the terms k >= 2 at n = 3: {share:.4f}")
        print(f"  c_j(3) 2**{FIXED}, j = 1..{terms}:")
        print("  (" + ", ".join(map(str, weight_three_row(m, exact[3]))) + ",)")


if __name__ == "__main__":
    main()

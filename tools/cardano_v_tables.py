"""Literals of ``integral_reps``'s series in v = sqrt(1 - 4x/27) at the branch point x = 27/4.

Prints, each correctly rounded to binary64 from a 50-digit computation:

* b_k(2), k = 0..V_TERMS - 1: the Taylor coefficients in v of the weight-2 closed form
  S(2, 1; x) = 6 arccot((2 phi - 1)/sqrt3)**2 - log((phi**3 + 1)/(phi + 1)**3)**2 / 2,
  with phi**3 = (1 + v)/(1 - v), by the trapezoidal rule for the Cauchy integral on
  |v| = 1/2. arccot is written pi/2 - atan((2 phi - 1)/sqrt3): the principal
  atan(sqrt3/(2 phi - 1)) of the closed form jumps at phi = 1/2 (v = -7/9), inside the
  circle, while this form is analytic on |v| < 1.
* S(n, 1; 27/4), n = 3..8, the anchors b_0(n): the integral of
  Li_{n-1}(27/4 t (1-t)**2) / t over [0, 1], split where the argument touches 1.

It then checks the literals: the series for weights 3..8, from the recurrence
b_k(n) = -(2/k) sum_{i>=0} b_{k-2-2i}(n - 1) over these values, against the direct sum of
S(n, 1; x) at interior points, and the envelope max_k |b_k(n)| over n 3..8 and
k <= ENVELOPE_TERMS (from a second Cauchy integral, on |v| = 0.9). Last, it prints the
references of tests/test_integral_reps.py's BRANCH_REFERENCES: the series in v over all
160 coefficients at the binary64 points of its grid near 27/4, checked against the
quadrature of Li_{n-1} at n = 3 and 8.

Needs mpmath; takes about three minutes. Run: python3 tools/cardano_v_tables.py
"""

import cmath

import mpmath as mp

V_TERMS = 40
ENVELOPE_TERMS = 400
DIGITS = 50


def weight_two(v):
    p = ((1 + v) / (1 - v)) ** (mp.mpf(1) / 3)
    arccot = mp.pi / 2 - mp.atan((2 * p - 1) / mp.sqrt(3))
    log = mp.log(2) - mp.log(1 - v) - 3 * mp.log(1 + p)  # phi**3 + 1 = 2/(1 - v)
    return 6 * arccot**2 - log**2 / 2


def taylor(radius, terms, points):
    """b_k(2), k < terms, by the trapezoidal rule on |v| = radius."""
    radius = mp.mpf(radius)
    roots = [mp.expjpi(2 * mp.mpf(j) / points) for j in range(points)]
    values = [weight_two(radius * w) for w in roots]
    out = []
    for k in range(terms):
        acc = mp.fsum(values[j] * roots[(-j * k) % points] for j in range(points))
        out.append(mp.re(acc) / points / radius**k)
    return out


def anchor(n):
    x = mp.mpf(27) / 4
    nodes = [0, mp.mpf(1) / 6, mp.mpf(1) / 3, mp.mpf(2) / 3, 1]
    return mp.re(mp.quad(lambda t: mp.polylog(n - 1, x * t * (1 - t) ** 2) / t, nodes))


def weights(base, anchors):
    """b(n) for n = 3..8 from b(2) and the anchors, by the recurrence."""
    rows, prev = [], base
    for a in anchors:
        row, odd_even = [a, mp.mpf(0)], [mp.mpf(0), mp.mpf(0)]
        for k in range(2, len(base)):
            odd_even[k % 2] += prev[k - 2]
            row.append(-2 * odd_even[k % 2] / k)
        rows.append(row)
        prev = row
    return rows


def direct(n, x):
    total, term, k = mp.mpf(0), mp.mpf(1), 0
    while True:
        k += 1
        term *= x * k * (2 * k - 1) * 2 * k / ((3 * k - 2) * (3 * k - 1) * 3 * k)
        total += term / mp.mpf(k) ** n
        if abs(term) < mp.mpf(10) ** (-DIGITS - 5):
            return total


def quad_s(n, x):
    nodes = [0, mp.mpf(1) / 3, 1]
    return mp.quad(lambda t: mp.polylog(n - 1, x * t * (1 - t) ** 2) / t, nodes)


def branch_references(rows):
    """The grid points near 27/4 beyond rho = 0.995, as the test builds them in binary64."""
    rim = 27 / 4
    points = [
        (("near", d, t), complex(rim - d * cmath.exp(1j * t)) if t else complex(rim - d))
        for d in (1e-12, 1e-6, 1e-3, 0.05, 0.15)
        for t in (0.0, 0.7, 1.4)
    ]
    points += [(("rim", a), cmath.rect(rim, a)) for a in (1e-6, 1e-3, 0.02)]
    worst = 0
    print("BRANCH_REFERENCES = {")
    for key, x in points:
        if abs(x) <= 0.995 * rim:
            continue
        xm = mp.mpc(x.real, x.imag)
        v = mp.sqrt(4 * (mp.mpf(27) / 4 - xm) / 27)
        values = [mp.polyval(row[::-1], v) for row in rows]
        for n in (3, 8):
            worst = max(worst, abs(quad_s(n, xm) - values[n - 3]) / abs(values[n - 3]))
        print(f"    {key!r}: (")
        for value in values:
            print(f'        ("{mp.nstr(mp.re(value), 25)}", "{mp.nstr(mp.im(value), 25)}"),')
        print("    ),")
    print("}")
    print(f"against the quadrature: worst relative {mp.nstr(worst, 3)}")


def main():
    mp.mp.dps = DIGITS + 20
    anchors = [anchor(n) for n in range(3, 9)]
    # 160 terms, so that the check below sees no truncation: the Cauchy integral's
    # rounding grows like 2**k, hence the 60 guard digits
    mp.mp.dps = DIGITS + 60
    base = taylor(0.5, 160, 1024)
    print("b_k(2):", "(" + ", ".join(repr(float(b)) for b in base[:V_TERMS]) + ")")
    print("S(n, 1; 27/4), n = 3..8:", "(" + ", ".join(repr(float(a)) for a in anchors) + ")")
    for n, a in zip(range(3, 9), anchors):
        print(f"  S({n}, 1; 27/4) = {mp.nstr(a, 25)}")
    rows = weights(base, anchors)
    worst = 0
    for v in (mp.mpf("0.3"), mp.mpc("0.2", "0.15"), mp.mpc("0.1", "-0.05")):
        x = mp.mpf(27) / 4 * (1 - v * v)
        for n, row in zip(range(3, 9), rows):
            series = mp.polyval(row[::-1], v)
            worst = max(worst, abs(series - direct(n, x)) / abs(series))
    print(f"series against the direct sum at |v| <= 0.3: worst relative {mp.nstr(worst, 3)}")
    mp.mp.dps = 40
    far = weights(taylor(0.9, ENVELOPE_TERMS + 1, 4096), anchors)
    top = max((abs(b), k, n) for n, row in zip(range(3, 9), far) for k, b in enumerate(row))
    print(f"max |b_k(n)|, n 3..8, k <= {ENVELOPE_TERMS}: {mp.nstr(top[0], 6)} at k = {top[1]}")
    mp.mp.dps = DIGITS + 60
    branch_references(rows)


if __name__ == "__main__":
    main()

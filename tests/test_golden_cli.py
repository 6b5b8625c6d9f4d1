"""Golden CLI output: sha256 of stdout for a fixed invocation list.

The hashes were recorded before the route table and the domain rule were
consolidated; any byte of difference in values, error estimates, method
tags, work counts or formatting fails here. An intended output change must
update the hash and say so in CHANGES.md. The three S(3,2;20) folding/auto
and ``verify`` hashes were re-recorded when the near-rim polylog moved from
nested quadrature to the log-series expansion (last-bit changes only). The
n = 3 ``auto`` hashes at S(3,1;0.5) and S(3,2;20) were re-recorded when
``auto`` began to pick direct summation by its predicted term count; they
now equal the ``direct-sum`` hashes of the same points (S(3,1;0.5) no longer; see
below). The two direct-sum hashes at 0.9 R**m e**(0.7i), m = 8 and m = 60 (where the
term ratio pairs its factors because the 3m-factor products overflow), were recorded before
the term recurrence moved to ``math.prod``. Every ``direct-sum`` hash, and the
two n = 3 ``auto`` hashes that sum directly, were re-recorded when the
direct-sum rounding floor grew to cover the recurrence's drift along k (only
``abs_error_est`` moved). The two n = 3 ``folding`` hashes and ``verify`` were
re-recorded when folding at n >= 3 moved its inner route from quad-polylog to
quad-cardano (and verify gained the quad-cardano pairs); the three
``quad-cardano`` hashes were recorded with that route. The four
``quad-two-term`` hashes and ``verify`` were re-recorded when the two-term
integrals moved to the substitution u = limit * s**3 and the ``li`` series to
Horner's rule (last-bit changes in values and estimates, less work at n = 3);
the four ``pfq`` hashes when its flat error estimate became a running bound
(only ``abs_error_est`` moved). The three ``quad-cardano`` hashes, the two n = 3
``folding`` hashes and ``verify`` were re-recorded when the Cardano-root tail moved to
Horner sums with a term count fixed in advance (last-bit values, estimates, work); every
n = 2 ``closed-form``, ``folding`` and ``auto`` hash except those at the rim 6.75, and
the n = 2 ``table``, when ``s21`` added the rounding of sqrt(81 - 12x) to its estimate
(only ``abs_error_est`` moved). Every ``direct-sum`` hash and the two n = 3 ``auto`` hashes
that sum directly were re-recorded when direct summation moved to the block kernel (exact
stride-1 factors, ``math.fsum``): ``abs_error_est`` fell everywhere and the m = 60 real part
moved by one ulp; old -> new, by leading hex digits:

    S(2,1;0.5)      f9efee8e -> 6b01664a    S(2,1;6.6825)   8e296810 -> d627c449
    S(2,1;1+1i)     8d0b0fd1 -> 3ecaa5a4    S(2,2;20)       62d91461 -> d86959ee
    S(2,3;100)      dabc5dcf -> 0720ca86    S(0,1;0.5)      eb8658be -> 8138be3d
    S(3,1;0.5)      2f2422f0 -> b90ee746    (and its auto)
    S(3,2;20)       4308aff8 -> 20d0d31d    (and its auto)
    S(3,8;0.9 R**8 e**(0.7i))   c8c1b262 -> 1311fa95
    S(3,60;0.9 R**60 e**(0.7i)) 3c8bb212 -> f5a7f7c2

In the same change ``phi`` began to form 81 - 12x as (81 - 8x) - 4x, exact near the branch
point, and ``s21`` and ``s11`` dropped the rounding term again: the thirteen n = 2
``closed-form``, ``folding`` and ``auto`` hashes off the rim went back to the values they
had before that term (closed-form and auto at 0.5 bf175fa4 -> b1bfd002, at 6.6825
ad22fd30 -> 666a32c7, at 1+1i 67872e1e -> 68685257; folding at 0.5 b99fa38f -> d3adc2ea,
at 6.6825 b19cc54f -> c08f5947, at 1+1i cac2cf6e -> 5ccba444; folding and auto at
S(2,2;20) abba7de7 -> e73e2c2f and at S(2,3;100) 85b53ffd -> 6833fc5e), and the n = 2
``table`` (4240e93a -> 57dafe31) and ``verify`` (9f214b6a -> a38bb59a) moved with the exact
discriminant. The ``closed-form`` route became stride 1 only when the stride-m weight-2
closed form, a copy of ``fold(2, m, x, "closed-form")``, was deleted: the two
``closed-form`` hashes at S(2,2;20) and S(2,3;100) went (that request now exits 2 and
points at folding), and ``verify`` lost its 32 ``s2m-closed`` entries, 542 -> 510
(a38bb59a -> f49c9c42); every other entry kept its bits. When the Cardano-root tail began
to count its terms from the coefficients' k**(-5/2) decay (Robbins' bound), the three
``quad-cardano`` hashes and the two n = 3 ``folding`` hashes moved in ``work`` only (fewer
tail terms; values and estimates kept their bits): S(3,1;0.5) folding d15586b3 -> c21ac518,
S(3,2;20) folding 57b7f6ee -> 504ced30, S(3,1;6.75) d57c699c -> d527b7ea, S(4,1;-6.75)
b161d4c2 -> fcce98ef, S(3,1;1+1i) f9ab9f08 -> 453de924. In the same change ``li(1, z)``
began to take log|1 - z| from log1p for |z| <= 0.5: ``quad-polylog`` at S(2,1;1+1i) moved
in the last bits of its value and estimate (13614fbc -> 6757db65). ``verify`` moved with both
(f49c9c42 -> 097769b5): the folding[quad-cardano] value at S(3,2;-1) by one ulp, and the
folding[quad-polylog] values at S(2,3;x), x in {-1, 1, 6, 100}, in the last bits.
When ``fold`` began to take the correctly rounded real m-th root of positive x (100 ** (1/3)
was one ulp low), the ``folding`` and ``auto`` hashes at S(2,3;100) moved in the last bits of
value and estimate (6833fc5e -> fa76651a; the value is 2.9e-15 from the exact sum, within
its 5.1e-14 estimate), and ``verify`` (097769b5 -> 661fb8db) with the 17 folding pairs at
S(1,3;100), S(2,3;100) and S(3,3;100). No other root on the invocation list changed.
When the low-weight budget of ``auto`` was re-measured with the step and weight tables
(8 terms per unit of stride past the first became 40, 28 and 22 at n = 0, 1, 2), ``auto``
at S(2,3;100) began to sum its 29 terms directly instead of folding: its hash became the
``direct-sum`` hash of the same point (fa76651a -> 0720ca86).
When the ``pfq`` route and the ``polylog`` suite were deleted, the four ``pfq`` hashes went
(``--method pfq`` now exits 1), and ``verify`` lost its 144 ``Li_`` and 65 ``pfq`` pair
entries, 510 -> 301 (661fb8db -> 303256b2); every other entry kept its bits and its place.
When the Cardano-root route began to sum a power series in s = phi(x)**-3 for n <= 8 and
|s| <= S_MAX, keeping its quadrature only near x = 27/4, the hashes of the points that
series serves moved in the last bits of value and estimate and in ``work`` (series terms in
place of integrand calls and tail terms): ``folding`` at S(3,1;0.5) c21ac518 -> 3962a66d
and at S(3,2;20) 504ced30 -> d1c81469, ``quad-cardano`` at S(4,1;-6.75) fcce98ef -> b0dc23f0
and at S(3,1;1+1i) 453de924 -> dee7bf4b, and ``verify`` 303256b2 -> 8b1d10e8 (its
quad-cardano and folding[quad-cardano] entries). ``quad-cardano`` at S(3,1;6.75), the
branch point, kept its hash.
When the far end of the Cardano-root quadrature began to be summed by that series in s
(weights up to 8) and by direct sums, ``quad-cardano`` at S(3,1;6.75) moved in its estimate
and ``work`` (66 -> 59; the value kept its bits): d527b7ea -> cf4b19bd. When the real
weight-1 kernel of ``quad-polylog`` began to take log1p(-x t (1-t)**2) where that argument
is at most 0.5, ``quad-polylog`` at S(2,1;0.5) (cb1ddd52 -> 2af68be0) and at S(2,1;6.6825)
(85f2d5cc -> f52e9023) moved in the last bits of value and estimate, and ``verify``
(8b1d10e8 -> e9f43cdc) with the 27 pairs that hold a real weight-2 quad-polylog value
(S(2,1;x) at five x, folding[quad-polylog] at S(2,2;x) at three x and at S(2,3;6)); every
other entry kept its bits. When the Cardano-root route began to sum a series in
v = sqrt(1 - 4x/27) near x = 27/4 in place of its quadrature, ``quad-cardano`` at
S(3,1;6.75) moved in value (one ulp, to the correctly rounded 2.974506287708767), estimate
(2.9e-14 -> 1.3e-15) and ``work`` (59 -> 1): cf4b19bd -> e1fb9d29.
When ``auto`` began to take quad-cardano at every stride-1 point of weights 3..8, ``auto``
at S(3,1;0.5) stopped summing 13 terms directly: it returns the series in s (10 terms, the
same value, an estimate of 4.4e-16 in place of 3.2e-16), and its hash is no longer the
``direct-sum`` hash of the point (b90ee746 -> 98e2a14c).
When the quadrature panel moved from the 15-point Gauss-Kronrod rule to QUADPACK's 21-point
qk21, the nine ``quad-polylog`` and ``quad-two-term`` hashes moved in ``work`` (21 calls per
panel in place of 15), in their estimates and in the last bits of most values, and ``verify``
with its quadrature entries; old -> new, by leading hex digits:

    quad-polylog  S(2,1;0.5) 2af68be0 -> 0452e100    S(2,1;6.6825) f52e9023 -> 25b3d231
                  S(2,1;6.75) 64831404 -> d9733ea0   S(2,1;1+1i)   6757db65 -> 85176fdb
                  S(3,1;0.5) ca83c1c2 -> 621815e8
    quad-two-term S(2,1;0.5) 32ae7cb3 -> dba7ef3b    S(2,1;6.6825) 194a3587 -> 123d9a00
                  S(2,1;6.75) c4a0dbad -> b6e923b5   S(3,1;0.5)    190e978d -> 65e5d89c
    verify        e9f43cdc -> 2a90fa28

The three ``direct-sum`` hashes at S(0,9;0.99 R**9) (3,164 terms, no step table),
S(0,2;0.999 R**2) (29,430 terms) and S(4,8;0.99 R**8 e**(0.7i)) (1,020 terms, past the
512-step table) were recorded while sums predicted to run past the tables went through a
separate block kernel, so that its replacement by the one term loop keeps their bytes.
When ``quad-polylog`` began to serve strides up to 11 through the stride-m Beta integral,
``verify`` dropped its folds over quad-polylog: each ``folding[quad-polylog]`` entry became
a ``quad-polylog`` entry with the stride-m value, and the entries of each stride-m point
moved places with the route table's order (the same 301 pairs; every other value kept its
bits): 2a90fa28 -> dab6b63e. The stride-1 ``quad-polylog`` hashes kept their bytes.
When ``quad-polylog`` began to integrate the positive rim at weights 1 and 2 in s, with
t = 1/3 -+ k s**6 on either side of the double zero of 1 - u (and real x in float arithmetic),
``quad-polylog`` at S(2,1;6.75) moved: value 5.6188302395564245 -> 5.618830239556543 (7.7e-14
-> 4.1e-14 from the exact 2 pi**2/3 - 2 log(2)**2), estimate 3.5e-12 -> 2.3e-12, work
1,785 -> 210 (d9733ea0 -> 41652d03); and ``verify`` with its one entry on that route at the
point, S(2,1;27/4) (dab6b63e -> 1a549eef). Every other entry kept its bits.
When ``fold`` at real x began to evaluate one root of each conjugate pair (the roots with
Im >= 0, the real root of |x| turned by exp(i pi k / m); each one off the axis counts twice
its real part), ``folding`` at S(2,3;100) moved: value 1.3553932802536885 ->
1.3553932802536905, estimate 5.134594387098999e-14 -> 5.134594387098998e-14, work 3 -> 2
(fa76651a -> 3e3cabec); and ``verify`` (1a549eef -> 82c9c7f0) with the 53 entries that hold
a real fold at m = 3 (S(n,3;x) at n 1..3, x in {-1, 1, 100}, and S(0,3;1), S(2,3;6));
every entry still passes and every other entry kept its bits. Folds at complex x and at
m = 2, x > 0 kept theirs.
"""

import hashlib

import pytest

from invbinom.cli import EXIT_OK, main

GOLDEN = {
    "eval --n 2 --m 1 --x 0.5 --method direct-sum --output json": (
        "6b01664a1241ac4b747c6f4e177d3c892075c728531d51eba8e1f8846b1033b0"
    ),
    "eval --n 2 --m 1 --x 0.5 --method closed-form --output json": (
        "b1bfd002236bbb3a909291737ca73fa2cb78214a6093526e8a72147924c2caca"
    ),
    "eval --n 2 --m 1 --x 0.5 --method quad-polylog --output json": (
        "0452e100dceb282a493ee8ff915a47717625c6b2971b5bb0a5b4e7675d5a76a5"
    ),
    "eval --n 2 --m 1 --x 0.5 --method quad-two-term --output json": (
        "dba7ef3b643f62406e212df2a2e8202773066d9c3aada29ba6cfa17a60643f7d"
    ),
    "eval --n 2 --m 1 --x 0.5 --method folding --output json": (
        "d3adc2eaaea3f53a52b8f78d4f6b8555d99a0f4f972a377c61a85fa6e5a9289c"
    ),
    "eval --n 2 --m 1 --x 0.5 --method auto --output json": (
        "b1bfd002236bbb3a909291737ca73fa2cb78214a6093526e8a72147924c2caca"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method direct-sum --output json": (
        "d627c449b31960b2e9786f062772674abc7f805fa18bd9cfb501a19202bf76c0"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method closed-form --output json": (
        "666a32c7682973f71e096509f50d1aba94cc68b3af961ea7a2b93fff1eb48bbb"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method quad-polylog --output json": (
        "25b3d2318ae5568a6e1660e1b21ae0ddce3f6faa96cb978b8983a1cff72ae7d9"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method quad-two-term --output json": (
        "123d9a0037ade6d9cc5fc5fdc6541d7799237e2f180acd8dca669689d7c81cc4"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method folding --output json": (
        "c08f5947c413acec1c2921e056ee4cdda847466265f0dfe32a95edc197d3af57"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method auto --output json": (
        "666a32c7682973f71e096509f50d1aba94cc68b3af961ea7a2b93fff1eb48bbb"
    ),
    "eval --n 2 --m 1 --x 6.75 --method closed-form --output json": (
        "8b19b00eca7f7f2d40b6d5b799424fb73f73cbc068f3935a4d2dfbc987574170"
    ),
    "eval --n 2 --m 1 --x 6.75 --method quad-polylog --output json": (
        "41652d0324f7757098d904171fdfc3521527cfedc83201500bb52cecc0bf3afa"
    ),
    "eval --n 2 --m 1 --x 6.75 --method quad-two-term --output json": (
        "b6e923b52a5fe2057555e6d408fdd520b243c0d119129fbc2c317d7db225527b"
    ),
    "eval --n 2 --m 1 --x 6.75 --method folding --output json": (
        "e29e38b87a6e4e988faf79ede2006c6f8f650b8e3fa809d67b53fd8b5c78ee44"
    ),
    "eval --n 2 --m 1 --x 6.75 --method auto --output json": (
        "8b19b00eca7f7f2d40b6d5b799424fb73f73cbc068f3935a4d2dfbc987574170"
    ),
    "eval --n 2 --m 1 --x 1+1i --method direct-sum --output json": (
        "3ecaa5a46d0d17232047e23eee6ee67bb51e47274296ec283516a8ade916a690"
    ),
    "eval --n 2 --m 1 --x 1+1i --method closed-form --output json": (
        "6868525796d0ab39f42c713c564ae9d10dfa3684f50270c57b576f1b7330f80b"
    ),
    "eval --n 2 --m 1 --x 1+1i --method quad-polylog --output json": (
        "85176fdbb3c3f993999e540ebf836097035ddb58fa322ecdaa936deac5fc7cc7"
    ),
    "eval --n 2 --m 1 --x 1+1i --method folding --output json": (
        "5ccba444cba47629fd74f692a73eebe42a8872416e13f1f790d6dd11168d9f16"
    ),
    "eval --n 2 --m 1 --x 1+1i --method auto --output json": (
        "6868525796d0ab39f42c713c564ae9d10dfa3684f50270c57b576f1b7330f80b"
    ),
    "eval --n 2 --m 2 --x 20 --method direct-sum --output json": (
        "d86959eee17fefd4b8938c9b3f9a54ac42aaa70d418c50b52c670c156407e7d9"
    ),
    "eval --n 2 --m 2 --x 20 --method folding --output json": (
        "e73e2c2f35b9fd1d20b022210e02dbd5fdb38d529a964beb6aecb5ea92252a70"
    ),
    "eval --n 2 --m 2 --x 20 --method auto --output json": (
        "e73e2c2f35b9fd1d20b022210e02dbd5fdb38d529a964beb6aecb5ea92252a70"
    ),
    "eval --n 2 --m 3 --x 100 --method direct-sum --output json": (
        "0720ca860e387650f20d848f2d30d0d539bf6b74a697746ece738b9dc69ca606"
    ),
    "eval --n 2 --m 3 --x 100 --method folding --output json": (
        "3e3cabec7f3ab0433577d1eb8d10ad7728317657c9038872191b940f9464fcf1"
    ),
    "eval --n 2 --m 3 --x 100 --method auto --output json": (
        "0720ca860e387650f20d848f2d30d0d539bf6b74a697746ece738b9dc69ca606"
    ),
    "eval --n 0 --m 1 --x 0.5 --method direct-sum --output json": (
        "8138be3de958db1bfb094e15ae7da0ef7f62ec41855e5b3aa9b54113185ae211"
    ),
    "eval --n 0 --m 1 --x 0.5 --method closed-form --output json": (
        "37a9a4f8b1c38e7ef6060dbeafe4527b3fe46d4cfe5ee94d9081edd12af85125"
    ),
    "eval --n 0 --m 1 --x 0.5 --method folding --output json": (
        "26539147f2103966c0f5daa559e2c20ec4a7f2304f8ca8d749dc84f018129fd9"
    ),
    "eval --n 0 --m 1 --x 0.5 --method auto --output json": (
        "37a9a4f8b1c38e7ef6060dbeafe4527b3fe46d4cfe5ee94d9081edd12af85125"
    ),
    "eval --n 3 --m 1 --x 0.5 --method direct-sum --output json": (
        "b90ee7467ce6bd99c0af0e5e33cbcc79e18158f055205a5a7546b9af2260f076"
    ),
    "eval --n 3 --m 1 --x 0.5 --method quad-polylog --output json": (
        "621815e802ef220c3e8a556fa8ac8bf8d1744fcdc059569d850cbe832b9784b6"
    ),
    "eval --n 3 --m 1 --x 0.5 --method quad-two-term --output json": (
        "65e5d89c9c522e49be472ef55ab6b9de331411efce499e6faf073579ed7228cc"
    ),
    "eval --n 3 --m 1 --x 0.5 --method folding --output json": (
        "3962a66d2e1ec2433f99a46b932bfc8ee56fd57597ea51fb51b0ce0d59242095"
    ),
    "eval --n 3 --m 1 --x 0.5 --method auto --output json": (
        "98e2a14c00d60f25a1a18f5c1a897f9f63bc310e17283bb7f0d3157e6138b917"
    ),
    "eval --n 3 --m 2 --x 20 --method direct-sum --output json": (
        "20d0d31d884f160dc83eb79f4624b4085dfee7ef8d1661f913a9eb1aa5e2737b"
    ),
    "eval --n 3 --m 2 --x 20 --method folding --output json": (
        "d1c81469d6b323780f23bc7bebf2c5f9003d87225f4bff38ebd5a60c7329a4fc"
    ),
    "eval --n 3 --m 2 --x 20 --method auto --output json": (
        "20d0d31d884f160dc83eb79f4624b4085dfee7ef8d1661f913a9eb1aa5e2737b"
    ),
    "eval --n 3 --m 8 --x 2966501.190067826+2498649.4830240267i --method direct-sum --output json": (
        "1311fa95bf4fae2a004c9939ea77939567b1e9b18e906b14af37a74d01e5bd2e"
    ),
    "eval --n 3 --m 60 --x 3.9449428327662113e+49+3.3227795096300843e+49i "
    "--method direct-sum --output json": (
        "f5a7f7c208b3a3554d3aa75a2caa1d2fd009d9cb7ec96ea0234327a9c15920e4"
    ),
    "eval --n 0 --m 9 --x 28798452.415989418 --method direct-sum --output json": (
        "0c62631c1b9b5cd63b14b930ad0751abc012803e7cc6303da0fc90f9ded04d94"
    ),
    "eval --n 0 --m 2 --x 45.5169375 --method direct-sum --output json": (
        "adec5934779a03cc7fcf58143fb1c295731160f53bf39f707442a7521d8f4941"
    ),
    "eval --n 4 --m 8 --x 3263151.3090746086+2748514.4313264294i --method direct-sum --output json": (
        "b58b889f2c006feb67031137e36393346397aacfea540929efdf7e97aeacaae0"
    ),
    "eval --n 3 --m 1 --x 6.75 --method quad-cardano --output json": (
        "e1fb9d29320adaf83a35dc336763336ceeb08b1e6e8aadd343801127a34a8de1"
    ),
    "eval --n 4 --m 1 --x -6.75 --method quad-cardano --output json": (
        "b0dc23f019b9f7ec3f01252f654b8901f7139b22cd0101c8f569c5bd8c2f3711"
    ),
    "eval --n 3 --m 1 --x 1+1i --method quad-cardano --output json": (
        "dee7bf4b441ca8a5cf1fb931e7b39c08a703b05d733d3a3bcc788236bdf0e0ca"
    ),
    "table --n 2 --m 1 --x-from -6.75 --x-to 6.75 --steps 101 --output csv": (
        "57dafe31d0cccff5c0d648445375e3207511c1d428a96207c9ae6c59a2a065e3"
    ),
    "verify --suite all --output json": (
        "82c9c7f06bc462e43e4c3870d3013cc796530b5f0d8106c7c4e488c753915524"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_is_byte_identical(command, capsys):
    assert main(command.split()) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


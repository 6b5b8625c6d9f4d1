"""Golden CLI output: sha256 of stdout for a fixed invocation list.

The hashes were recorded before the route table and the domain rule were
consolidated; any byte of difference in values, error estimates, method
tags, work counts or formatting fails here. An intended output change must
update the hash and say so in CHANGES.md. The three S(3,2;20) folding/auto
and ``verify`` hashes were re-recorded when the near-rim polylog moved from
nested quadrature to the log-series expansion (last-bit changes only). The
n = 3 ``auto`` hashes at S(3,1;0.5) and S(3,2;20) were re-recorded when
``auto`` began to pick direct summation by its predicted term count; they
now equal the ``direct-sum`` hashes of the same points. The two direct-sum
hashes at 0.9 R**m e**(0.7i), m = 8 and m = 60 (where the term ratio pairs
its factors because the 3m-factor products overflow), were recorded before
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
        "cb1ddd52577e07ec9805074347497a413dd8a35496a8e0773b02348977563262"
    ),
    "eval --n 2 --m 1 --x 0.5 --method quad-two-term --output json": (
        "32ae7cb3ba4cccd91d317ed3cded3d81578d3d67d2694170feb29637576af20d"
    ),
    "eval --n 2 --m 1 --x 0.5 --method folding --output json": (
        "d3adc2eaaea3f53a52b8f78d4f6b8555d99a0f4f972a377c61a85fa6e5a9289c"
    ),
    "eval --n 2 --m 1 --x 0.5 --method pfq --output json": (
        "4ce3ea2f08fe10f3f8383867d3062556e846f466b273e23dd18a5e51f418df92"
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
        "85f2d5cc6e6cea081363964ce7aae326de18c27ab1c5a6b6a184ff7bcbdc12fe"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method quad-two-term --output json": (
        "194a35870f4990a296c52c38ae73aa816133744bc6a4df906146860c52b93af2"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method folding --output json": (
        "c08f5947c413acec1c2921e056ee4cdda847466265f0dfe32a95edc197d3af57"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method pfq --output json": (
        "dc9019f2e7b1e2c3dd08d95d4da4ebaa62d9c05a6044e8721a13b57a92c64357"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method auto --output json": (
        "666a32c7682973f71e096509f50d1aba94cc68b3af961ea7a2b93fff1eb48bbb"
    ),
    "eval --n 2 --m 1 --x 6.75 --method closed-form --output json": (
        "8b19b00eca7f7f2d40b6d5b799424fb73f73cbc068f3935a4d2dfbc987574170"
    ),
    "eval --n 2 --m 1 --x 6.75 --method quad-polylog --output json": (
        "6483140425dab77a76abfb033ee4a476e00962fe0822d4ff92f923453db55c00"
    ),
    "eval --n 2 --m 1 --x 6.75 --method quad-two-term --output json": (
        "c4a0dbad2c31e8782bbdffd1be7dea2b4cd26d52b2affad552a7d55daa04e503"
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
        "6757db65e48ca10e6d9d29cf3dcb148e6b82cc5ab705a663166a2d5d12e80202"
    ),
    "eval --n 2 --m 1 --x 1+1i --method folding --output json": (
        "5ccba444cba47629fd74f692a73eebe42a8872416e13f1f790d6dd11168d9f16"
    ),
    "eval --n 2 --m 1 --x 1+1i --method pfq --output json": (
        "f693c06c19bf6fd7d52feb8d2588d47d80adceb49b4fe56bae3091edc690bddc"
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
        "fa76651a9758348126c0d954a1635100f77f6a59b2cdc8c0146b7d2f85e7a786"
    ),
    "eval --n 2 --m 3 --x 100 --method auto --output json": (
        "fa76651a9758348126c0d954a1635100f77f6a59b2cdc8c0146b7d2f85e7a786"
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
    "eval --n 0 --m 1 --x 0.5 --method pfq --output json": (
        "3f4bd438b465896982b8fa01dea0bc2497634e1a97379a56bcd4260b551d9017"
    ),
    "eval --n 0 --m 1 --x 0.5 --method auto --output json": (
        "37a9a4f8b1c38e7ef6060dbeafe4527b3fe46d4cfe5ee94d9081edd12af85125"
    ),
    "eval --n 3 --m 1 --x 0.5 --method direct-sum --output json": (
        "b90ee7467ce6bd99c0af0e5e33cbcc79e18158f055205a5a7546b9af2260f076"
    ),
    "eval --n 3 --m 1 --x 0.5 --method quad-polylog --output json": (
        "ca83c1c2996df99cc0b42e8314df697133ac61678c7eba7eb378162af3842671"
    ),
    "eval --n 3 --m 1 --x 0.5 --method quad-two-term --output json": (
        "190e978d65385b160367af92ef23b2e40437e4bca96381a5572b818eb0e9fa3c"
    ),
    "eval --n 3 --m 1 --x 0.5 --method folding --output json": (
        "c21ac518ca94fba5f7953f63da824081f1bf0a1b4c0726d1d1e2cac091d9feb9"
    ),
    "eval --n 3 --m 1 --x 0.5 --method auto --output json": (
        "b90ee7467ce6bd99c0af0e5e33cbcc79e18158f055205a5a7546b9af2260f076"
    ),
    "eval --n 3 --m 2 --x 20 --method direct-sum --output json": (
        "20d0d31d884f160dc83eb79f4624b4085dfee7ef8d1661f913a9eb1aa5e2737b"
    ),
    "eval --n 3 --m 2 --x 20 --method folding --output json": (
        "504ced30ebbb7e3f3d8f89611c2d4e738aad71a5cbdc0a0bc5f53e8237a36923"
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
    "eval --n 3 --m 1 --x 6.75 --method quad-cardano --output json": (
        "d527b7eafaef009d6c3abb97699f645270045a1fa3113a1d800a6ae889b98447"
    ),
    "eval --n 4 --m 1 --x -6.75 --method quad-cardano --output json": (
        "fcce98ef33ce2fa0bb12ff173687190bb000c4fcc0521e2ec954374b219f85a8"
    ),
    "eval --n 3 --m 1 --x 1+1i --method quad-cardano --output json": (
        "453de924ca651a92c8ff128c451cead4f85422c383d779889d96d8d31e14202b"
    ),
    "table --n 2 --m 1 --x-from -6.75 --x-to 6.75 --steps 101 --output csv": (
        "57dafe31d0cccff5c0d648445375e3207511c1d428a96207c9ae6c59a2a065e3"
    ),
    "verify --suite all --output json": (
        "661fb8db8c7b6162e812393c76d3260331671a6a60d35fa53bc8b1ccabbb4bf1"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_is_byte_identical(command, capsys):
    assert main(command.split()) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


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
(only ``abs_error_est`` moved).
"""

import hashlib

import pytest

from invbinom.cli import EXIT_OK, main

GOLDEN = {
    "eval --n 2 --m 1 --x 0.5 --method direct-sum --output json": (
        "f9efee8e85a7b5534941e56919e8f99b7411a5dc365d25be5742fdac164e4c67"
    ),
    "eval --n 2 --m 1 --x 0.5 --method closed-form --output json": (
        "bf175fa4238518ad99ade6540bab344239cb5ab3da745beacd61239d68c49403"
    ),
    "eval --n 2 --m 1 --x 0.5 --method quad-polylog --output json": (
        "cb1ddd52577e07ec9805074347497a413dd8a35496a8e0773b02348977563262"
    ),
    "eval --n 2 --m 1 --x 0.5 --method quad-two-term --output json": (
        "32ae7cb3ba4cccd91d317ed3cded3d81578d3d67d2694170feb29637576af20d"
    ),
    "eval --n 2 --m 1 --x 0.5 --method folding --output json": (
        "b99fa38f3e3ac5345921b5b97bcfd20049c1a0a019a08443912d7fba03413be3"
    ),
    "eval --n 2 --m 1 --x 0.5 --method pfq --output json": (
        "4ce3ea2f08fe10f3f8383867d3062556e846f466b273e23dd18a5e51f418df92"
    ),
    "eval --n 2 --m 1 --x 0.5 --method auto --output json": (
        "bf175fa4238518ad99ade6540bab344239cb5ab3da745beacd61239d68c49403"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method direct-sum --output json": (
        "8e29681038c31b44dbffbf798fc9b17a0b6c76aa2e50aa5ba46de63d982c6331"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method closed-form --output json": (
        "ad22fd30c1af4ba284805fc82c9e6ee6d7f594f72a424c560f789f96a3248cc8"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method quad-polylog --output json": (
        "85f2d5cc6e6cea081363964ce7aae326de18c27ab1c5a6b6a184ff7bcbdc12fe"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method quad-two-term --output json": (
        "194a35870f4990a296c52c38ae73aa816133744bc6a4df906146860c52b93af2"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method folding --output json": (
        "b19cc54f00e9b7ef7d3052db8f24ac7dabef240a88f228b31992c1804230741a"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method pfq --output json": (
        "dc9019f2e7b1e2c3dd08d95d4da4ebaa62d9c05a6044e8721a13b57a92c64357"
    ),
    "eval --n 2 --m 1 --x 6.6825 --method auto --output json": (
        "ad22fd30c1af4ba284805fc82c9e6ee6d7f594f72a424c560f789f96a3248cc8"
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
        "8d0b0fd12ae8f8cd6d65a12f8385e1cc7530a99e2e518ef71598c4222bb60cd4"
    ),
    "eval --n 2 --m 1 --x 1+1i --method closed-form --output json": (
        "67872e1e4de299e348ba92b5470ba37de583a6bfef73e308b4df2fec5b3d9fba"
    ),
    "eval --n 2 --m 1 --x 1+1i --method quad-polylog --output json": (
        "13614fbc959b8ee5093bc16e77e5cd23f6004d627021c63047b229eda2b5fac7"
    ),
    "eval --n 2 --m 1 --x 1+1i --method folding --output json": (
        "cac2cf6e38a556d862eba8031577f4450cee5d38b87fe2409a249f09186c796f"
    ),
    "eval --n 2 --m 1 --x 1+1i --method pfq --output json": (
        "f693c06c19bf6fd7d52feb8d2588d47d80adceb49b4fe56bae3091edc690bddc"
    ),
    "eval --n 2 --m 1 --x 1+1i --method auto --output json": (
        "67872e1e4de299e348ba92b5470ba37de583a6bfef73e308b4df2fec5b3d9fba"
    ),
    "eval --n 2 --m 2 --x 20 --method direct-sum --output json": (
        "62d914615c4217d1d84db501e315bfc1254729ad8147b5f8ae3aa1127e295ce4"
    ),
    "eval --n 2 --m 2 --x 20 --method closed-form --output json": (
        "1c0d287471a43a0ce8c327611c7ce52f32debe5fc551a4941ae785063afce4a5"
    ),
    "eval --n 2 --m 2 --x 20 --method folding --output json": (
        "abba7de79314960f02c6d8cd31560f81874619807d724cc3dad0126a9269cb07"
    ),
    "eval --n 2 --m 2 --x 20 --method auto --output json": (
        "abba7de79314960f02c6d8cd31560f81874619807d724cc3dad0126a9269cb07"
    ),
    "eval --n 2 --m 3 --x 100 --method direct-sum --output json": (
        "dabc5dcf10525d7ac8bc9fc438a88cb68a6843afb2b6de32efbe99c5a997df8f"
    ),
    "eval --n 2 --m 3 --x 100 --method closed-form --output json": (
        "b43ad2bbdb3ac06f075cb99c75248581a304556a9165e89bfcbe4d78921059e4"
    ),
    "eval --n 2 --m 3 --x 100 --method folding --output json": (
        "85b53ffdd6ca11956566cb5a34860f3fe461cf813a2c0eee08e82ca11b9d8ed8"
    ),
    "eval --n 2 --m 3 --x 100 --method auto --output json": (
        "85b53ffdd6ca11956566cb5a34860f3fe461cf813a2c0eee08e82ca11b9d8ed8"
    ),
    "eval --n 0 --m 1 --x 0.5 --method direct-sum --output json": (
        "eb8658bea61097d79292ed469aef8db2e66e7caaab6b4fa5ba3fc5f808b9dd05"
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
        "2f2422f077edbe9d3c06b890dc8a7c886a6affafff55f1bb1f73872419580074"
    ),
    "eval --n 3 --m 1 --x 0.5 --method quad-polylog --output json": (
        "ca83c1c2996df99cc0b42e8314df697133ac61678c7eba7eb378162af3842671"
    ),
    "eval --n 3 --m 1 --x 0.5 --method quad-two-term --output json": (
        "190e978d65385b160367af92ef23b2e40437e4bca96381a5572b818eb0e9fa3c"
    ),
    "eval --n 3 --m 1 --x 0.5 --method folding --output json": (
        "d15586b356df56dd8658ee30323e66a8432e87b9539b810decd25c753003ed50"
    ),
    "eval --n 3 --m 1 --x 0.5 --method auto --output json": (
        "2f2422f077edbe9d3c06b890dc8a7c886a6affafff55f1bb1f73872419580074"
    ),
    "eval --n 3 --m 2 --x 20 --method direct-sum --output json": (
        "4308aff8530e078b00b0d744ce954ce47f9b8c92677efa31af55a6c4b373aecf"
    ),
    "eval --n 3 --m 2 --x 20 --method folding --output json": (
        "57b7f6ee32424f80fd7d9b027096bb0e119d4a88b3cf6600f278eb18efc4816a"
    ),
    "eval --n 3 --m 2 --x 20 --method auto --output json": (
        "4308aff8530e078b00b0d744ce954ce47f9b8c92677efa31af55a6c4b373aecf"
    ),
    "eval --n 3 --m 8 --x 2966501.190067826+2498649.4830240267i --method direct-sum --output json": (
        "c8c1b262991e073c9372d5f1ebf9b52a9909cb9c2941fb11b8b979fe62a23336"
    ),
    "eval --n 3 --m 60 --x 3.9449428327662113e+49+3.3227795096300843e+49i "
    "--method direct-sum --output json": (
        "3c8bb212a945d3bedb326fe85fd377a5fda4b931c6826fbec8ce3f9d9e239042"
    ),
    "eval --n 3 --m 1 --x 6.75 --method quad-cardano --output json": (
        "d57c699c19e134c6c1c7ce830bd4b62b8379d52528ac6627002b76955a7c8a0c"
    ),
    "eval --n 4 --m 1 --x -6.75 --method quad-cardano --output json": (
        "b161d4c2064b2679992fd9e147539d8a190c80b80f81f63b9343e7cd1315f00c"
    ),
    "eval --n 3 --m 1 --x 1+1i --method quad-cardano --output json": (
        "f9ab9f08477364c0296fae0956851eb0a24ac44ead4d3994b4809f842774cded"
    ),
    "table --n 2 --m 1 --x-from -6.75 --x-to 6.75 --steps 101 --output csv": (
        "4240e93a3cc1f34f785b5e25e18b3ba40edd79dfcbe10161dee9d6cbf9fc9792"
    ),
    "verify --suite all --output json": (
        "9f214b6adbb67b7a847e92efb40ad70cb1e041dcc65f15637b2e2f959ae08b16"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_is_byte_identical(command, capsys):
    assert main(command.split()) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


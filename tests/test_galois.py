"""Tests for GF(2^m) arithmetic, the fixed polynomial search, and Reed-Solomon."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import Poly
from sympy.abc import x as _x

from mvcode.galois import (
    Field,
    InsufficientSymbolsError,
    RsCode,
    binary_expand_generator,
    irreducible_polynomial,
)


def sympy_is_irreducible(mask: int) -> bool:
    coeffs = [(mask >> d) & 1 for d in range(mask.bit_length() - 1, -1, -1)]
    return Poly(coeffs, _x, modulus=2).is_irreducible


# ---------------------------------------------------------------------------
# Reduction polynomial search

def test_frozen_reduction_polynomials():
    # Hand-checked: x+1, x^2+x+1, x^3+x+1, x^4+x+1.
    assert irreducible_polynomial(1) == 0b11
    assert irreducible_polynomial(2) == 0b111
    assert irreducible_polynomial(3) == 0b1011
    assert irreducible_polynomial(4) == 0b10011


@pytest.mark.parametrize("m", range(1, 10))
def test_search_rule_matches_independent_oracle(m):
    # First candidate by (term count, value) among nonzero-constant degree-m
    # polynomials that sympy calls irreducible.
    candidates = sorted(
        (v for v in range(1 << m, 1 << (m + 1)) if v & 1),
        key=lambda v: (v.bit_count(), v),
    )
    expected = next(v for v in candidates if sympy_is_irreducible(v))
    assert irreducible_polynomial(m) == expected


def test_degree_bounds():
    with pytest.raises(ValueError):
        irreducible_polynomial(0)
    with pytest.raises(ValueError):
        irreducible_polynomial(17)


# ---------------------------------------------------------------------------
# Field arithmetic

def gf4_mul_oracle(a: int, b: int) -> int:
    """Schoolbook coefficient product reduced by x^2 = x + 1."""
    prod = [0, 0, 0]
    for i in range(2):
        for j in range(2):
            prod[i + j] ^= ((a >> i) & 1) & ((b >> j) & 1)
    if prod[2]:
        prod[1] ^= 1
        prod[0] ^= 1
    return prod[0] | (prod[1] << 1)


def test_gf4_full_multiplication_table():
    f = Field(2)
    for a in range(4):
        for b in range(4):
            assert f.mul(a, b) == gf4_mul_oracle(a, b)
    assert f.mul(2, 2) == 3


@pytest.mark.parametrize("m", [2, 3])
def test_field_axioms_exhaustive(m):
    f = Field(m)
    size = f.order
    for a in range(size):
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        for b in range(size):
            assert f.mul(a, b) == f.mul(b, a)
    for a, b, c in itertools.product(range(size), repeat=3):
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_field_axioms_gf16(a, b, c):
    f = Field(4)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_field_axioms_random_draws(m):
    f = Field(m)
    rng = random.Random(100 + m)
    for _ in range(10_000):
        a = rng.randrange(f.order)
        b = rng.randrange(f.order)
        c = rng.randrange(f.order)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@pytest.mark.parametrize("m", range(1, 9))
def test_inverses(m):
    # a^(2^m - 2) inverts every nonzero a only when the polynomial is irreducible
    f = Field(m)
    for a in range(1, f.order):
        assert f.mul(a, f.pow(a, f.order - 2)) == 1
    assert all(f.mul(0, b) == 0 for b in range(f.order))


def test_pow_matches_repeated_multiplication():
    f = Field(3)
    for a in range(f.order):
        acc = 1
        for e in range(10):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_large_field_no_table():
    f = Field(10)
    a, b = 0b1011001101, 0b0111010001
    assert f.mul(a, b) == f.mul(b, a)
    assert f.pow(a, f.order - 1) == 1


def test_field_mul_matches_oracle():
    f = Field(2)
    assert f.mul(3, 3) == gf4_mul_oracle(3, 3)


# ---------------------------------------------------------------------------
# Reed-Solomon codec

def test_standard_code_field_sizing():
    assert RsCode.standard(4, 2).field.m == 2
    assert RsCode.standard(5, 3).field.m == 3
    assert RsCode.standard(8, 4).field.m == 3
    assert RsCode.standard(9, 4).field.m == 4
    assert RsCode.standard(2, 1).field.m == 1


def test_frozen_codeword():
    # Message polynomial 1 + x evaluated at 0, 1, 2, 3 in GF(4).
    code = RsCode.standard(4, 2)
    assert code.evaluation_points == (0, 1, 2, 3)
    assert code.encode((1, 1)) == (1, 0, 3, 2)


def test_zero_block_and_repetition():
    code = RsCode.standard(4, 2)
    assert code.encode((0, 0)) == (0, 0, 0, 0)
    rep = RsCode.standard(5, 1)
    for v in range(rep.field.order):
        assert rep.encode((v,)) == (v,) * 5
        assert rep.decode(list({3: v}.items())) == (v,)


def test_decode_function_round_trips_all_subsets():
    code = RsCode.standard(5, 3)
    rng = random.Random(3)
    for _ in range(10):
        block = tuple(rng.randrange(code.field.order) for _ in range(3))
        word = code.encode(block)
        for servers in itertools.combinations(range(5), 3):
            assert code.decode(list({s: word[s] for s in servers}.items())) == block


@pytest.mark.parametrize("n", range(2, 7))
def test_any_c_symbols_recover_block(n):
    rng = random.Random(n)
    for c in range(1, n + 1):
        code = RsCode.standard(n, c)
        order = code.field.order
        if order**c <= 512:
            blocks = list(itertools.product(range(order), repeat=c))
        else:
            blocks = [
                tuple(rng.randrange(order) for _ in range(c)) for _ in range(40)
            ]
        for block in blocks:
            word = code.encode(block)
            for servers in itertools.combinations(range(n), c):
                got = code.decode(list({s: word[s] for s in servers}.items()))
                assert got == block


def test_decode_input_validation():
    code = RsCode.standard(4, 2)
    word = code.encode((2, 3))
    with pytest.raises(InsufficientSymbolsError):
        code.decode(list({0: word[0]}.items()))
    with pytest.raises(ValueError):
        code.decode(list({0: word[0], 1: word[1], 2: word[2]}.items()))
    with pytest.raises(ValueError):
        code.decode([(1, word[1]), (1, word[1])])
    with pytest.raises(ValueError):
        code.decode(list({0: word[0], 7: 0}.items()))
    with pytest.raises(ValueError):
        code.decode([(0, word[0]), (1, code.field.order)])
    assert code.decode([(3, word[3]), (1, word[1])]) == (2, 3)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RsCode(Field(2), 4, 0)
    with pytest.raises(ValueError):
        RsCode(Field(2), 5, 2)  # only 4 distinct points exist in GF(4)


# ---------------------------------------------------------------------------
# Binary expansion of the per-server maps

def _stored_by_blocks(gen, server: int, message: int) -> int:
    """Independent path: slice the message into blocks and encode each."""
    m = gen.symbol_bits
    block_bits = gen.code.c * m
    out = 0
    for b in range(gen.blocks):
        chunk = (message >> (b * block_bits)) & ((1 << block_bits) - 1)
        block = tuple((chunk >> (j * m)) & ((1 << m) - 1) for j in range(gen.code.c))
        out |= gen.code.encode(block)[server] << (b * m)
    return out


def test_binary_view_agrees_with_symbol_view():
    gen = binary_expand_generator(RsCode.standard(4, 2), 8)
    assert gen.padded_K == 8
    assert gen.blocks == 2
    assert gen.stored_bits_per_server == 4
    for message in range(256):
        for server in range(4):
            assert gen.apply(server, message) == _stored_by_blocks(
                gen, server, message
            )


def test_padding_rounds_up_to_block_size():
    gen = binary_expand_generator(RsCode.standard(4, 2), 10)
    assert gen.padded_K == 12
    assert gen.blocks == 3
    gen64 = binary_expand_generator(RsCode.standard(8, 4), 64)
    assert gen64.padded_K == 72  # 64 is not a multiple of c*m = 12
    assert gen64.stored_bits_per_server == 18


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_binary_view_is_linear(a, b):
    gen = binary_expand_generator(RsCode.standard(4, 2), 16)
    for server in range(4):
        assert gen.apply(server, a ^ b) == gen.apply(server, a) ^ gen.apply(server, b)


@pytest.mark.parametrize("n,c,K", [(4, 2, 8), (4, 2, 17), (8, 4, 64), (6, 3, 24)])
def test_single_bit_updates_touch_one_symbol(n, c, K):
    gen = binary_expand_generator(RsCode.standard(n, c), K)
    m = gen.symbol_bits
    block_bits = c * m
    for server in range(n):
        for k, mask in enumerate(gen.rows[server]):
            block = k // block_bits
            assert mask >> (block * m) < (1 << m)
            assert mask & ((1 << block * m) - 1) == 0


def test_flip_sweep_changes_one_aligned_window():
    gen = binary_expand_generator(RsCode.standard(4, 2), 12)
    m = gen.symbol_bits
    rng = random.Random(5)
    message = rng.randrange(1 << 12)
    for server in range(4):
        base = gen.apply(server, message)
        for k in range(12):
            diff = base ^ gen.apply(server, message ^ (1 << k))
            windows = {
                b for b in range(gen.blocks) if (diff >> (b * m)) & ((1 << m) - 1)
            }
            assert len(windows) <= 1


def test_message_recoverable_from_any_c_servers():
    code = RsCode.standard(4, 2)
    gen = binary_expand_generator(code, 8)
    m = gen.symbol_bits
    rng = random.Random(11)
    for _ in range(25):
        message = rng.randrange(1 << 8)
        stored = [gen.apply(s, message) for s in range(4)]
        for servers in itertools.combinations(range(4), 2):
            rebuilt = 0
            for b in range(gen.blocks):
                syms = {
                    s: (stored[s] >> (b * m)) & ((1 << m) - 1) for s in servers
                }
                block = code.decode(list(syms.items()))
                for j, val in enumerate(block):
                    rebuilt |= val << (b * gen.code.c * m + j * m)
            assert rebuilt == message

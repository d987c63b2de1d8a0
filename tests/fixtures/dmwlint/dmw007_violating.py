"""Fixture: arithmetic bypassing the backend layer (DMW007)."""

import gmpy2


def commit_direct(value, exponent, modulus):
    return gmpy2.powmod(value, exponent, modulus)


def evaluate(share, exponent, modulus):
    return pow(share, exponent, modulus)


def horner(bases, point, modulus):
    powmod = pow
    acc = 1
    for base in reversed(bases):
        acc = powmod(acc * base % modulus, point, modulus)
    return acc


def powers(bases, exponents, moduli):
    return list(map(pow, bases, exponents, moduli))

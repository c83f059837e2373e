"""Independent exact reference arithmetic for checking todamass outputs.

Nothing here imports todamass: the checks must not trust the code they
check.  A form is a dict from a basis key to a nonzero rational, where
key 0 is the constant, key i > 0 is mu_i and key -i is s_i.  A vector is
a tuple of forms, entry 1 first.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

AFFINE_A = "affine_a"
AFFINE_CT = "affine_ct"
FAMILY_FLAG = {AFFINE_A: "a", AFFINE_CT: "ct"}


@lru_cache(maxsize=None)
def cartan(family: str, size: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of an affine family, 0-based rows."""
    k = [[0] * size for _ in range(size)]
    for i in range(size):
        k[i][i] = 2
        for j in (i - 1, i + 1):
            if family == AFFINE_A:
                k[i][j % size] = -1
            elif 0 <= j < size:
                k[i][j] = -2 if i in (0, size - 1) else -1
    return tuple(map(tuple, k))


def add(a: dict, b: dict, scale=1) -> dict:
    """The form a + scale * b."""
    out = dict(a)
    for key, c in b.items():
        v = out.get(key, 0) + scale * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def mu(i: int, coeff=1) -> dict:
    return {i: coeff}


def zero(size: int) -> tuple:
    return ({},) * size


def generic(size: int) -> tuple:
    return tuple({-i: 1} for i in range(1, size + 1))


def apply_generator(i: int, v: tuple, family: str, weights=None) -> tuple:
    """R_i: entry i becomes 2 w_i - sum_t k_it v_t + v_i (1-based i).

    ``weights`` is an optional list of forms standing in for mu_1..mu_m.
    """
    k = cartan(family, len(v))
    new = dict(weights[i - 1]) if weights is not None else {i: 1}
    new = {key: 2 * c for key, c in new.items()}
    for t, kit in enumerate(k[i - 1]):
        if kit:
            new = add(new, v[t], -kit)
    new = add(new, v[i - 1])
    return v[:i - 1] + (new,) + v[i:]


def apply_word(letters, v: tuple, family: str, weights=None) -> tuple:
    """Words act right to left, like todamass.action.apply_word."""
    for i in reversed(tuple(letters)):
        v = apply_generator(i, v, family, weights)
    return v


def phi(v: tuple) -> Fraction:
    """Total mass at mu = (1, ..., 1); the vector must be mu-only."""
    return sum((c for e in v for key, c in e.items() if key >= 0), Fraction(0))


def is_zero(v: tuple) -> bool:
    return not any(v)


# -- quadratic residuals --------------------------------------------------


def product(a: dict, b: dict) -> dict:
    """Exact product of two mu-only forms, keyed by sorted monomial."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            if ka < 0 or kb < 0:
                raise ValueError("seed indeterminates in a residual")
            m = tuple(sorted(x for x in (ka, kb) if x))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def pohozaev(v: tuple, family: str, weights=None) -> dict:
    """The quadratic constraint residual as {monomial: coeff}."""
    size = len(v)
    w = weights if weights is not None else [mu(i) for i in range(1, size + 1)]
    total: dict = {}
    if family == AFFINE_A:
        for i in range(size):
            e, nxt = v[i], v[(i + 1) % size]
            total = add(total, product(e, e))
            total = add(total, product(e, nxt), -1)
            total = add(total, product(w[i], e), -2)
    else:
        n = size - 1
        for i in range(n):
            d = add(v[i], v[i + 1], -1)
            total = add(total, product(d, d))
        for i in range(size):
            factor = 1 if i in (0, n) else 2
            total = add(total, product(w[i], v[i]), -2 * factor)
    return total


def cyclic_difference(v: tuple, weights) -> dict:
    """sum_i (s_i - s_{i+1})^2 - 4 sum_i w_i s_i, cyclic (affine A)."""
    size = len(v)
    total: dict = {}
    for i in range(size):
        d = add(v[i], v[(i + 1) % size], -1)
        total = add(total, product(d, d))
        total = add(total, product(weights[i], v[i]), -4)
    return total


def residual_text(poly: dict) -> str:
    """The residual as `todamass pohozaev` prints it."""
    if not poly:
        return "0"
    bits = []
    for m in sorted(poly):
        c = Fraction(poly[m])
        name = "*".join("mu_%d" % i for i in m)
        bits.append(str(c) if not m else "%s*%s" % (c, name))
    return " + ".join(bits)


# -- interchange ----------------------------------------------------------


def vector_json(family: str, v: tuple) -> str:
    """Vector JSON in the schema `todamass` reads."""
    def entry(e):
        return {"const": str(Fraction(e.get(0, 0))),
                "mu": {str(k): str(Fraction(c)) for k, c in sorted(e.items())
                       if k > 0},
                "s": {str(-k): str(Fraction(c))
                      for k, c in sorted(e.items(), reverse=True) if k < 0}}
    return json.dumps({"family": family, "n": len(v) - 1,
                       "entries": [entry(e) for e in v]})


def vector_from_dict(obj: dict) -> tuple:
    """Forms from a parsed vector JSON object (as todamass writes it)."""
    out = []
    for e in obj["entries"]:
        form: dict = {}
        const = Fraction(e.get("const", "0"))
        if const:
            form[0] = const
        for key, sign in (("mu", 1), ("s", -1)):
            for k, c in e.get(key, {}).items():
                if Fraction(c):
                    form[sign * int(k)] = Fraction(c)
        out.append(form)
    return tuple(out)


def form_from_library(f) -> dict:
    """A form from a todamass LinForm, read through its public fields."""
    form = {0: f.const} if f.const else {}
    form.update({i: c for i, c in f.mu})
    form.update({-i: c for i, c in f.s})
    return form


def vector_from_library(mv) -> tuple:
    """Forms from a todamass MassVector."""
    return tuple(form_from_library(e) for e in mv.entries)


def parse_form(text: str) -> dict:
    """Parse a LinForm as `str()` prints it: '2*mu_1 + -1/2*s_3'."""
    form: dict = {}
    if text == "0":
        return form
    for term in text.split(" + "):
        if "*" not in term:
            form = add(form, {0: Fraction(term)})
            continue
        coeff, var = term.split("*")
        kind, idx = var.split("_")
        key = int(idx) if kind == "mu" else -int(idx)
        form = add(form, {key: Fraction(coeff)})
    return form


def parse_vector_text(text: str) -> tuple:
    """Parse a MassVector as `str()` prints it: '(f1, f2, ...)'."""
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("not a vector: %r" % text)
    return tuple(parse_form(t) for t in text[1:-1].split(", "))


def parse_word(text: str) -> tuple:
    """Parse a Word as printed: '[3 1 2]'."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("not a word: %r" % text)
    return tuple(int(x) for x in text[1:-1].split())


def evaluate(v: tuple, values) -> list:
    """Entries of a mu-only vector at mu_i = values[i-1]."""
    out = []
    for e in v:
        total = Fraction(e.get(0, 0))
        for k, c in e.items():
            if k < 0:
                raise ValueError("seed indeterminates in an evaluation")
            if k:
                total += c * Fraction(values[k - 1])
        out.append(total)
    return out

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvc import EvalError, Grid, ParseError, ProblemSpec, differentiate, evaluate, parse, to_string
from fvc.expr import _FUNCS, Bin, Call, Const, Neg, Var, compile_group, free_variables


class TestParseEval:
    def test_mixed_arithmetic(self):
        e = parse("x1^2 + u1*t", 1)
        assert evaluate(e, {"x1": 2.0, "u1": 3.0, "t": 0.5}) == 5.5

    def test_cosh(self):
        assert evaluate(parse("cosh(t)", 1), {"t": 0.0}) == 1.0

    def test_exp(self):
        assert math.isclose(evaluate(parse("exp(1)", 1), {}), math.e, rel_tol=1e-15)

    def test_sqrt(self):
        assert evaluate(parse("sqrt(x1)", 1), {"x1": 4.0}) == 2.0

    def test_incomplete_expression_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("x1 +", 1)
        assert exc.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("foo + 1", 1)

    def test_index_out_of_range(self):
        parse("x2", 2)
        with pytest.raises(ParseError):
            parse("x2", 1)
        with pytest.raises(ParseError):
            parse("xb3", 2)

    def test_empty_source(self):
        with pytest.raises(ParseError):
            parse("   ", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x1 1", 1)

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2", 1), {}) == 512.0

    def test_unary_minus_binds_below_power(self):
        assert evaluate(parse("-2^2", 1), {}) == -4.0

    def test_division_left_associative(self):
        assert evaluate(parse("6/3/2", 1), {}) == 1.0

    def test_whitespace_insensitive(self):
        a = parse("x1+ 2 *u1", 1)
        b = parse("x1+2*u1", 1)
        env = {"x1": 1.0, "u1": 4.0}
        assert evaluate(a, env) == evaluate(b, env)

    @pytest.mark.parametrize("src, message, offset", [
        ("x1 @ 2", "unexpected character '@'", 3),
        ("(x1", "expected ')'", 3),
        ("t1", "unknown identifier 't1'", 0),
        ("x", "variable 'x' is missing an index", 0),
    ])
    def test_error_message_and_offset(self, src, message, offset):
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse(src, 1)
        assert exc.value.offset == offset

    def test_trailing_whitespace(self):
        assert evaluate(parse("x1 + 1  \t", 1), {"x1": 2.0}) == 3.0

    def test_vectorized_evaluation(self):
        e = parse("x1^2 + t", 1)
        out = evaluate(e, {"x1": np.array([1.0, 2.0]), "t": np.array([0.0, 1.0])})
        assert np.array_equal(out, [1.0, 5.0])

    def test_free_variables(self):
        assert free_variables(parse("x1*u2 + t", 2)) == {"x1", "u2", "t"}


class TestEvalErrors:
    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            evaluate(parse("x1", 1), {})

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("1/(t - t)", 1), {"t": 2.0})

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(x1)", 1), {"x1": -1.0})

    def test_log_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("log(x1)", 1), {"x1": -1.0})


class TestDifferentiate:
    def test_square(self):
        d = differentiate(parse("x1^2", 1), "x1")
        assert evaluate(d, {"x1": 2.0}) == 4.0

    def test_quadratic_lagrangian(self):
        e = parse("0.5*(x1^2 + u1^2)", 1)
        d = differentiate(e, "u1")
        assert evaluate(d, {"x1": 0.0, "u1": 3.0}) == 3.0
        dd = differentiate(d, "u1")
        assert evaluate(dd, {"x1": 7.0, "u1": -2.0}) == 1.0

    def test_other_variable(self):
        d = differentiate(parse("x1^2", 1), "u1")
        assert evaluate(d, {"x1": 5.0}) == 0.0

    def test_abs_at_kink(self):
        d = differentiate(parse("abs(x1)", 1), "x1")
        assert evaluate(d, {"x1": 0.0}) == 0.0
        assert evaluate(d, {"x1": -2.0}) == -1.0

    def test_variable_exponent(self):
        e = parse("x1^u1", 1)
        d = differentiate(e, "u1")
        val = evaluate(d, {"x1": 2.0, "u1": 3.0})
        assert math.isclose(val, 8.0 * math.log(2.0), rel_tol=1e-12)

    def test_constant_base(self):
        d = differentiate(parse("2^x1", 1), "x1")
        assert d == Bin("*", Const(math.log(2.0)), Bin("^", Const(2.0), Var("x1")))
        for x in (-1.5, 0.0, 3.0):
            assert evaluate(d, {"x1": x}) == math.log(2.0) * 2.0**x

    @pytest.mark.parametrize("base", ["0", "(-2)"])
    def test_non_positive_constant_base_fails_at_evaluation(self, base):
        d = differentiate(parse(f"{base}^x1", 1), "x1")
        with pytest.raises(EvalError, match="non-finite value"):
            evaluate(d, {"x1": 1.0})

    def test_quotient(self):
        d = differentiate(parse("x1/u1", 1), "u1")
        assert evaluate(d, {"x1": 6.0, "u1": 2.0}) == -1.5

    # d/dx1 of each source, as a tree with the bits of every constant; the
    # comment names the folding rule that decides the result
    @pytest.mark.parametrize("source, folded", [
        ("x1 + 2*x1", "0x1.8000000000000p+1"),  # constants combine under +: 1 + 2
        ("t + -t", "0x0.0p+0"),  # and before 0 + b = b: 0.0 + -0.0 is +0.0
        ("t - t", "0x0.0p+0"),  # constants combine under - before 0 - b = -b
        ("t + sin(x1)", ("cos", "x1")),  # 0 + b = b
        ("sin(x1) + t", ("cos", "x1")),  # a + 0 = a
        ("sin(x1) - t", ("cos", "x1")),  # a - 0 = a
        ("t - sin(x1)", ("neg", ("cos", "x1"))),  # 0 - b = -b
        ("x1 * u1", "u1"),  # 1 * b = b and a * 0 = 0
        ("u1 * x1", "u1"),  # 0 * b = 0 and a * 1 = a
        ("t * 1e400", "nan"),  # constants combine under * before 0 * b = 0: 0 * inf
        ("(1e400)^3", "nan"),  # constants combine under ^: 3 * inf^2, times 0
        ("x1 / 2", ("/", "0x1.0000000000000p+0", "0x1.0000000000000p+1")),  # 1/2 stays
        ("t / x1", ("neg", ("/", "t", ("*", "x1", "x1")))),  # 0 / b = 0
        ("sin(x1) / 1", ("cos", "x1")),  # a / 1 = a
        ("(-t)/1", "0x0.0p+0"),  # 0 / b = +0.0 before a / 1 = a: -0.0/1 is +0.0
        ("x1^2", ("*", "0x1.0000000000000p+1", "x1")),  # a ^ 1 = a
        ("x1^1", "0x1.0000000000000p+0"),  # a ^ 0 = 1
    ])
    def test_folding_rules(self, source, folded):
        def shape(e):
            if isinstance(e, Const):
                return float.hex(e.value)
            if isinstance(e, Var):
                return e.name
            if isinstance(e, (Neg, Call)):
                return ("neg" if isinstance(e, Neg) else e.fn, shape(e.arg))
            return (e.op, shape(e.left), shape(e.right))

        assert shape(differentiate(parse(source, 1), "x1")) == folded


def _random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return repr(round(rng.uniform(0.2, 3.0), 3))
        return rng.choice(["t", "x1", "u1"])
    roll = rng.random()
    if roll < 0.55:
        op = rng.choice(["+", "-", "*"])
        return f"({_random_expr(rng, depth - 1)} {op} {_random_expr(rng, depth - 1)})"
    if roll < 0.7:
        return f"({_random_expr(rng, depth - 1)})^{rng.integers(1, 4)}"
    fn = rng.choice(["sin", "cos", "exp", "cosh", "sinh"])
    return f"{fn}({_random_expr(rng, depth - 1)})"


class TestRandomized:
    def test_derivative_matches_finite_difference(self, rng):
        step = 1e-5
        checked = 0
        for _ in range(1000):
            src = _random_expr(rng)
            e = parse(src, 1)
            var = rng.choice(["t", "x1", "u1"])
            d = differentiate(e, var)
            env = {n: rng.uniform(-1.0, 1.0) for n in ("t", "x1", "u1")}
            try:
                sym = float(evaluate(d, env))
                hi = dict(env, **{var: env[var] + step})
                lo = dict(env, **{var: env[var] - step})
                fd = (float(evaluate(e, hi)) - float(evaluate(e, lo))) / (2 * step)
            except EvalError:
                continue
            scale = 1.0 + abs(float(evaluate(e, env)))
            assert abs(sym - fd) <= 2e-5 * scale * (1.0 + abs(sym)), src
            checked += 1
        assert checked > 800

    def test_print_parse_round_trip(self, rng):
        for _ in range(300):
            src = _random_expr(rng)
            e = parse(src, 1)
            back = parse(to_string(e), 1)
            env = {n: rng.uniform(-1.0, 1.0) for n in ("t", "x1", "u1")}
            try:
                a = float(evaluate(e, env))
            except EvalError:
                continue
            assert float(evaluate(back, env)) == a

    def test_round_trip_of_derivatives(self, rng):
        for _ in range(200):
            e = differentiate(parse(_random_expr(rng), 1), "x1")
            back = parse(to_string(e), 1)
            env = {n: rng.uniform(0.1, 1.0) for n in ("t", "x1", "u1")}
            try:
                a = float(evaluate(e, env))
            except EvalError:
                continue
            assert math.isclose(float(evaluate(back, env)), a, rel_tol=1e-12)


# -- compiled evaluation against a tree walk ---------------------------------------


def _walk(e, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_walk(e.arg, env)
    if isinstance(e, Call):
        return _FUNCS[e.fn](_walk(e.arg, env))
    left, right = _walk(e.left, env), _walk(e.right, env)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    if e.op == "/":
        return np.true_divide(left, right)
    return np.power(left, right)


def reference(e, env):
    """The elementwise tree walk that compiled evaluation reproduces bit for bit."""
    with np.errstate(all="ignore"):
        out = _walk(e, env)
    if not np.all(np.isfinite(out)):
        raise EvalError(f"non-finite value while evaluating {to_string(e)!r}")
    return out


def outcome(fn, *args):
    """(type, shape, bytes) of a result, or (error type, message)."""
    try:
        out = fn(*args)
    except EvalError as exc:
        return EvalError, str(exc)
    return type(out), np.shape(out), np.asarray(out).tobytes()


VERIFY_LAGRANGIAN = (
    "0.5*(u1^2 + u2^2 + u3^2) + 0.5*(x1^2 + x2^2 + x3^2)"
    " + 0.2*sin(x1)*u2 + 0.1*x3*u1 + 0.05*t*x2^2"
)
CORPUS = ["0.5*(x1^2 + u1^2) - t*x1", "sqrt(abs(x1))", "x1^-2", "2^x1", "x1^u1"]


def corpus_envs(names, rng):
    scalar = {n: float(v) for n, v in zip(names, rng.uniform(-2.0, 2.0, len(names)))}
    array = {n: rng.uniform(-2.0, 2.0, 33) for n in names}
    positive = {n: np.abs(v) + 0.1 for n, v in array.items()}
    signed_zeros = {n: np.concatenate([[0.0, -0.0], v[2:]]) for n, v in array.items()}
    return [scalar, array, positive, signed_zeros]


class TestCompiledEvaluation:
    def test_corpus_matches_tree_walk(self, rng):
        for src in CORPUS:
            e = parse(src, 1)
            for env in corpus_envs(["t", "x1", "u1"], rng):
                assert outcome(evaluate, e, env) == outcome(reference, e, env), src

    def test_second_derivatives_of_a_3d_lagrangian(self, rng):
        spec = ProblemSpec(
            alpha=0.7, beta=0.8, grid=Grid(0.0, 1.0, 8), dim=3,
            phi=parse("xb1", 3), lagrangian=parse(VERIFY_LAGRANGIAN, 3),
        )
        entries = [e for r in "xu" for c in "xu" for row in spec.d2_lagrangian(r, c) for e in row]
        names = ["t", "x1", "x2", "x3", "u1", "u2", "u3"]
        for env in corpus_envs(names, rng)[:3]:
            group = compile_group(entries, names)(*[env[n] for n in names])
            for e, got in zip(entries, group):
                expected = outcome(reference, e, env)
                assert outcome(evaluate, e, env) == expected
                assert outcome(lambda: got) == expected

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_trees_match_tree_walk(self, data):
        leaf = st.sampled_from(["t", "x1", "u1", "0", "-0", "0.5", "2", "3.25", "1e999"])
        unary = st.sampled_from(sorted(_FUNCS.keys() - {"sign"}) + ["-"])
        src = data.draw(st.recursive(leaf, lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            st.tuples(unary, inner).map(lambda p: f"{p[0]}({p[1]})"),
        ), max_leaves=10))
        e = parse(src, 1)
        values = data.draw(st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
        env = dict(zip(["t", "x1", "u1"], values))
        envs = [env, {k: np.array([v, -v, 0.0]) for k, v in env.items()}]
        envs.append({k: v for k, v in env.items() if k != data.draw(st.sampled_from(list(env)))})
        for env in envs:
            assert outcome(evaluate, e, env) == outcome(reference, e, env), src

    @pytest.mark.parametrize("src, env", [
        ("log(1 + x1)", {"x1": -1.0}),
        ("1/0", {}),
        ("t*u1 + x1", {"t": 1.0, "x1": 2.0}),
    ])
    def test_error_text_unchanged(self, src, env):
        e = parse(src, 1)
        kind, message = outcome(evaluate, e, env)
        assert kind is EvalError
        assert (kind, message) == outcome(reference, e, env)
        with pytest.raises(EvalError) as exc:
            compile_group([e], list(env))(*env.values())
        assert str(exc.value) == message

    def test_constant_tree_returns_python_float(self):
        for src in ["2", "-0.5", "2^3^2", "exp(0)*0"]:
            e = parse(src, 1)
            assert outcome(evaluate, e, {}) == outcome(reference, e, {})
        assert type(evaluate(parse("2", 1), {})) is float
        assert compile_group([parse("-0.5", 1)], [])() == (-0.5,)

    def test_infinite_constant_raises(self):
        for src in ["1e999", "x1 + 1e999"]:
            with pytest.raises(EvalError, match="non-finite"):
                evaluate(parse(src, 1), {"x1": 1.0})

    def test_signed_zero_constants_kept_apart(self):
        # Const(0.0) == Const(-0.0), so the compiled-function cache must not merge them
        assert evaluate(parse("0", 1), {}).hex() == "0x0.0p+0"
        assert evaluate(parse("-0", 1), {}).hex() == "-0x0.0p+0"
        assert evaluate(parse("x1*0", 1), {"x1": -1.0}).hex() == "-0x0.0p+0"
        assert evaluate(parse("x1*-0", 1), {"x1": -1.0}).hex() == "0x0.0p+0"

    def test_constants_and_names_bound_as_values(self):
        class Shown(float):
            def __repr__(self):
                return "1/0"

        e = Bin("*", Const(Shown(2.5)), Var("x1); import os; (x"))
        assert evaluate(e, {"x1); import os; (x": 2.0}) == 5.0
        with pytest.raises(EvalError, match="unbound variable"):
            evaluate(e, {})
        with pytest.raises(KeyError):
            evaluate(Call("__import__", Const(0.0)), {})

    def test_equal_trees_share_compiled_code(self):
        a = compile_group([parse("sin(x1)*u1", 1)], ["x1", "u1"])
        b = compile_group([parse("sin(x1) * u1", 1)], ["x1", "u1"])
        assert a is b
        assert compile_group([parse("sin(x1)*u1", 1)], ["u1", "x1"]) is not a

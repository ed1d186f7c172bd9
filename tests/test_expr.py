"""Expression parser/evaluator against an independent tree-walking oracle."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumhessian.expr import (
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    SyntaxErrorAt,
    UnknownIdentifierError,
    Var,
    diff,
    evaluate,
    parse,
    to_source,
    variables,
)


def oracle_eval(node, env):
    """Independent reference evaluator (math module, no numpy). Like
    ``evaluate``, it fails on a non-finite intermediate result."""
    value = _oracle_value(node, env)
    if not math.isfinite(value):
        raise OverflowError(f"non-finite {value}")
    return value


def _oracle_value(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -oracle_eval(node.operand, env)
    if isinstance(node, Call):
        arg = oracle_eval(node.arg, env)
        return {
            "exp": math.exp, "log": math.log, "sin": math.sin,
            "cos": math.cos, "sqrt": math.sqrt, "abs": abs,
        }[node.func](arg)
    if isinstance(node, BinOp):
        left = oracle_eval(node.left, env)
        right = oracle_eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left / right
        if node.op == "^":
            return math.pow(left, right)
    raise TypeError(node)


class TestParse:
    def test_literal_fold_on_evaluation(self):
        assert evaluate(parse("12 + 6"), {}) == 18.0

    def test_identifiers(self):
        assert evaluate(parse("x1^2 + x2^2"), {"x1": 1.0, "x2": 2.0}) == 5.0
        assert evaluate(parse("exp(u) * (1 + p1^2)"), {"u": 0.0, "p1": 2.0}) == 5.0

    def test_precedence(self):
        assert evaluate(parse("2+3*4^2"), {}) == 50.0
        assert evaluate(parse("-2^2"), {}) == -4.0
        assert evaluate(parse("2^-2"), {}) == 0.25
        assert evaluate(parse("2^3^2"), {}) == 512.0  # right-associative
        assert evaluate(parse("6/3/2"), {}) == 1.0    # left-associative
        assert evaluate(parse("1 - 2 - 3"), {}) == -4.0

    def test_whitespace_insensitive(self):
        assert parse("1+2 * x1") == parse(" 1 + 2*x1 ")

    def test_syntax_error_offset(self):
        with pytest.raises(SyntaxErrorAt) as err:
            parse("1 + * 2")
        assert err.value.offset == 4
        assert "expected" in str(err.value)
        with pytest.raises(SyntaxErrorAt) as err:
            parse("2 $ 3")  # no token starts at '$'
        assert (err.value.offset, err.value.expected) == (2, "a token")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("1 + y2")
        assert err.value.name == "y2"

    def test_unbalanced_paren(self):
        with pytest.raises(SyntaxErrorAt):
            parse("(1 + 2")
        with pytest.raises(SyntaxErrorAt):
            parse("exp 2")

    def test_trailing_garbage(self):
        with pytest.raises(SyntaxErrorAt):
            parse("1 + 2 )")

    @pytest.mark.parametrize("source,offset", [("1e999", 0), ("2 * 1e400", 4),
                                               ("x1 - 9e9999", 5)])
    def test_non_finite_literal_rejected(self, source, offset):
        with pytest.raises(SyntaxErrorAt) as err:
            parse(source)
        assert err.value.expected == "a finite number"
        assert err.value.offset == offset

    def test_largest_finite_literal_round_trips(self):
        node = parse("1.7976931348623157e308")
        assert node == Num(1.7976931348623157e308)
        assert parse(to_source(node)) == node


class TestEvaluate:
    def test_division_by_zero(self):
        with pytest.raises(EvalError) as err:
            evaluate(parse("1/(x1 - 1)"), {"x1": 1.0})
        assert "division by zero" in str(err.value)

    def test_sqrt(self):
        assert evaluate(parse("sqrt(4)"), {}) == 2.0
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(0 - 4)"), {})

    def test_log_domain(self):
        with pytest.raises(EvalError) as err:
            evaluate(parse("log(u)"), {"u": -1.0})
        assert "log" in str(err.value)

    def test_overflow_is_an_error(self):
        with pytest.raises(EvalError):
            evaluate(parse("exp(x1)"), {"x1": 1e4})

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError):
            evaluate(parse("(0-2)^(1/2)"), {})

    def test_vectorized(self):
        import numpy as np

        out = evaluate(parse("x1^2 + u"), {"x1": np.array([1.0, 2.0]), "u": np.array([1.0, 1.0])})
        assert np.allclose(out, [2.0, 5.0])

    def test_unbound_identifier(self):
        with pytest.raises(EvalError):
            evaluate(parse("x1 + 1"), {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_binding_rejected(self, bad):
        import numpy as np

        # a bare leaf passes no checked operator, so the binding is checked
        for source in ("u", "x1 + u", "0 * u"):
            with pytest.raises(EvalError) as err:
                evaluate(parse(source), {"x1": 1.0, "u": np.array([1.0, bad])})
            assert "non-finite binding in 'u'" in str(err.value)
        # an unused non-finite binding is not the tree's business
        assert evaluate(parse("x1"), {"x1": 2.0, "u": bad}) == 2.0


def node_strategy():
    leaves = st.one_of(
        st.floats(min_value=0.1, max_value=4.0).map(lambda v: Num(round(v, 3))),
        st.sampled_from([Var("x1"), Var("x2"), Var("u"), Var("p1")]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])),
            children.map(Neg),
            st.tuples(st.sampled_from(["exp", "sin", "cos", "abs"]), children).map(
                lambda t: Call(t[0], t[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestOracle:
    @given(node_strategy(), st.floats(0.1, 2.0), st.floats(0.1, 2.0),
           st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_evaluator(self, node, x1, x2, u, p1):
        env = {"x1": x1, "x2": x2, "u": u, "p1": p1}
        try:
            want = oracle_eval(node, env)
        except (ZeroDivisionError, OverflowError, ValueError):
            # a genuine domain failure, such as 1/u overflowing at a
            # subnormal u: ours must raise too
            with pytest.raises(EvalError):
                evaluate(node, env)
            return
        got = evaluate(node, env)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(node_strategy())
    @settings(max_examples=300, deadline=None)
    def test_print_parse_fixpoint(self, node):
        assert parse(to_source(node)) == node


class TestVariables:
    def test_collects_names(self):
        assert variables(parse("x1 + exp(p2*u) - x1")) == {"x1", "p2", "u"}
        assert variables(parse("1 + 2")) == set()


# every operator and function, with u, p1 and x1 in [0.5, 1]: log, sqrt and
# the non-constant power bases stay positive, abs arguments away from 0
DIFF_CASES = [
    "x1 + u*p1",
    "x1 - u/p1",
    "-(u*x1) - p1",
    "u^3 + p1^2.5 - x1^0.5",
    "x1^u + u^(p1*x1)",
    "exp(u*p1) * log(x1 + u)",
    "sin(u*x1) + cos(p1 - u)",
    "sqrt(u + p1^2) / (1 + x1*x1)",
    "abs(u - 3*p1) + abs(x1*u)",
    "exp(sin(u)*x1) / (1 + p1^2)^2",
]


class TestDiff:
    @pytest.mark.parametrize("source", DIFF_CASES)
    @pytest.mark.parametrize("var", ["x1", "u", "p1"])
    def test_matches_central_differences(self, source, var):
        import numpy as np

        rng = np.random.default_rng(7)
        env = {name: rng.uniform(0.5, 1.0, size=20) for name in ("x1", "u", "p1")}
        node = parse(source)
        step = 1e-6
        plus = evaluate(node, {**env, var: env[var] + step})
        minus = evaluate(node, {**env, var: env[var] - step})
        got = evaluate(diff(node, var), env)
        assert np.allclose(got, (plus - minus) / (2 * step), rtol=1e-6, atol=1e-6)

    def test_absent_variable_is_zero(self):
        assert diff(parse("x1^2 + exp(u) * p1"), "p2") == Num(0.0)
        assert diff(parse("3"), "u") == Num(0.0)

    def test_abs_at_zero_is_an_error(self):
        with pytest.raises(EvalError) as err:
            evaluate(diff(parse("abs(u)"), "u"), {"u": 0.0})
        assert "abs(u)" in str(err.value)

    @given(node_strategy(), st.sampled_from(["x1", "x2", "u", "p1"]))
    @settings(max_examples=300, deadline=None)
    def test_print_parse_round_trip(self, node, var):
        derivative = diff(node, var)
        assert parse(to_source(derivative)) == derivative

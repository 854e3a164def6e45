import subprocess
import sys
from importlib import import_module

import pytest

import hf2
from hf2 import duality, engine, monomial, reps

# The package surface: the names each submodule exports at package level.
# Each submodule is exported under its own name too.
EXPORTS = {
    "reps": ["Degree", "DegreeError", "make_degree", "underlying_dim", "fixed_dim", "restrict",
             "pullback_eps", "parse_degree", "format_degree"],
    "monomial": ["Monomial", "MonomialError", "degree_of", "multiply", "is_gold_zero",
                 "positive_cone_basis", "parse_monomial", "format_monomial"],
    "engine": ["AnswerBasis", "BasisElement", "basis", "dimension", "part2", "part2_closed",
               "part3", "part4", "part_pos", "d_divisible", "summand_count", "summand_audit"],
    "tate": ["group_cohomology_dim", "hh_basis", "ht_basis", "hb_basis", "perp_hb_basis"],
    "duality": ["dual_degree", "dual_monomial", "duality_scan", "lambda_class"],
    "oracle": ["BudgetExceededError", "MackeyAnswer", "oracle_pi", "oracle_top_dim",
               "verify_lemma_kernel"],
    "gf2": [],
}
SURFACE = [(module, name) for module, names in EXPORTS.items() for name in (module, *names)]


def test_all_is_the_surface():
    assert hf2.__all__ == sorted(name for _, name in SURFACE)


@pytest.mark.parametrize("module, name", SURFACE, ids=[name for _, name in SURFACE])
def test_name_is_the_submodules_object(module, name):
    source = import_module(f"hf2.{module}")
    expected = source if name == module else getattr(source, name)
    assert getattr(hf2, name) is expected
    assert name in dir(hf2)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hf2 import *", namespace)
    assert all(namespace[name] is getattr(hf2, name) for name in hf2.__all__)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="nosuch"):
        hf2.nosuch
    with pytest.raises(ImportError):
        from hf2 import nosuch  # noqa: F401


def test_submodule_resolves_on_first_access():
    # in a fresh process, where `import hf2` has loaded no submodule
    proc = subprocess.run(
        [sys.executable, "-c", "import hf2; print(hf2.oracle.DEFAULT_BUDGET, hf2.dimension.__module__)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(import_module("hf2.oracle").DEFAULT_BUDGET), "hf2.engine"]


def test_queries_load_no_dataclasses():
    # in a fresh process: a one-shot dim, then an oracle query, through the
    # CLI entry point, loads neither dataclasses nor the inspect it imports
    code = """
import io, sys
from contextlib import redirect_stdout
bare = {"dataclasses", "inspect"} & set(sys.modules)
from hf2.cli import main
for argv in (["dim", "--n", "3", "--deg=-1,0,1,-1"], ["oracle", "--n", "3", "--deg=-1,0,1,-1"]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    print(" ".join(argv[:1] + sorted({"dataclasses", "inspect"} & set(sys.modules) - bare)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["dim", "oracle", ""]


unit, zero = monomial.unit, reps.zero_degree
DegreeError, MonomialError = reps.DegreeError, monomial.MonomialError


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: duality.lambda_class(1), DegreeError, "the duality unit needs n >= 2",
                 id="lambda_class"),
    pytest.param(lambda: duality.dual_monomial(unit(1)), DegreeError, "duality needs n >= 2",
                 id="dual_monomial"),
    pytest.param(lambda: engine.part3(2, zero(2)), DegreeError, "part3 blocks need n >= 3",
                 id="part3"),
    pytest.param(lambda: engine.d_divisible(1, "aL0", zero(1)), DegreeError,
                 "the a_lambda_0-divisible set needs n >= 2", id="d_divisible-aL0"),
    pytest.param(lambda: engine.d_divisible(2, "aL1", zero(2)), DegreeError,
                 "the a_lambda_1-divisible set needs n >= 3", id="d_divisible-aL1"),
    pytest.param(lambda: engine.summand_audit(0), DegreeError, "n must be >= 1, got 0",
                 id="summand_audit"),
    pytest.param(lambda: monomial.multiply(unit(1), unit(2)), MonomialError,
                 "group mismatch: n=1 vs n=2", id="multiply"),
    pytest.param(lambda: monomial.times_a_lambda(unit(2), 1, 1), MonomialError,
                 "lambda index 1 out of range for n=2", id="times_a_lambda"),
    pytest.param(lambda: monomial.parse_monomial("S*S", 2), MonomialError,
                 "repeated suspension factor", id="parse_monomial"),
    pytest.param(lambda: reps.lambda_degree(2, 1), DegreeError,
                 "lambda index 1 out of range for n=2", id="lambda_degree"),
    pytest.param(lambda: reps.restrict(zero(2), 3), DegreeError,
                 "restriction target m=3 out of range for n=2", id="restrict"),
    pytest.param(lambda: reps.strip_lambda0(zero(1)), DegreeError,
                 "strip_lambda0 needs n >= 2", id="strip_lambda0"),
])
def test_input_refusal(call, error, message):
    # the input checks that no other test reaches, each with its class and
    # its message
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message

import dataclasses
import json
from fractions import Fraction

import pytest

from k3verify import cli, families, lattice
from k3verify.cli import main
from k3verify.eliminate import PitConfig
from k3verify.wpoly import NotDivisibleError, WeightedPolynomial


def test_dims_exit_zero(capsys):
    assert main(["dims", "--max-weight", "80"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_dims_json_schema(capsys):
    assert main(["dims", "--max-weight", "40", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("suite", "checks", "seed", "runtime_ms", "constants"):
        assert key in report
    assert report["suite"] == "dims"
    assert all(c["status"] in ("pass", "fail", "inconclusive") for c in report["checks"])


def test_fibers_single_point(capsys):
    assert main(["fibers", "--t", "1,1,1,1,2"]) == 0
    out = capsys.readouterr().out
    assert "II*" in out and "IV*" in out


def test_fibers_fixture_suite(capsys):
    assert main(["fibers", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "fibers"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_fibers_bad_point_exit_two():
    assert main(["fibers", "--t", "1,2"]) == 2
    assert main(["fibers", "--t", "1,1,banana,1,2"]) == 2


@pytest.mark.parametrize("text", ["1/0,1,1,1,1", "1,1,banana,1,2"],
                         ids=["zero-denominator", "non-numeric"])
def test_fibers_bad_t_exits_two_naming_the_flag(capsys, text):
    assert main(["fibers", "--t", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t ")
    assert "Traceback" not in captured.err


def test_unknown_subcommand_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cd_suite(capsys):
    assert main(["cd", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["constants"]["c_prime"] == "544195584"
    assert all(c["status"] == "pass" for c in report["checks"])


def test_disc_factor_pit(capsys):
    assert main(["disc-factor", "--pit", "--trials", "12", "--seed", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["constants"]["c"] == "2176782336"
    assert report["seed"] == 3


def test_lattices_user_file_failure(tmp_path, capsys):
    # a lattice that fails the verification conditions yields exit code 1
    bad = tmp_path / "lat.json"
    gram = [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 0],
        [0, 0, 2, 0, 0, 0],
        [0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 2, 0],
    ]
    bad.write_text(json.dumps({"label": "user", "gram": gram}))
    assert main(["lattices", "--lattice", str(bad)]) == 1


def test_lattices_user_file_missing():
    assert main(["lattices", "--lattice", "/nonexistent/lat.json"]) == 2


@pytest.mark.parametrize(
    "content",
    [None, '{"gram": 5}', '{"label": "x"}', "[[0, 1], [1, 0]]"],
    ids=["missing", "gram-not-a-list", "no-gram", "top-level-list"],
)
def test_lattices_bad_user_file_exits_two_before_any_check(tmp_path, monkeypatch,
                                                          capsys, content):
    path = tmp_path / "lat.json"
    if content is not None:
        path.write_text(content)
    built_in = []
    monkeypatch.setattr(lattice, "a_lattice", lambda: built_in.append(1))
    assert main(["lattices", "--lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert built_in == []
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_lattices_negative_bound_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattices", "--bound", "-1"])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


def _statuses(capsys):
    report = json.loads(capsys.readouterr().out)
    return {c["name"]: c["status"] for c in report["checks"]}


def test_disc_factor_symbolic_wrong_factorization_fails(monkeypatch, capsys):
    # the true disc(R) and d90, but c is twice the true constant
    d90 = families.printed_d90()
    true_disc = 2176782336 * families.r_poly() ** 3 * d90
    wrong = families.DiscFactorization(c=2 * 2176782336, disc=true_disc, d90_derived=d90)
    monkeypatch.setattr(families, "disc_factorization", lambda: wrong)
    assert main(["disc-factor", "--symbolic", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc(R) = c * r^3 * d90 (symbolic)"] == "fail"
    assert statuses["c = 2176782336"] == "fail"


def test_cd_wrong_factorization_fails(monkeypatch, capsys):
    true = families.cd_disc_factorization()
    gamma = WeightedPolynomial.variable(families.CD_TABLE, "gamma")
    wrong = dataclasses.replace(true, d0=true.d0 + gamma ** 6)
    monkeypatch.setattr(families, "cd_disc_factorization", lambda: wrong)
    assert main(["cd", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc(R0) = c' * gamma^3 * r0^3 * d0"] == "fail"
    assert statuses["c' = 544195584"] == "pass"


def test_cd_wrong_constant_fails(monkeypatch, capsys):
    true = families.cd_disc_factorization()
    wrong = dataclasses.replace(true, c_prime=true.c_prime / 4, d0=4 * true.d0)
    monkeypatch.setattr(families, "cd_disc_factorization", lambda: wrong)
    assert main(["cd", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc(R0) = c' * gamma^3 * r0^3 * d0"] == "pass"
    assert statuses["c' = 544195584"] == "fail"


def test_disc_factor_pit_wrong_d90_fails(monkeypatch, capsys):
    # d90 + t18^5 has the same weight 90, so only the values can expose it
    t18 = WeightedPolynomial.variable(families.T_TABLE, "t18")
    wrong = families.printed_d90() + t18 ** 5
    monkeypatch.setattr(families, "printed_d90", lambda: wrong)
    _c, _used, ok, witness = families.pit_disc_factorization(PitConfig(trials=12, seed=3))
    assert ok is False
    assert len(witness) == 5 and witness[4] != 0
    assert main(["disc-factor", "--pit", "--trials", "12", "--seed", "3", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc(R) = c * r^3 * d90 (probabilistic)"] == "fail"


def _raise(exc):
    def runner(*_args, **_kwargs):
        raise exc
    return runner


@pytest.mark.parametrize(
    "command, target, exc",
    [
        (["disc-factor"], "disc_factorization", NotDivisibleError("t4 + 1")),
        (["disc-factor"], "disc_factorization",
         OverflowError("monomial product exceeds the packing width")),
        (["cd", "--json"], "cd_disc_factorization",
         families.ConsistencyFailure("R0 is not a quintic in x1")),
    ],
    ids=["not-divisible", "overflow", "consistency"],
)
def test_internal_error_exits_three(monkeypatch, capsys, command, target, exc):
    monkeypatch.setattr(families, target, _raise(exc))
    assert main(command) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {type(exc).__name__}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_d90_check_recorded_failure_exits_one(monkeypatch, capsys):
    mismatch = families.ConsistencyFailure("d90 derivation differs in 1 monomials")
    monkeypatch.setattr(families, "d90_poly", _raise(mismatch))
    assert main(["d90-check", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["derived d90 equals printed d90 term-for-term"] == "fail"


def test_user_lattice_failing_signature_skips_search(tmp_path, monkeypatch, capsys):
    # I7(2) is positive definite: the signature condition fails, so the
    # bound-3 box search (823,543 points) would not change the verdict
    path = tmp_path / "i7.json"
    gram = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    path.write_text(json.dumps({"label": "I7(2)", "gram": gram}))
    search = lattice._minus_two_search

    def built_in_only(lat, bound):
        assert lat.label != "I7(2)", "searched a lattice whose verdict was fixed"
        return search(lat, bound)

    monkeypatch.setattr(lattice, "_minus_two_search", built_in_only)
    assert main(["lattices", "--lattice", str(path), "--bound", "3", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["kneser_check(I7(2))"] == "fail"


def test_pit_constant_is_checked(monkeypatch, capsys):
    # a doubled discriminant passes the residual test but not the constant
    doubled = (2 * Fraction(2176782336), 100, True, None)
    monkeypatch.setattr(families, "pit_disc_factorization", lambda _cfg: doubled)
    assert main(["disc-factor", "--pit", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc(R) = c * r^3 * d90 (probabilistic)"] == "pass"
    assert statuses["c = 2176782336"] == "fail"


@pytest.fixture
def fresh_disc_factorization():
    families.disc_factorization.cache_clear()
    yield
    families.disc_factorization.cache_clear()


def test_all_checks_the_symbolic_constant(monkeypatch, capsys, fresh_disc_factorization):
    # a doubled disc(R) keeps d90 as its primitive part, so d90-check passes;
    # only the exact constant of the symbolic disc-factor can fail
    discriminant = families.discriminant
    monkeypatch.setattr(families, "discriminant", lambda *args: 2 * discriminant(*args))
    assert main(["all", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc-factor.disc(R) = c * r^3 * d90 (symbolic)"] == "pass"
    assert [name for name, status in statuses.items() if status == "fail"] == [
        "disc-factor.c = 2176782336"]


@pytest.mark.parametrize("weight", ["-5", "401", "ten"])
def test_dims_max_weight_out_of_range_exits_two(capsys, weight):
    for command in ("dims", "all"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--max-weight", weight])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-weight" in captured.err
        assert "Traceback" not in captured.err


def test_dims_max_weight_zero_is_accepted(capsys):
    assert main(["dims", "--max-weight", "0", "--json"]) == 0
    assert all(status == "pass" for status in _statuses(capsys).values())


@pytest.mark.parametrize("exc", [KeyError("t99"), TypeError("unsupported operand")],
                         ids=["key-error", "type-error"])
def test_any_escaping_exception_exits_three(monkeypatch, capsys, exc):
    monkeypatch.setattr(cli, "run_dims", _raise(exc))
    assert main(["dims"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {type(exc).__name__}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err

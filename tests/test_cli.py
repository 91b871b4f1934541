import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from k3verify import cli, exactalg, families, lattice, weierstrass
from k3verify.cli import main
from k3verify.eliminate import PitConfig
from k3verify.wpoly import NotDivisibleError, WeightedPolynomial


def test_import_loads_neither_dataclasses_nor_inspect():
    # all three cost start-up time; a fresh interpreter without site or
    # environment sees only what the package itself imports
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import k3verify.cli; "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_runtime_imports_only_the_standard_library():
    # every module of the package, imported in a fresh interpreter: each
    # top-level name it adds to sys.modules is k3verify or the stdlib's
    package = Path(cli.__file__).resolve().parent
    names = sorted(f"k3verify.{p.stem}" for p in package.glob("[!_]*.py"))
    code = ("import sys\nbefore = set(sys.modules)\n"
            f"for name in {names!r}:\n    __import__(name)\n"
            "print(*sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    top = {name.partition(".")[0] for name in out.split()}
    assert "k3verify" in top
    assert top - set(sys.stdlib_module_names) == {"k3verify"}


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
    [None, '{"gram": 5}', '{"label": "x"}', "[[0, 1], [1, 0]]", '{"gram": []}',
     '{"gram": [[0, 0], [0, 0]]}', '{"gram": ' + "[" * 100_000 + "]" * 100_000 + "}"],
    ids=["missing", "gram-not-a-list", "no-gram", "top-level-list", "empty-gram",
         "degenerate-gram", "nested-too-deeply"],
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
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_lattices_negative_bound_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lattices", "--bound", "-1"])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3", "100001", "ten"])
@pytest.mark.parametrize("command,runner", [("disc-factor", "run_disc_factor"),
                                            ("irreducible", "run_irreducible"),
                                            ("all", "run_all")])
def test_trials_out_of_range_exits_two(monkeypatch, capsys, trials, command, runner):
    ran = []
    monkeypatch.setattr(cli, runner, lambda args: ran.append(args))
    with pytest.raises(SystemExit) as exc:
        main([command, "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert "--trials" in captured.err
    assert "Traceback" not in captured.err


def test_trials_range_ends_are_accepted():
    parser = cli._build_parser()
    for trials in (1, 100_000):
        assert parser.parse_args(["disc-factor", "--trials", str(trials)]).trials == trials


def _statuses(capsys):
    report = json.loads(capsys.readouterr().out)
    return {c["name"]: c["status"] for c in report["checks"]}


def test_disc_factor_symbolic_wrong_factorization_fails(monkeypatch, capsys):
    # the true disc(R) and d90, but c is twice the true constant
    d90 = families.printed_d90()
    true_disc = 2176782336 * families.r_poly() ** 3 * d90
    wrong = families.DiscFactorization(c=2 * 2176782336, disc=true_disc, d90_derived=d90)
    monkeypatch.setattr(families, "disc_factorization", lambda: wrong)
    assert main(["disc-factor", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc(R) = c * r^3 * d90 (symbolic)"] == "fail"
    assert statuses["c = 2176782336"] == "fail"


def test_cd_wrong_factorization_fails(monkeypatch, capsys):
    true = families.cd_disc_factorization()
    gamma = WeightedPolynomial.variable(families.CD_TABLE, "gamma")
    wrong = true._replace(d0=true.d0 + gamma ** 6)
    monkeypatch.setattr(families, "cd_disc_factorization", lambda: wrong)
    assert main(["cd", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc(R0) = c' * gamma^3 * r0^3 * d0"] == "fail"
    assert statuses["c' = 544195584"] == "pass"


def test_cd_inhomogeneous_d0_fails(monkeypatch, capsys):
    # d0 keeps its top weight 60 but gains a term of weight 20: only the
    # homogeneity part of the weight check can catch it
    true = families.cd_disc_factorization()
    gamma = WeightedPolynomial.variable(families.CD_TABLE, "gamma")
    wrong = true._replace(d0=true.d0 + gamma ** 2)
    assert wrong.d0.weighted_degree() == 60
    monkeypatch.setattr(families, "cd_disc_factorization", lambda: wrong)
    assert main(["cd", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["weighted degrees (gamma^3, r0^3, d0) = (30, 60, 60)"] == "fail"
    assert statuses["c' = 544195584"] == "pass"


def test_cd_wrong_constant_fails(monkeypatch, capsys):
    true = families.cd_disc_factorization()
    wrong = true._replace(c_prime=true.c_prime // 4, d0=4 * true.d0)
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


def test_all_reports_every_suite_when_two_raise(monkeypatch, capsys):
    # a crashed suite becomes one error check; the other suites still run,
    # the report is printed, and any error exits 3
    monkeypatch.setattr(cli, "_MANIFEST", (
        ("dims", cli.run_dims),
        ("lattices", _raise(ValueError("bad gram"))),
        ("cd", _raise(KeyError("alpha"))),
        ("irreducible", cli.run_irreducible),
    ))
    assert main(["all", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert list(report["suite_runtime_ms"]) == ["dims", "lattices", "cd", "irreducible"]
    errors = [c for c in report["checks"] if c["status"] == "error"]
    assert errors == [
        {"name": "lattices", "status": "error", "details": "ValueError: bad gram"},
        {"name": "cd", "status": "error", "details": "KeyError: 'alpha'"},
    ]
    others = {c["name"]: c["status"] for c in report["checks"] if c not in errors}
    assert others["irreducible.d90 irreducible over Q"] == "pass"
    assert len(others) == 4 and set(others.values()) == {"pass"}
    assert main(["all"]) == 3
    text = capsys.readouterr().out
    assert "[error       ] cd  -- KeyError: 'alpha'" in text
    assert "suite irreducible: " in text


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
    delta_resultant = families.delta_resultant
    monkeypatch.setattr(families, "delta_resultant", lambda a, b, e, var: (
        2 if var == "x0" else 1) * delta_resultant(a, b, e, var))
    assert main(["all", "--json"]) == 1
    statuses = _statuses(capsys)
    assert statuses["disc-factor.disc(R) = c * r^3 * d90 (symbolic)"] == "pass"
    assert [name for name, status in statuses.items() if status == "fail"] == [
        "disc-factor.c = 2176782336"]


@pytest.mark.parametrize("weight", ["-5", "401", "ten"])
def test_dims_max_weight_out_of_range_exits_two(capsys, weight):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--max-weight", weight])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-weight: must be an integer from 0 to 400" in captured.err
    assert "Traceback" not in captured.err


def test_dims_max_weight_zero_is_accepted(capsys):
    assert main(["dims", "--max-weight", "0", "--json"]) == 0
    assert all(status == "pass" for status in _statuses(capsys).values())


def test_all_has_no_max_weight_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["all", "--max-weight", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --max-weight 5" in captured.err


@pytest.mark.parametrize("exc", [KeyError("t99"), TypeError("unsupported operand"),
                                 ValueError("internal bug stand-in"),
                                 OSError("read failure stand-in")],
                         ids=["key-error", "type-error", "value-error", "os-error"])
def test_any_escaping_exception_exits_three(monkeypatch, capsys, exc):
    monkeypatch.setattr(cli, "run_dims", _raise(exc))
    assert main(["dims"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {type(exc).__name__}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _diagonal_lattice_file(tmp_path, rank):
    path = tmp_path / f"i{rank}.json"
    gram = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    path.write_text(json.dumps({"label": f"I{rank}(2)", "gram": gram}))
    return path


def test_lattices_rank_above_limit_exits_two_before_any_check(tmp_path, monkeypatch,
                                                             capsys):
    path = _diagonal_lattice_file(tmp_path, 65)
    built_in = []
    monkeypatch.setattr(lattice, "a_lattice", lambda: built_in.append(1))
    assert main(["lattices", "--lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert built_in == []
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert '"gram"' in captured.err
    assert "Traceback" not in captured.err


def test_lattices_rank_at_limit_is_checked(tmp_path, capsys):
    # I64(2) is positive definite, so its Kneser verdict is fail (exit 1)
    path = _diagonal_lattice_file(tmp_path, 64)
    assert main(["lattices", "--lattice", str(path), "--json"]) == 1
    assert _statuses(capsys)["kneser_check(I64(2))"] == "fail"


def test_fibers_single_point_configuration_is_info(capsys):
    # the configuration entry reports what was found; only the euler check
    # can fail
    assert main(["fibers", "--t", "1,1,1,1,2", "--json"]) == 0
    statuses = _statuses(capsys)
    assert statuses["fiber configuration"] == "info"
    assert statuses["euler number is 12 * height"] == "pass"


def test_all_has_no_single_suite_inputs(capsys):
    for flag, value in (("--lattice", "lat.json"), ("--t", "1,1,1,1,2")):
        with pytest.raises(SystemExit) as exc:
            main(["all", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


def test_disc_factor_pit_states_its_error_bound(capsys):
    assert main(["disc-factor", "--pit", "--trials", "12", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    check = report["checks"][0]
    assert check["name"] == "disc(R) = c * r^3 * d90 (probabilistic)"
    assert check["status"] == "pass"
    # a weight-180 form in t4..t18 has total degree at most 45, and the
    # samples come from the 2B + 1 = 2000007 integers in [-B, B]
    assert "per-trial error bound 45/2000007" in check["details"]
    assert "(45/2000007)^11 <= 1e-51" in check["details"]


def _generic_even_gram(rank, seed=0):
    rng = random.Random(seed)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * rng.randint(-3, 3)
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = rng.randint(-6, 6)
    return gram


def test_user_lattice_never_reaches_the_smith_form(tmp_path, monkeypatch, capsys):
    # the Smith form of this rank-8 matrix does not finish in a minute, so a
    # user lattice must be checked without it: the built-in checks make all
    # the calls, and they make as many with --lattice as without
    path = tmp_path / "generic8.json"
    gram = _generic_even_gram(8)
    path.write_text(json.dumps({"label": "generic8", "gram": gram}))
    smith = exactalg.smith_normal_form
    built_in, calls, unseen = set(), [], []

    def counting(rows):
        key = tuple(map(tuple, rows))
        calls.append(key)
        if recording_built_ins:
            built_in.add(key)
        elif key not in built_in:
            unseen.append(key)
            raise AssertionError("Smith form of a user lattice")
        return smith(rows)

    monkeypatch.setattr(exactalg, "smith_normal_form", counting)
    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    recording_built_ins = True
    assert main(["lattices", "--bound", "0"]) == 0
    capsys.readouterr()
    without = len(calls)
    recording_built_ins = False
    calls.clear()
    code = main(["lattices", "--lattice", str(path), "--bound", "0", "--json"])
    assert unseen == []
    assert len(calls) == without
    assert code in (0, 1)
    assert "kneser_check(generic8)" in _statuses(capsys)


# the flags each subcommand takes besides --json: those its suite reads
_READS = {
    "disc-factor": ("--seed", "--trials", "--pit"),
    "d90-check": (),
    "lattices": ("--bound", "--lattice"),
    "fibers": ("--t",),
    "cd": (),
    "irreducible": ("--seed", "--trials"),
    "dims": ("--max-weight",),
    "all": ("--seed", "--trials", "--bound"),
}
_UNREAD = [[command, flag, "1"] for command, flags in _READS.items()
           for flag in ("--seed", "--trials", "--bound", "--max-weight") if flag not in flags]
# every proper prefix of a flag, "--" and one letter at least
_PREFIXES = sorted({flag[:k] for flags in _READS.values() for flag in flags
                    for k in range(3, len(flag))})


@pytest.mark.parametrize("argv", [["cd", "--seed", "1"], ["fibers", "--bound", "1"],
                                  ["dims", "--trials", "3"], ["d90-check", "--trials", "5"],
                                  ["lattices", "--seed", "2"], ["irreducible", "--bound", "1"],
                                  ["disc-factor", "--bound", "2"], ["disc-factor", "--symbolic"],
                                  # a prefix is no flag: not --trials, --bound
                                  ["disc-factor", "--pit", "--t", "7"],
                                  ["all", "--t", "1,1,1,1,2"], ["lattices", "--bo", "1"]],
                         ids=" ".join)
def test_flag_the_suite_does_not_read_exits_two_before_any_runner(monkeypatch, capsys, argv):
    ran = []
    for name in ("run_all", *(runner.__name__ for _, runner in cli._MANIFEST)):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    unread = next(i for i, arg in enumerate(argv) if arg.startswith("--")
                  and arg not in _READS[argv[0]])
    assert f"unrecognized arguments: {' '.join(argv[unread:])}" in captured.err


@pytest.mark.parametrize("command", sorted(_READS))
def test_help_lists_exactly_the_flags_the_suite_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert flags == {"--help", "--json", *_READS[command]}


def test_all_takes_seed_trials_and_bound(capsys):
    assert main(["all", "--seed", "1", "--trials", "5", "--bound", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 1


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, _text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("ok,code", [(True, 0), (False, 1)], ids=["pass", "fail"])
def test_broken_pipe_keeps_the_verdict_and_points_stdout_at_devnull(
        tmp_path, monkeypatch, capsys, ok, code):
    report = cli.CheckReport("dims")
    report.check("stand-in", ok)
    monkeypatch.setattr(cli, "run_dims", lambda args: report)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        with contextlib.redirect_stdout(_ClosedPipe(fd)):
            assert main(["dims"]) == code
        null = os.stat(os.devnull)
        assert (os.fstat(fd).st_dev, os.fstat(fd).st_ino) == (null.st_dev, null.st_ino)
    finally:
        os.close(fd)
    assert capsys.readouterr().err == ""


def test_broken_pipe_from_a_subprocess_exits_with_the_verdict():
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "k3verify.cli", "dims", "--max-weight", "0"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def _argv_strategy(st):
    rational = st.builds(lambda n, d: f"{n}/{d}" if d != 1 else str(n),
                         st.integers(-40, 40), st.integers(1, 9))
    malformed = st.sampled_from(["", "1,2", "1,,2,3,4", "1/0,1,1,1,1", "x,1,1,1,1",
                                 "1,2,3,4,5,6", "1.5e,1,1,1,1", " , , , , "])
    t_text = st.one_of(st.lists(rational, min_size=5, max_size=5).map(",".join), malformed)
    return st.one_of(
        # the "=" form, so that a leading minus is read as the value
        st.tuples(st.just("fibers"), t_text.map("--t={}".format)),
        st.tuples(st.just("lattices"), st.just("--bound"),
                  st.one_of(st.integers(-2, 1).map(str), st.just("one"))),
        st.tuples(st.just("disc-factor"), st.just("--trials"),
                  st.integers(-1, 20).map(str), st.just("--pit")),
        st.tuples(st.just("irreducible"), st.just("--trials"),
                  st.one_of(st.integers(-1, 8).map(str), st.just("8.5"))),
        st.tuples(st.just("dims"), st.just("--max-weight"),
                  st.one_of(st.integers(-2, 40).map(str), st.just("401"), st.just("ten"))),
        st.sampled_from(_UNREAD),
        st.tuples(st.sampled_from(sorted(_READS)), st.sampled_from(_PREFIXES), st.just("1")),
    ).map(list)


def _is_usage_error(argv):
    if argv[1].startswith("--t="):
        flag, value = "--t", argv[1][len("--t="):]
    else:
        flag, value = argv[1], argv[2]
    if flag not in _READS[argv[0]]:
        return True
    if flag == "--t":
        try:
            point = [Fraction(p) for p in value.split(",")]
            return len(point) != 5 or not any(point)  # the origin is no point
        except (ValueError, ZeroDivisionError):
            return True
    try:
        number = int(value)
    except ValueError:
        return True
    low, high = {"--bound": (0, None), "--trials": (1, 100_000),
                 "--max-weight": (0, 400)}[flag]
    return number < low or (high is not None and number > high)


def test_main_exit_codes_in_process():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(_argv_strategy(st))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected a value
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (code == 2) == _is_usage_error(argv), (argv, code, err.getvalue())

    check()


def test_form_order_cap_is_an_internal_error(monkeypatch, capsys):
    # the cap bounds an enumeration inside the suite; the input is fine
    monkeypatch.setattr(lattice, "_MAX_FORM_ORDER", 2)
    assert main(["lattices"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: OrderTooLargeError: ")
    assert captured.err.count("\n") == 1


def test_inconsistent_valuations_are_an_internal_error(monkeypatch, capsys):
    # a valuation triple outside the Kodaira table is a fault of the caller
    monkeypatch.setattr(weierstrass, "kodaira_from_valuations",
                        _raise(weierstrass.InconsistentValuationsError(
                            "no table row for (1, 1, 7)")))
    assert main(["fibers"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: InconsistentValuationsError: ")
    assert captured.err.count("\n") == 1


def test_fibers_t_with_a_huge_exponent_exits_two_at_once(capsys):
    start = time.monotonic()
    assert main(["fibers", "--t", "1e200000,1,1,1,1"]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t ")


@pytest.mark.parametrize("text", ["1e2000,1,1,1,1", "1,1,1,1,1e-100", "1,1,1,1,0.5e-99",
                                  "1,1," + "7" * 101 + ",1,1", "1/1" + "0" * 100 + ",1,1,1,1"],
                         ids=["exponent", "negative-exponent", "decimal",
                              "numerator", "denominator"])
def test_fibers_t_beyond_100_digits_exits_two_naming_the_flag(capsys, text):
    assert main(["fibers", "--t", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t coordinate ")
    assert "100 digits" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", ["1e+,1,1,1,1", "1,1,1,1,2E-", "1,1,.e,1,1"])
def test_fibers_t_with_an_empty_exponent_exits_two_naming_the_flag(capsys, text):
    assert main(["fibers", "--t", text]) == 2
    assert capsys.readouterr().err.startswith("error: --t needs five")


def test_fibers_t_with_100_digit_coordinates_classifies(capsys):
    rng = random.Random(100)
    text = ",".join(f"{rng.randrange(10 ** 99, 10 ** 100)}/{rng.randrange(10 ** 99, 10 ** 100)}"
                    for _ in range(5))
    assert main(["fibers", "--t", text]) == 0
    assert "fiber configuration" in capsys.readouterr().out
    # 10^99 and 10^-99 have 100 digits in numerator and denominator
    assert main(["fibers", "--t", "1e99,-2E-99,000001e+99,1,3/0000" + "1" * 100]) == 0


def test_lattices_entries_from_2_63_exit_two_before_any_check(tmp_path, monkeypatch,
                                                              capsys):
    path = tmp_path / "big.json"
    gram = [[2 * 10 ** 999] * 8 for _ in range(8)]  # 1000-digit entries, rank 8
    path.write_text(json.dumps({"label": "big", "gram": gram}))
    built_in = []
    monkeypatch.setattr(lattice, "a_lattice", lambda: built_in.append(1))
    assert main(["lattices", "--lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert built_in == []
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert '"gram"' in captured.err
    with pytest.raises(ValueError, match='"gram"'):
        lattice.lattice_from_json(json.dumps({"gram": [[-(2 ** 63)]]}))
    assert lattice.lattice_from_json(json.dumps({"gram": [[2 ** 63 - 2]]})).rank == 1


def test_lattices_entry_past_the_int_digit_limit_exits_two_naming_gram(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"gram": [[' + "7" * 5000 + "]]}")  # past int()'s 4,300 digits
    assert main(["lattices", "--lattice", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert '"gram"' in captured.err and "2^63" in captured.err
    with pytest.raises(ValueError, match='"gram"'):
        lattice.lattice_from_json('{"gram": [[-' + "7" * 5000 + "]]}")
    assert lattice.lattice_from_json('{"gram": [[-' + "8" * 19 + "]]}").rank == 1


@pytest.mark.parametrize("text", ["x" * 20000 + ",1,1,1,1", "1," * 10000 + "1",
                                  "1,1,1," + "1/" * 10000 + "1,1"],
                         ids=["long-coordinate", "many-fields", "long-fraction"])
def test_fibers_malformed_long_t_gives_a_short_error(capsys, text):
    assert main(["fibers", "--t", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --t needs five comma-separated rationals")
    assert len(captured.err) < 200


def test_all_reports_suite_runtimes_in_manifest_order(capsys):
    names = ["d90-check", "disc-factor", "lattices", "fibers", "cd", "irreducible", "dims"]
    assert main(["all", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["suite", "checks", "seed", "runtime_ms", "constants",
                            "suite_runtime_ms"]
    assert list(report["suite_runtime_ms"]) == names
    assert all(type(ms) is int and ms >= 0 for ms in report["suite_runtime_ms"].values())
    assert main(["all"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  suite ")]
    assert [line.split(":")[0] for line in lines] == [f"  suite {name}" for name in names]
    assert all(line.endswith(" ms") for line in lines)
    for name in names:  # no single suite reports the map
        assert main([name, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["suite", "checks", "seed", "runtime_ms", "constants"]

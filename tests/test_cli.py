"""Command line behaviour: flags, config, env seed, outputs, exit codes."""

import json
import warnings

import numpy as np
import pytest

from posdefwalks import __version__, cli, matcore, matdist, verify
from posdefwalks.cli import SEED_ENV, main
from posdefwalks.errors import InsufficientBinCount, NotPositiveDefinite
from posdefwalks.special import ModelParams


def run_to_file(tmp_path, name, argv):
    path = tmp_path / name
    code = main(argv + ["--out", str(path)])
    return code, path.read_text()


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def header_map(text):
    pairs = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and "=" in ln:
            key, _, value = ln[2:].partition("=")
            pairs[key] = value
    return pairs


# ------------------------------------------------------------------ sample


def test_sample_csv_row_count_and_echo(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "s.csv",
        ["sample", "--dist", "beta2", "--d", "2", "--alpha", "2.5", "--beta", "6", "--n", "1000", "--seed", "7"],
    )
    assert code == 0
    rows = data_rows(text)
    assert rows[0] == "index,trace,logdet,lambda_min,lambda_max"
    assert len(rows) == 1001
    hdr = header_map(text)
    assert hdr["seed"] == "7"
    assert hdr["dist"] == "beta2"
    assert hdr["alpha"] == "2.5"
    assert hdr["beta"] == "6.0"
    assert hdr["n"] == "1000"
    assert hdr["posdefwalks"] == __version__


def test_sample_same_seed_is_byte_identical(tmp_path):
    argv = ["sample", "--dist", "wishart", "--d", "3", "--alpha", "3", "--n", "200", "--seed", "42"]
    _, first = run_to_file(tmp_path, "a.csv", argv)
    _, second = run_to_file(tmp_path, "b.csv", argv)
    assert first == second


def test_sample_full_includes_entries(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "f.csv",
        ["sample", "--dist", "wishart", "--d", "2", "--alpha", "3", "--n", "5", "--seed", "1", "--full"],
    )
    assert code == 0
    rows = data_rows(text)
    assert rows[0].endswith("e_0_0,e_0_1,e_1_0,e_1_1")
    assert len(rows[1].split(",")) == 1 + 4 + 4


def test_sample_domain_violation_exits_3(capsys):
    code = main(["sample", "--dist", "wishart", "--d", "2", "--alpha", "0.4", "--seed", "1"])
    assert code == 3
    assert "alpha" in capsys.readouterr().err


def test_sample_threads_flag_never_changes_data(tmp_path):
    base = ["sample", "--dist", "beta2", "--d", "2", "--alpha", "2.5", "--beta", "6", "--n", "50", "--seed", "9"]
    _, one = run_to_file(tmp_path, "t1.csv", base + ["--threads", "1"])
    _, four = run_to_file(tmp_path, "t4.csv", base + ["--threads", "4"])
    assert data_rows(one) == data_rows(four)


# -------------------------------------------------------------------- walk


def test_walk_fixed_increments_hand_values(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "w.csv",
        ["walk", "--d", "1", "--alpha", "2", "--beta", "5", "--init", "fixed:1", "--increments", "2,3", "--seed", "1"],
    )
    assert code == 0
    values = {}
    for row in data_rows(text)[1:]:
        step, name, value = row.split(",")
        values[(int(step), name)] = float(value)
    assert [values[(k, "r_trace")] for k in range(3)] == pytest.approx([1.0, 2.0, 6.0])
    assert [values[(k, "a_trace")] for k in range(3)] == pytest.approx([1.0, 3.0, 9.0])
    assert values[(1, "s_trace")] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert values[(2, "s_trace")] == pytest.approx(2.0 / 9.0, rel=1e-12)


def test_walk_mixed_mode_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--d", "1", "--alpha", "2", "--beta", "5", "--steps", "10", "--init", "fixed:1", "--increments", "2,3"])
    assert exc.value.code == 2


def test_walk_neither_mode_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["walk", "--d", "1", "--alpha", "2", "--beta", "5"])
    assert exc.value.code == 2


def test_walk_json_structure(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "w.json",
        ["walk", "--d", "2", "--alpha", "2.5", "--beta", "6", "--steps", "3", "--seed", "2", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["meta"]["command"] == "walk"
    assert payload["meta"]["steps"] == 3
    assert payload["meta"]["seed"] == 2
    assert len(payload["r"]) == 4
    assert len(payload["a"]) == 4
    assert len(payload["s"]) == 3


def test_walk_negative_increment_exits_3(capsys):
    code = main(["walk", "--d", "1", "--alpha", "2", "--beta", "5", "--init", "fixed:1", "--increments=-1,2"])
    assert code == 3
    assert "positive" in capsys.readouterr().err


def test_walk_unknown_init_exits_3(capsys):
    code = main(["walk", "--d", "1", "--alpha", "2", "--beta", "5", "--steps", "2", "--init", "bogus"])
    assert code == 3
    assert "init" in capsys.readouterr().err


def test_walk_increments_honour_the_closed_construction(tmp_path):
    # Fixed increments used to run the recursive walk only, and
    # --construction closed with them was a usage error.
    argv = ["walk", "--d", "2", "--alpha", "2", "--beta", "5", "--increments", "2,3", "--kind", "sqrt"]
    runs = {}
    for fmt in ("json", "csv"):
        for cons in ("recursive", "closed"):
            code, text = run_to_file(tmp_path, f"{cons}.{fmt}", argv + ["--construction", cons, "--format", fmt])
            assert code == 0
            runs[fmt, cons] = text
    assert header_map(runs["csv", "closed"])["construction"] == "closed"
    payload = {cons: json.loads(runs["json", cons]) for cons in ("recursive", "closed")}
    assert payload["closed"]["meta"]["construction"] == "closed"
    np.testing.assert_allclose(payload["closed"]["r"], payload["recursive"]["r"], rtol=1e-12)
    r_rows = {
        cons: [float(row.split(",")[2]) for row in data_rows(runs["csv", cons])[1:] if ",r_" in row]
        for cons in ("recursive", "closed")
    }
    assert len(r_rows["closed"]) == 6
    np.testing.assert_allclose(r_rows["closed"], r_rows["recursive"], rtol=1e-12)


def test_dufresne_csv_with_term_counts(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "d.csv",
        ["dufresne", "--d", "1", "--alpha", "2", "--beta", "5", "--n", "50", "--seed", "3"],
    )
    assert code == 0
    rows = data_rows(text)
    assert rows[0] == "index,trace,logdet,lambda_min,lambda_max,n_terms"
    assert len(rows) == 51
    counts = [int(r.split(",")[-1]) for r in rows[1:]]
    assert all(c > 0 for c in counts)


def test_dufresne_regime_violation_exits_3(capsys):
    code = main(["dufresne", "--d", "1", "--alpha", "5", "--beta", "2", "--n", "5"])
    assert code == 3
    capsys.readouterr()


# ---------------------------------------------------------------- lyapunov


def test_lyapunov_json_report(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "l.json",
        ["lyapunov", "--dist", "beta2", "--d", "2", "--alpha", "4", "--beta", "8", "--steps", "200", "--replicas", "20", "--seed", "5"],
    )
    assert code == 0
    payload = json.loads(text)
    report = payload["report"]
    assert payload["meta"]["method"] == "eigen"
    assert len(report["mu_hat"]) == 2
    assert len(report["mu_closed"]) == 2
    assert report["n_steps"] == 200
    assert report["n_replicas"] == 20
    assert report["seed"] == 5


def test_lyapunov_csv_per_exponent_rows(tmp_path):
    code, text = run_to_file(
        tmp_path,
        "l.csv",
        ["lyapunov", "--dist", "wishart", "--d", "3", "--alpha", "3", "--steps", "100", "--replicas", "10", "--seed", "6", "--format", "csv", "--method", "cholesky"],
    )
    assert code == 0
    rows = data_rows(text)
    assert rows[0] == "k,mu_hat,std_err,mu_closed"
    assert len(rows) == 4
    assert [int(r.split(",")[0]) for r in rows[1:]] == [1, 2, 3]


def test_lyapunov_missing_parameter_exits_3(capsys):
    code = main(["lyapunov", "--dist", "wishart", "--d", "2", "--steps", "50", "--replicas", "5"])
    assert code == 3
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["sample", "--dist", "beta2", "--alpha", "3"], "beta2 needs --beta"),
        (["sample", "--dist", "wishart", "--alpha", "3", "--beta", "0.5"], "wishart does not read --beta"),
        (["sample", "--dist", "invwishart", "--alpha", "3", "--beta", "4"], "invwishart does not read --alpha"),
        (["sample", "--dist", "invbeta1", "--beta", "4"], "invbeta1 needs --alpha"),
        (["lyapunov", "--dist", "wishart", "--d", "3", "--alpha", "3", "--beta", "0.5"], "wishart does not read --beta"),
        (["lyapunov", "--dist", "invwishart", "--d", "2"], "invwishart needs --beta"),
        (["walk", "--alpha", "2", "--steps", "3"], "beta2 needs --beta"),
        (["dufresne", "--beta", "5"], "beta2 needs --alpha"),
    ],
    ids=[
        "sample-beta2-alpha-only", "sample-wishart-beta", "sample-invwishart-alpha",
        "sample-invbeta1-beta-only", "lyapunov-wishart-beta", "lyapunov-invwishart-none",
        "walk-alpha-only", "dufresne-beta-only",
    ],
)
def test_a_law_reads_exactly_its_own_parameters(argv, error, capsys):
    # sample --dist beta2 --alpha 3 used to draw Beta II(3, 3), and a Wishart
    # lyapunov run failed on the range of a --beta it never reads.
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: {error}")


@pytest.mark.parametrize("law, given", [("wishart", "alpha"), ("invwishart", "beta")])
def test_one_sided_law_repeats_its_parameter(law, given, capsys):
    # The unread option is echoed as given; the report's unused field holds the law's own value.
    common = ["--dist", law, "--d", "2", f"--{given}", "4", "--seed", "3"]
    assert main(["sample", *common, "--n", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["alpha" if given == "beta" else "beta"] is None
    draws = matdist.sample(law, ModelParams(2, 4.0, 4.0), matdist.make_stream(3), size=5)
    assert np.array(payload["samples"]).tobytes() == draws.tobytes()
    assert main(["lyapunov", *common, "--steps", "20", "--replicas", "3"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["params"] == {"dim": 2, "alpha": 4.0, "beta": 4.0}


def test_lyapunov_cholesky_method_refuses_the_sqrt_kind(capsys):
    # The Cholesky estimator takes no split kind; --kind sqrt used to be echoed and ignored.
    argv = ["lyapunov", "--d", "2", "--alpha", "3", "--beta", "4", "--steps", "20", "--replicas", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--method", "cholesky", "--kind", "sqrt"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--method cholesky" in err and "--kind sqrt" in err
    assert main(argv + ["--method", "cholesky", "--kind", "cholesky"]) == 0
    assert main(argv + ["--method", "eigen", "--kind", "sqrt"]) == 0


# ------------------------------------------------------------------ output

_LYAPUNOV_CSV = ["lyapunov", "--dist", "wishart", "--d", "2", "--alpha", "3", "--steps", "30", "--replicas", "4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--dist", "beta2", "--d", "2", "--alpha", "2.5", "--beta", "6", "--n", "20", "--full"],
        ["dufresne", "--d", "2", "--alpha", "2", "--beta", "5", "--n", "20", "--tail-tol", "1e-6"],
        _LYAPUNOV_CSV + ["--method", "cholesky"],
        _LYAPUNOV_CSV + ["--method", "eigen"],
    ],
    ids=["sample-full", "dufresne", "lyapunov-cholesky", "lyapunov-eigen"],
)
def test_csv_cells_read_back_as_the_json_values(tmp_path, argv):
    # lyapunov's CSV used to print numpy's scalar repr, np.float64(...).
    _, text = run_to_file(tmp_path, "run.csv", argv + ["--format", "csv", "--seed", "4"])
    _, line = run_to_file(tmp_path, "run.json", argv + ["--format", "json", "--seed", "4"])
    header, *rows = data_rows(text)
    cells = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    table = dict(zip(header.split(","), cells.T))
    payload = json.loads(line)
    if argv[0] == "lyapunov":
        expected = {name: payload["report"][name] for name in ("mu_hat", "std_err", "mu_closed")}
    elif argv[0] == "dufresne":
        expected = {"n_terms": payload["n_terms"]}
    else:
        samples = np.array(payload["samples"])
        expected = {f"e_{i}_{j}": samples[:, i, j] for i in range(2) for j in range(2)}
    for name, values in expected.items():
        want = np.array(values, dtype=float)
        np.testing.assert_array_equal(table[name].view(np.int64), want.view(np.int64), err_msg=name)


@pytest.mark.parametrize("command", ["sample", "walk", "dufresne"])
def test_each_format_computes_only_its_own_output(monkeypatch, capsys, command):
    # A functional that fails on the stack fails the CSV run, which prints it,
    # and leaves the JSON run alone.
    def refuse(x):
        raise NotPositiveDefinite("logdet refused")

    monkeypatch.setattr(matcore, "logdet", refuse)
    argv = [command, "--d", "2", "--alpha", "2", "--beta", "5"]
    argv += ["--steps", "3"] if command == "walk" else ["--n", "3"]
    argv += ["--dist", "beta2"] if command == "sample" else []
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["command"] == command
    assert main(argv + ["--format", "csv"]) == 3
    assert capsys.readouterr().err == "error: logdet refused\n"


@pytest.mark.parametrize("command", ["sample", "dufresne"])
def test_csv_export_solves_each_stacks_eigenvalues_once(monkeypatch, capsys, command):
    # lambda_min and lambda_max are the ends of one eigenvalues call on the
    # whole stack (eigvalsh at d = 3), not one call each.
    shapes = []
    eigenvalues = matcore.eigenvalues

    def counted(x):
        shapes.append(np.shape(x))
        return eigenvalues(x)

    monkeypatch.setattr(matcore, "eigenvalues", counted)
    argv = [command, "--d", "3", "--alpha", "2", "--beta", "5", "--n", "40", "--format", "csv"]
    argv += ["--dist", "beta2"] if command == "sample" else []
    assert main(argv) == 0
    assert len(data_rows(capsys.readouterr().out)) == 41
    assert shapes == [(40, 3, 3)]


# -------------------------------------------------------------- bad values

_WALK_ARGS = ["walk", "--d", "1", "--alpha", "2", "--beta", "5"]
_DUFRESNE_ARGS = ["dufresne", "--d", "1", "--alpha", "2", "--beta", "5", "--n", "5"]
_LYAPUNOV_ARGS = ["lyapunov", "--d", "1", "--alpha", "2", "--beta", "5", "--steps", "10"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (_WALK_ARGS + ["--steps", "2", "--init", "fixed:abc"], "fixed init"),
        (_WALK_ARGS + ["--steps", "2", "--init", "fixed:nan"], "fixed init"),
        (_WALK_ARGS + ["--increments", "2,abc"], "increments"),
        (_WALK_ARGS + ["--increments", ","], "increments must be positive numbers"),
        (_DUFRESNE_ARGS + ["--tail-tol", "0"], "0 < tail_tol < 1"),
        (_DUFRESNE_ARGS + ["--tail-tol", "-1"], "0 < tail_tol < 1"),
        (_DUFRESNE_ARGS + ["--tail-tol", "1"], "0 < tail_tol < 1"),
        (_DUFRESNE_ARGS + ["--max-terms", "0"], "max_terms >= 1"),
        (_LYAPUNOV_ARGS + ["--method", "cholesky", "--replicas", "0"], "n_replicas"),
        (_LYAPUNOV_ARGS + ["--method", "eigen", "--replicas", "0"], "n_replicas"),
        (_LYAPUNOV_ARGS + ["--method", "cholesky", "--replicas", "1"], "n_replicas must be at least 2"),
        (_LYAPUNOV_ARGS + ["--method", "eigen", "--replicas", "1"], "n_replicas must be at least 2"),
    ],
    ids=[
        "fixed:abc",
        "fixed:nan",
        "increments-abc",
        "increments-empty",
        "tail-tol=0",
        "tail-tol=-1",
        "tail-tol=1",
        "max-terms=0",
        "cholesky-replicas=0",
        "eigen-replicas=0",
        "cholesky-replicas=1",
        "eigen-replicas=1",
    ],
)
def test_bad_value_exits_3_naming_it(argv, expected, capsys):
    # These used to exit 1 with a traceback, or exit 0: eigen printed NaN at 0
    # and 1 replicas, and cholesky at 1 took its standard error across steps.
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")
    assert expected in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


_JSON_RUNS = {
    "sample": ["sample", "--dist", "beta2", "--d", "2", "--alpha", "2.5", "--beta", "6", "--n", "5"],
    "walk-steps": _WALK_ARGS + ["--steps", "3"],
    "walk-increments": _WALK_ARGS + ["--increments", "2,3"],
    "dufresne": _DUFRESNE_ARGS,
    **{
        f"lyapunov-{method}-replicas={n}": _LYAPUNOV_ARGS + ["--method", method, "--replicas", n]
        for method in ("cholesky", "eigen")
        for n in ("1", "2")
    },
}


@pytest.mark.parametrize("argv", list(_JSON_RUNS.values()), ids=list(_JSON_RUNS))
def test_json_output_is_strict_json(argv, capsys):
    # A run prints strict JSON or nothing: lyapunov --replicas 1 used to exit 0
    # printing NaN, for which JSON has no token.
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    if code == 0:
        json.loads(out, parse_constant=_refuse_constant)
    else:
        assert out == ""


# ------------------------------------------------------------------ verify


def test_verify_single_check_stream(tmp_path):
    code, text = run_to_file(tmp_path, "v.jsonl", ["verify", "lukacs", "--seed", "1"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 2
    meta = json.loads(lines[0])
    assert meta["command"] == "verify"
    assert meta["checks"] == ["lukacs"]
    assert "lukacs" in meta["parameters"]
    report = json.loads(lines[1])
    assert report["name"] == "lukacs"
    assert report["passed"] is True


def test_run_check_gives_the_report_verify_prints(tmp_path, monkeypatch):
    # verify runs a check on the stream of its place in FULL_CONFIG, and so
    # does run_check by default; it used to take stream 0 for every check.
    reduced = {n: verify.REDUCED_CONFIG.get(n, c) for n, c in verify.FULL_CONFIG.items()}
    monkeypatch.setattr(verify, "FULL_CONFIG", reduced)
    for idx, name in enumerate(reduced):
        code, text = run_to_file(tmp_path, f"{name}.jsonl", ["verify", name, "--seed", "3"])
        assert code in (0, 1)
        line = text.splitlines()[1]
        assert line == verify.run_check(name, 3, stream_id=idx).to_json(), name
        assert line == verify.run_check(name, 3).to_json(), name


def test_verify_refuses_csv(monkeypatch, capsys):
    # verify prints JSON lines only; --format csv used to be accepted and ignored.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lukacs", "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--format" in captured.err
    # The default run still echoes the format in its meta line.
    report = verify.TestReport("lukacs", 0.5, 1.0, 1, 1, None, 1, "")
    monkeypatch.setattr(verify, "run_check", lambda name, seed: report)
    assert main(["verify", "lukacs", "--seed", "1"]) == 0
    assert '"format": "json"' in capsys.readouterr().out.splitlines()[0]


def test_verify_unknown_check_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not_a_check"])
    assert exc.value.code == 2


def test_verify_all_runs_full_suite(tmp_path):
    code, text = run_to_file(tmp_path, "all.jsonl", ["verify", "all", "--seed", "1"])
    lines = text.strip().splitlines()
    reports = [json.loads(ln) for ln in lines[1:]]
    assert len(reports) == 7
    assert [r["name"] for r in reports] == [
        "dufresne_d1",
        "dufresne_d2",
        "intertwining_d1",
        "my_markov_d1",
        "fixed_point",
        "construction_equivalence",
        "lukacs",
    ]
    assert all(r["passed"] for r in reports)
    assert code == 0


# ---------------------------------------------------- config and seed source


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sampling setup\ndist=wishart\nd=2\nalpha=3.0\nseed=5\nn=10\n")
    code, text = run_to_file(tmp_path, "c.csv", ["sample", "--config", str(cfg)])
    assert code == 0
    hdr = header_map(text)
    assert hdr["dist"] == "wishart"
    assert hdr["d"] == "2"
    assert hdr["alpha"] == "3.0"
    assert hdr["seed"] == "5"
    assert len(data_rows(text)) == 11


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dist=wishart\nd=2\nalpha=3.0\nn=10\nseed=5\n")
    code, text = run_to_file(
        tmp_path, "c.csv", ["sample", "--config", str(cfg), "--alpha", "2.5", "--seed", "8"]
    )
    assert code == 0
    hdr = header_map(text)
    assert hdr["alpha"] == "2.5"
    assert hdr["seed"] == "8"


def test_env_seed_is_lowest_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "99")
    code, text = run_to_file(tmp_path, "e.csv", ["sample", "--dist", "wishart", "--d", "1", "--alpha", "2", "--n", "5"])
    assert code == 0
    assert header_map(text)["seed"] == "99"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\n")
    code, text = run_to_file(
        tmp_path, "e2.csv", ["sample", "--dist", "wishart", "--d", "1", "--alpha", "2", "--n", "5", "--config", str(cfg)]
    )
    assert header_map(text)["seed"] == "5"
    code, text = run_to_file(
        tmp_path, "e3.csv", ["sample", "--dist", "wishart", "--d", "1", "--alpha", "2", "--n", "5", "--seed", "1"]
    )
    assert header_map(text)["seed"] == "1"


def test_bad_config_line_exits_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha 3.0\n")
    code = main(["sample", "--dist", "wishart", "--d", "1", "--config", str(cfg)])
    assert code == 3
    assert "config" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


# ----------------------------------------------- config values, sizes, files


@pytest.mark.parametrize(
    "command, lines, env_seed, option",
    [
        ("sample", "alpha=abc\n", None, "--alpha"),
        ("sample", "alpha=2\ndist=foo\n", None, "--dist"),
        ("sample", "alpha=2\nformat=xml\n", None, "--format"),
        ("sample", "alpha=2\nalpah=3\n", None, "--alpah"),
        ("walk", "alpha=2\nbeta=5\nsteps=2\nkind=bogus\n", None, "--kind"),
        ("sample", "alpha=2\n", "abc", "--seed"),
    ],
    ids=["alpha=abc", "dist=foo", "format=xml", "misspelt-key", "walk-kind=bogus", "env-seed=abc"],
)
def test_bad_config_value_is_a_usage_error(
    tmp_path, monkeypatch, capsys, command, lines, env_seed, option
):
    # These used to end in a traceback and exit 1, or be ignored with exit 0.
    if env_seed is not None:
        monkeypatch.setenv(SEED_ENV, env_seed)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg)])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_verify_all_with_other_names_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "lukacs"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, word",
    [
        (["sample", "--alpha", "2", "--n", "-1"], "size"),
        (["dufresne", "--alpha", "2", "--beta", "5", "--n", "-1"], "size"),
        (["sample", "--alpha", "2", "--seed", "-1"], "seed"),
    ],
    ids=["sample", "dufresne", "seed"],
)
def test_negative_size_exits_3(argv, word, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert word in err


@pytest.mark.parametrize(
    "name, content",
    [("absent.cfg", None), (".", None), ("run.cfg", b"\xff\xfe=1\n")],
    ids=["missing", "directory", "binary"],
)
def test_unreadable_config_exits_3_naming_it(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code = main(["sample", "--alpha", "2", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:")
    assert str(path) in err


def test_out_file_closed_when_a_check_raises(tmp_path, monkeypatch, capsys):
    handles = []

    def tracking_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    def failing_check(name, seed, stream_id=0, config=None):
        raise InsufficientBinCount(f"{name}: too few draws in a bin")

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    monkeypatch.setattr(verify, "run_check", failing_check)
    code = main(["verify", "lukacs", "--out", str(tmp_path / "v.jsonl")])
    assert code == 3
    assert "too few draws" in capsys.readouterr().err
    assert handles and all(fh.closed for fh in handles)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sample", "--alpha", "inf"], "alpha"),
        (["dufresne", "--alpha", "2", "--beta", "inf"], "beta"),
        (["walk", "--alpha", "2", "--beta", "inf", "--steps", "3"], "beta"),
        (["lyapunov", "--alpha", "inf", "--beta", "5"], "alpha"),
    ],
    ids=["sample-alpha", "dufresne-beta", "walk-beta", "lyapunov-alpha"],
)
def test_infinite_parameter_exits_3_naming_it(argv, name, capsys):
    # sample used to print rows of inf and exit 0, and the others to fail with
    # messages that did not name the parameter.
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {name} must be finite")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_option_prefix_is_a_usage_error(tmp_path, capsys, source):
    # --alph and an alph= config line used to be taken as --alpha.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alph=3\n")
    argv = ["sample", "--alph", "3"] if source == "flag" else ["sample", "--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --alph" in capsys.readouterr().err


def test_sampler_overflow_exits_3_naming_the_parameter(capsys):
    # Used to print rows of inf and exit 0; later it exited 3, but only after
    # numpy's "overflow encountered in add" warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sample", "--alpha", "1e308", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: wishart draw is not finite at alpha=1e+308")
    assert "inf" not in captured.out


def test_zero_gamma_draw_exits_3_with_only_the_error_line(capsys):
    # A gamma draw of shape 1e-6 underflows to 0, so the triangular inverse
    # divides by zero; numpy's warning must not come before the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sample", "--dist", "invwishart", "--d", "1", "--beta", "1e-6"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: invwishart draw is not finite at beta=1e-06: not representable in float64 at that "
        "parameter (a gamma variate underflowed to 0 and was inverted, or an entry overflowed)"
    ]


def test_singular_draw_exits_3_naming_the_parameter(capsys):
    # A gamma draw of shape 2^-8 underflows to 0 and leaves the factor singular.
    code = main(["sample", "--dist", "wishart", "--d", "1", "--alpha", "0.00390625", "--n", "8", "--seed", "0"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: wishart draw is singular at alpha=0.00390625: not representable in float64 at that "
        "parameter (a gamma variate underflowed to 0)"
    ]


def test_walk_init_out_of_range_exits_3_naming_init(capsys):
    # Used to warn of an overflow in symmetrize, then blame a Cholesky pivot.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["walk", "--alpha", "2", "--beta", "5", "--increments", "2", "--init", "fixed:1e308"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: init entries are out of range")


def test_walk_overflow_exits_3_with_only_the_error_line(capsys):
    # numpy's "overflow encountered in matmul" warning used to come before the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["walk", "--d", "1", "--alpha", "2", "--beta", "5",
                     "--increments", "1e300,1e300,1e300", "--init", "fixed:1e300"])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: walk state left the representable range at step 1"
    ]

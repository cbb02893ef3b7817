"""Command-line interface: formats, config handling, exit codes."""

import json

import pytest

from greengrowth.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sphere_dl_has_matching_counts(capsys):
    code, out, _ = run(capsys, "sphere", "--group", "dl", "--q", "3",
                       "--n", "2")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "n,bfs_count,formula_count"
    n, bfs, formula = lines[3].split(",")
    assert n == "2" and bfs == formula


def test_hr_tree_constant_column(capsys):
    code, out, _ = run(capsys, "hr", "--group", "tree", "--l", "4",
                       "--r", "1", "--nmax", "10")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    for row in rows[1:]:
        assert abs(float(row[1]) - 4.0) < 1e-8
        assert row[3] == "true"


def test_hr_output_is_byte_stable(capsys):
    args = ("hr", "--group", "tree", "--l", "4", "--r", "0.9", "--nmax", "6")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "\r" not in first


def test_omega_json_schema(capsys):
    code, out, _ = run(capsys, "omega", "--group", "tree", "--l", "4",
                       "--r", "1.05", "--nmax", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert "slope" in payload and "window" in payload


def test_theta_partial_sums_increase(capsys):
    code, out, _ = run(capsys, "theta", "--group", "tree", "--l", "4",
                       "--r", "0.9", "--s", "0.5", "--nmax", "5")
    assert code == 0
    partials = [float(line.split(",")[3])
                for line in out.strip().split("\n")[1:]]
    assert partials == sorted(partials)


def test_bitree_phase_report(capsys):
    code, out, _ = run(capsys, "bitree-phase", "--l1", "6", "--l2", "4",
                       "--a1", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert abs(payload["r0"] - 1.1001627) < 1e-6


def test_bitree_phase_grid_csv(capsys):
    code, out, _ = run(capsys, "bitree-phase", "--l1", "6", "--l2", "4",
                       "--a1", "0.5", "--grid", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,regime,omega,lambda0"
    assert len(lines) == 5


def test_dl_verify_all_match(capsys):
    code, out, _ = run(capsys, "dl-verify", "--q", "2", "--nmax", "5")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert line.split(",")[3] == "true"


def test_brw_json(capsys):
    code, out, _ = run(capsys, "brw", "--group", "tree", "--l", "4",
                       "--mean", "1.05", "--maxgen", "15", "--popcap",
                       "200", "--seed", "3", "--runs", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["m_counts"]) == 4
    assert payload["offspring_mean"] == pytest.approx(1.05)


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("nmax = 3\n# comment\n")
    code, out, _ = run(capsys, "--config", str(cfg), "hr", "--group",
                       "tree", "--l", "4", "--r", "1")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("3,")


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("nmax = 3\n")
    code, out, _ = run(capsys, "--config", str(cfg), "hr", "--group",
                       "tree", "--l", "4", "--r", "1", "--nmax", "5")
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("5,")


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run(capsys, "--config", str(cfg), "hr", "--group",
                       "tree", "--l", "4", "--r", "1")
    assert code == 1
    assert "nonsense" in err


def test_validation_error_exit_code(capsys):
    code, _, err = run(capsys, "hr", "--group", "tree", "--l", "1",
                       "--r", "1")
    assert code == 1
    assert err


def test_budget_error_exit_code(capsys, monkeypatch):
    from greengrowth.groups import BudgetExceededError

    def blown(spec):
        raise BudgetExceededError("enumeration budget exhausted")

    monkeypatch.setattr("greengrowth.cli.group_for", blown)
    code, _, err = run(capsys, "sphere", "--group", "free", "--k", "3",
                       "--n", "12")
    assert code == 2
    assert "budget" in err.lower()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "--output", str(target), "hr", "--group",
                       "tree", "--l", "4", "--r", "1", "--nmax", "2")
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("n,H,tail,rigorous\n")

"""Command-line interface: formats, config handling, exit codes."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from greengrowth.cli import build_parser, main
from greengrowth.groups import FreeGroup, RegularTree, TreeProduct, group_for
from greengrowth.kernels import known_spectral_radius, standard_measure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("q, n", [(3, 2), (2, 5)])
def test_sphere_dl_has_matching_counts(capsys, q, n):
    code, out, _ = run(capsys, "sphere", "--group", "dl", "--q", str(q),
                       "--n", str(n))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,bfs_count,formula_count"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(n + 1))
    for _, bfs, formula in rows:
        assert bfs == formula


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


def test_hr_heisenberg_output_is_pinned(capsys):
    # the rigorous 30-step sweep on D4-orbits prints the digits of the
    # sweep over elements
    code, out, _ = run(capsys, "hr", "--group", "heisenberg", "--r", "0.5",
                       "--nmax", "6")
    assert code == 0
    tail = "9.3132257461547852e-10,true"
    assert out.splitlines() == ["n,H,tail,rigorous"] + [
        f"{n},{h},{tail}" for n, h in enumerate([
            "1.3722815741899075", "0.4673788903141548",
            "0.11942038713228711", "0.030907974931004889",
            "0.0079400638430225969", "0.0016485349452124995",
            "0.00034654186839393777"])]


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


def test_brw_json(capsys):
    code, out, _ = run(capsys, "brw", "--group", "tree", "--l", "4",
                       "--mean", "1.05", "--maxgen", "15", "--popcap",
                       "200", "--seed", "3", "--runs", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert len(payload["m_counts"]) == 4
    assert payload["offspring_mean"] == pytest.approx(1.05)


@pytest.mark.parametrize("argv, digest", [
    # the README example
    ("brw --group tree --l 4 --mean 1.05 --runs 50 --seed 12345",
     "9a2c63d179268a121e6b39e905f4643dbbd9d6c7acd34c4ce42187ed2342ab05"),
    ("brw --group treeprod --l1 6 --l2 4 --mean 2 --maxgen 30 --popcap 2000 "
     "--seed 1 --runs 1",
     "cf7c0862c8488bfdd0b7e65025a79436be941ebe7df9f07ee4817d4442978ff5"),
])
def test_brw_output_is_byte_stable(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every README example but selftest, and a scan with the full series
README_DIGESTS = [
    ("omega --group zd --d 3 --r 1.0 --nmax 30",
     "2c6c4b5e8d859cbbce7c9c517659bfde036e20db12cd2c2bc75840f9532afe11"),
    ("theta --group tree --l 4 --r 0.9 --s 0.5 --nmax 20",
     "77fdc0023c7e4da4fa3d5c6a24e13741095b457e71b1fda342cbca113eca83a5"),
    ("bitree-phase --l1 6 --l2 4 --a1 0.5 --grid 40",
     "9525ab933fc29cf3b69a26019ca29e7ee0e99459adb7237d2d0d86347138c0ee"),
    ("sphere --group dl --q 3 --n 8",
     "3c6946e25da2a3fb875fc9ac0172fec82c471cca2778036bb26de8182a199593"),
    ("hr --group tree --l 4 --r 1.0 --nmax 10",
     "89765675cc8abbce9383b090abdfd99d118c02598cd6109b518ecf26ccfae363"),
    ("hr --group heisenberg --r 0.5 --nmax 6",
     "aa7a008fc934e71cddf547c582f93d687d85e7875e240dfd3c82773b7e068c75"),
    ("hr --group freeprod --l1 4 --l2 4 --d 3 --alpha 0.2 --r 0.5 --nmax 6",
     "6a4b4f1f5090d593ea66562bacf6eb49c16a657095e2651c24bef1108f56a903"),
    ("bitree-phase --l1 6 --l2 4 --a1 0.5 --r 1.05",
     "8fe6308f7554e86893b0ccc3b04c6d5643cf7d6f61c5de4802c51fed4f84fd60"),
    ("freeprod-scan --l1 6 --l2 4 --d 3 --alpha 0.05 --rmin 1.0 --rmax 1.13 "
     "--points 9",
     "07d50a3223a219e5e059d117cfdc8f62d7ae06132306eb25aa1a9908b709ae4c"),
    ("brw --group tree --l 4 --mean 1.05 --runs 50 --seed 12345",
     "9a2c63d179268a121e6b39e905f4643dbbd9d6c7acd34c4ce42187ed2342ab05"),
    ("freeprod-scan --alpha 0.05 --full-series-n 10 --rmin 1.0 --rmax 1.13 "
     "--points 3",
     "86592088d7907445be463a8f55b30ae619d99e9b33b08534108b5777b7eedebc"),
]


@pytest.mark.parametrize("argv, digest", README_DIGESTS)
def test_readme_series_and_phase_output_is_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("offspring, words", [
    ("1:0.5,1:0.5", "repeats k = 1"),
    ("1:0.5,2", "'2' is not one k:w pair"),
    ("1:0.5:0.5", "'1:0.5:0.5' is not one k:w pair"),
])
def test_brw_refuses_a_malformed_offspring_law(capsys, offspring, words):
    code, out, err = run(capsys, "brw", "--group", "tree", "--l", "4",
                         "--offspring", offspring, "--maxgen", "10")
    assert code == 1
    assert out == ""
    assert words in err


def test_brw_offspring_law_prints_the_bytes_of_its_mean(capsys):
    args = ("brw", "--group", "tree", "--l", "4", "--runs", "5",
            "--maxgen", "20", "--seed", "3")
    _, by_law, _ = run(capsys, *args, "--offspring", "1:0.95,2:0.05")
    _, by_mean, _ = run(capsys, *args, "--mean", "1.05")
    assert by_law == by_mean


@pytest.mark.parametrize("spec, flags", [
    (RegularTree(4), ["--group", "tree", "--l", "4"]),
    (FreeGroup(2), ["--group", "free", "--k", "2"]),
])
def test_sphere_counts_are_the_tree_sphere_sizes(capsys, spec, flags):
    code, out, _ = run(capsys, "sphere", *flags, "--n", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,count"
    g = group_for(spec)
    assert lines[1:] == [f"{n},{g.sphere_size(n)}" for n in range(7)]


@pytest.mark.parametrize("radius", ["-1", "11"])
def test_brw_refuses_radius_outside_walk(capsys, radius):
    code, out, err = run(capsys, "brw", "--group", "tree", "--l", "4",
                         "--radius", radius, "--maxgen", "10")
    assert code == 1
    assert out == ""
    assert "radius" in err


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


def test_dl_r_beyond_one_exit_code(capsys):
    code, out, err = run(capsys, "hr", "--group", "dl", "--q", "3",
                         "--r", "1.2", "--nmax", "4")
    assert code == 1
    assert not out
    assert "0 <= r <= 1" in err


def test_zd_r_beyond_one_exit_code(capsys):
    code, out, err = run(capsys, "hr", "--group", "zd", "--d", "3",
                         "--r", "1.2")
    assert code == 1
    assert not out
    assert "diverges for r > R" in err


def test_tree_r_beyond_radius_exit_code(capsys):
    code, out, err = run(capsys, "hr", "--group", "tree", "--l", "4",
                         "--r", "1.2", "--nmax", "4")
    assert code == 1
    assert not out
    assert "0 <= r <= R" in err


def test_treeprod_r_at_radius_exit_code(capsys):
    R = 1.0 / known_spectral_radius(standard_measure(TreeProduct(6, 4)))
    code, out, err = run(capsys, "hr", "--group", "treeprod", "--l1", "6",
                         "--l2", "4", "--r", repr(R), "--nmax", "4")
    assert code == 1
    assert not out
    assert "0 <= r < R" in err


def test_tree_sphere_sizes_past_the_float_range_exit_code(capsys):
    code, out, err = run(capsys, "hr", "--group", "tree", "--l", "6",
                         "--r", "0.5", "--nmax", "500")
    assert code == 1
    assert not out
    assert "float range" in err


def test_treeprod_series_tails_within_tol(capsys):
    code, out, _ = run(capsys, "hr", "--group", "treeprod", "--l1", "6",
                       "--l2", "4", "--r", "1.03", "--nmax", "30")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 31
    for row in rows:
        assert float(row[2]) <= 1e-9 and row[3] == "true"


def test_budget_error_exit_code(capsys, monkeypatch):
    from greengrowth.groups import BudgetExceededError

    def blown(spec):
        raise BudgetExceededError("enumeration budget exhausted")

    monkeypatch.setattr("greengrowth.cli.group_for", blown)
    code, _, err = run(capsys, "sphere", "--group", "free", "--k", "3",
                       "--n", "12")
    assert code == 2
    assert "budget" in err.lower()


def test_selftest_prints_criterion_times(capsys, monkeypatch):
    calls = []

    def call(argv):
        calls.append(argv)
        return 0

    monkeypatch.setattr("subprocess.call", call)
    code, _, _ = run(capsys, "selftest")
    assert code == 0
    [argv] = calls
    assert "--durations=0" in argv
    assert argv[-1].endswith("test_acceptance.py")


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "--output", str(target), "hr", "--group",
                       "tree", "--l", "4", "--r", "1", "--nmax", "2")
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("n,H,tail,rigorous\n")


def _readme_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("greengrowth ")]


def test_readme_examples_parse():
    examples = _readme_examples()
    assert len(examples) >= 10
    for argv in examples:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


@pytest.mark.parametrize("argv", [
    "omega --group tree --l 4 --r 1 --nmax 12 --window-lo 3",
    "omega --group tree --l 4 --r 1 --nmax 12 --window-hi 9",
    "freeprod-scan --alpha 0.05 --rmin 1.0",
    "freeprod-scan --alpha 0.05 --rmax 1.1",
])
def test_half_given_range_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert not out
    assert "both ends" in err


def test_bitree_phase_refuses_a_negative_grid(capsys):
    code, out, err = run(capsys, "bitree-phase", "--l1", "6", "--l2", "4",
                         "--grid", "-3")
    assert code == 1
    assert not out
    assert "--grid" in err


@pytest.mark.parametrize("group", ["tree", "treeprod", "zd", "dl",
                                   "heisenberg"])
def test_negative_nmax_exit_code(capsys, group):
    code, out, err = run(capsys, "hr", "--group", group, "--r", "0.5",
                         "--nmax", "-1")
    assert code == 1
    assert not out
    assert "n_max" in err


def test_readme_examples_run(capsys):
    examples = [argv for argv in _readme_examples()
                if argv[1] != "selftest"]
    assert len(examples) >= 10
    for argv in examples:
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, f"{shlex.join(argv)} exited {code}: {err}"
        assert out


def test_every_readme_example_is_pinned():
    pinned = {argv for argv, _ in README_DIGESTS}
    for argv in _readme_examples():
        assert argv[1] == "selftest" or shlex.join(argv[1:]) in pinned


@pytest.mark.parametrize("argv, words", [
    ("hr --group zd --alpha inf --r 0.5", "--alpha must be finite"),
    ("hr --group treeprod --a1 inf --r 0.5", "--a1 must be finite"),
    ("hr --group heisenberg --alpha nan --r 0.5", "--alpha must be finite"),
    ("brw --group tree --mean inf", "got inf"),
    ("brw --group tree --mean nan", "got nan"),
    ("hr --group heisenberg --r 0.5 --tol inf", "tol = inf"),
    ("hr --group tree --r 0.5 --tol inf", "tol = inf"),
    ("theta --group tree --r 0.5 --s inf --nmax 3", "s = inf"),
    ("theta --group tree --r 0.5 --s nan --nmax 3", "s = nan"),
    ("freeprod-scan --alpha inf", "got inf"),
])
def test_a_non_finite_number_is_refused(capsys, argv, words):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert out == ""
    assert err.startswith("invalid request") and words in err


def test_free_has_no_series(capsys):
    code, out, err = run(capsys, "hr", "--group", "free", "--r", "0.5")
    assert code == 1
    assert out == ""
    assert "no default kernel" in err


@pytest.mark.parametrize("line, key", [
    ("seed = 3", "seed"), ("output = x", "output"), ("config = y", "config"),
    ("window-lo = 3", "window_lo"),
])
def test_a_config_key_the_command_does_not_read_is_refused(
        tmp_path, capsys, line, key):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text(f"nmax = 3\n{line}\n")
    code, out, err = run(capsys, "--config", str(cfg), "hr", "--group",
                         "tree", "--r", "1")
    assert code == 1
    assert out == ""
    assert f"hr does not read config key(s) {key}" in err


def test_a_config_key_of_the_command_sets_its_default(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("seed = 3\nmaxgen = 20\nruns = 5\nl = 4\n")
    code, by_config, _ = run(capsys, "--config", str(cfg), "brw", "--group",
                             "tree")
    assert code == 0
    _, by_flags, _ = run(capsys, "brw", "--group", "tree", "--l", "4",
                         "--seed", "3", "--maxgen", "20", "--runs", "5")
    assert by_config == by_flags


def test_a_config_line_without_equals_is_refused(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("nmax 3\n")
    code, out, err = run(capsys, "--config", str(cfg), "hr", "--group",
                         "tree", "--r", "1")
    assert code == 1
    assert out == ""
    assert "config line without '='" in err


def test_dl_verify_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dl-verify", "--q", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'dl-verify'" in capsys.readouterr().err


@pytest.mark.parametrize("group, tol", [
    ("tree", "-1"), ("treeprod", "0"), ("zd", "nan"), ("dl", "0"),
    ("heisenberg", "-1"),
])
def test_tol_is_refused_unless_positive(capsys, group, tol):
    code, out, err = run(capsys, "hr", "--group", group, "--r", "0.5",
                         "--nmax", "3", "--tol", tol)
    assert code == 1
    assert not out
    assert "tol" in err


@pytest.mark.parametrize("bounds", [
    ("--rmin", "1.05", "--rmax", "1.06"), ("--rmin", "1.05"),
    ("--rmax", "1.06"),
])
def test_bitree_phase_refuses_a_range_without_grid(capsys, bounds):
    code, out, err = run(capsys, "bitree-phase", "--l1", "6", "--l2", "4",
                         *bounds)
    assert code == 1
    assert not out
    assert "--grid" in err


@pytest.mark.parametrize("argv", [
    "freeprod-scan --alpha 0.05 --points 3 --full-series-n 0",
    "freeprod-scan --alpha 0.05 --rmin 1.0 --rmax 1.1 --points 0",
])
def test_freeprod_scan_refuses_points_without_a_range_or_below_one(
        capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert not out
    assert "--points" in err


def test_freeprod_scan_range_defaults_to_nine_points(capsys, monkeypatch):
    grids = []

    def scan(params, d, alpha, r_grid, **kwargs):
        grids.append(r_grid)
        raise ValueError("stop")

    monkeypatch.setattr("greengrowth.freeprod.scan_construction", scan)
    run(capsys, "freeprod-scan", "--alpha", "0.05", "--rmin", "1.0",
        "--rmax", "1.1")
    [grid] = grids
    assert len(grid) == 9 and grid[0] == 1.0 and grid[-1] == 1.1


@pytest.mark.parametrize("argv, flags", [
    ("hr --group dl --q 3 --alpha 0.3 --r 0.5", "--alpha"),
    ("hr --group tree --l 4 --d 7 --q 5 --r 0.5", "--d, --q"),
    ("hr --group treeprod --alpha 0.1 --r 0.5", "--alpha"),
    ("omega --group heisenberg --l 3 --r 0.5", "--l"),
    ("theta --group free --a1 0.3 --r 0.5 --s 1", "--a1"),
    ("brw --group zd --k 2 --maxgen 5", "--k"),
    # sphere counts the group: it reads no walk flag
    ("sphere --group zd --alpha 0.3 --n 2", "--alpha"),
    ("sphere --group freeprod --a1 0.3 --n 2", "--a1"),
])
def test_a_group_flag_the_group_does_not_read_is_refused(capsys, argv,
                                                         flags):
    code, out, err = run(capsys, *argv.split())
    assert code == 1
    assert not out
    assert f"does not read {flags} " in err


def test_a_config_key_the_group_does_not_read_is_refused(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("d = 3\n")
    code, out, err = run(capsys, "--config", str(cfg), "hr", "--group",
                         "tree", "--r", "1")
    assert code == 1
    assert not out
    assert "does not read --d " in err
    # the group that reads it takes it
    code, out, _ = run(capsys, "--config", str(cfg), "hr", "--group", "zd",
                       "--r", "0.5", "--nmax", "2")
    assert code == 0 and out


@pytest.mark.parametrize("flag", ["--nterms", "--support-cap"])
def test_freeprod_scan_has_no_sweep_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["freeprod-scan", "--alpha", "0.05", flag, "24"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_brw_refuses_a_seed_outside_64_bits(capsys, seed):
    code, out, err = run(capsys, "brw", "--group", "tree", "--l", "4",
                         "--seed", seed)
    assert code == 1
    assert out == ""
    assert "seed" in err

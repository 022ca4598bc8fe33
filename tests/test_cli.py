"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from coopsim import cli
from coopsim.cli import main, parse_config_text
from coopsim.errors import DomainError
from coopsim.graphical import sterile_probability
from coopsim.percolation import prob_a1

SRC = Path(__file__).resolve().parents[1] / "src"


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def data_rows(text: str) -> list[str]:
    return [
        line
        for line in text.splitlines()
        if line and not line.startswith("#") and line[0].isdigit()
    ]


# ----------------------------------------------------------------- meanfield


def test_meanfield_defector_takeover(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "meanfield", "--beta", "2", "--beta-c", "1", "--beta-d", "0.7",
            "--x0", "0.3", "--y0", "0.3", "--t-end", "500", "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "# regime=defectors_win" in text
    terminal = next(l for l in text.splitlines() if l.startswith("# terminal"))
    x = float(terminal.split("x=")[1].split()[0])
    y = float(terminal.split("y=")[1])
    assert abs(x) < 1e-8
    assert abs(y - (1.0 - 1.0 / 2.7)) < 1e-6
    assert "# fixed_points=" in text
    assert text.splitlines()[-1].startswith("500,")


MEANFIELD_ARGS = ["meanfield", "--beta", "2", "--beta-c", "1", "--beta-d", "0.7"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        # the benchmark's desk command at seed 1's start
        (MEANFIELD_ARGS + ["--t-end", "300", "--x0", "0.253546487410077", "--y0", "0.3851391088977807"],
         "97c7dcd379f0c355d2ae86dbfe5691aab66d749d76debed1c98e89bd6322c0cb"),
        # the README example
        (MEANFIELD_ARGS + ["--x0", "0.3", "--y0", "0.3", "--t-end", "500"],
         "fa23230ca3367de1dd0530e5591e7f23d3376b65d0157c0bcd7424dc95bd15f9"),
    ],
    ids=["desk-seed1", "readme"],
)
def test_meanfield_pinned_bytes(argv, digest, engine, capsys):
    code, out = run_main(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_meanfield_phi_curve_monotone(capsys):
    code, out = run_main(
        ["meanfield", "--phi-curve", "--beta", "2", "--beta-c-max", "10", "--points", "100"],
        capsys,
    )
    assert code == 0
    rows = [line for line in out.splitlines() if "," in line and not line.startswith(("#", "beta_c"))]
    assert len(rows) == 100
    vals = [float(r.split(",")[1]) for r in rows]
    caps = [float(r.split(",")[0]) for r in rows]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(v < c for v, c in zip(vals[1:], caps[1:]))  # phi stays below identity


# ---------------------------------------------------------------- exit codes


def test_missing_required_flag_exits_2(capsys):
    assert main(["meanfield"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert "--beta" in err


def test_domain_error_exits_2(capsys):
    assert main(["meanfield", "--beta", "0.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_rate_exits_2(capsys):
    code = main(["simulate", "--beta", "2", "--beta-c", "nan", "--side", "4", "--replicas", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "finite" in err
    assert "freq_both_extinct" not in out


@pytest.mark.parametrize(
    "argv",
    [
        "meanfield --beta 2 --x0 nan",
        "meanfield --beta 2 --y0 nan",
        "blocks a3 --beta 2 --T nan",
        "meanfield --phi-curve --beta 2 --beta-c-max inf --points 3",
        "meanfield --beta 2 --t-end inf",
        "meanfield --beta 2 --dt nan",
        "meanfield --beta 2 --sample-interval nan",
        "sterile --beta 2 --t-end inf",
        "sterile --beta 2 --t-end nan",
        "blocks a1 --T inf",
        "blocks a2 --beta 2 --T nan",
        "blocks cplus --rho nan",
        "blocks cplus --rho inf",
        "couple --beta 2 --t-end nan",
        "bracket --beta 4 --side 4 --t-end 1 --replicas 2 --hi inf",
        "bracket --beta 4 --side 4 --t-end 1 --replicas 2 --lo nan",
    ],
)
def test_non_finite_input_exits_2(argv, capsys):
    code, out = run_main(argv.split(), capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        "blocks a1 --T 1e300",
        "blocks a2 --beta 2 --T 1e300",
        "blocks cplus --rho 1e300",
        "dual --beta 1e300 --side 4",
        "sterile --beta 1e300 --side 8 --t-end 2",
        # a mean out of range is named as such, even with counts too many to store
        "blocks a1 --T 1e300 --replicas 100000000000000000000000",
    ],
)
def test_poisson_mean_beyond_numpy_exits_2(argv, capsys):
    # numpy refuses the draw ("lam value too large"); that is a domain error, not a crash
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Poisson mean" in err and "out of range" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # a drawn Poisson count sizes arrays that cannot be allocated
        ("blocks a2 --beta 2 --T 1e16", "cannot be stored"),
        ("dual --beta 1e17 --side 4", "cannot be stored"),
        # a step count too large to store
        ("meanfield --beta 2 --t-end 1e12", "cannot be stored"),
        ("meanfield --beta 2 --dt 1e-300 --t-end 1", "cannot be stored"),
        # a sample interval whose ratio to dt overflows
        ("meanfield --beta 2 --t-end 1 --sample-interval 1e308", "sample_interval / dt"),
        # the field overflows and the state turns to NaN
        ("meanfield --beta 1e200 --beta-c 1e200 --beta-d 1 --t-end 1", "left the simplex"),
        ("meanfield --beta 1e308 --beta-c 1e308 --beta-d 1e308 --t-end 1", "left the simplex"),
        # a torus beyond the int32 site limit
        ("simulate --beta 2 --side 2 --dim 64 --replicas 1 --t-end 1", "more than 2147483647 sites"),
        ("couple --beta 2 --delta-c 1 --side 2 --dim 64 --replicas 1 --t-end 1",
         "more than 2147483647 sites"),
        ("dual --beta 2 --side 2 --dim 64", "more than 2147483647 sites"),
        # block arrays of 100 TiB or more; numpy checks a Poisson mean before the size
        ("blocks perc --levels 100000 --width 100000000 --seed 1", "percolation uniforms cannot be stored"),
        ("blocks perc --levels 4 --width 3000000000000000000000 --seed 1",
         "percolation uniforms cannot be stored"),
        ("blocks a1 --replicas 100000000000000 --seed 1", "Poisson counts cannot be stored"),
        ("blocks cplus --replicas 100000000000000 --seed 1", "Poisson counts cannot be stored"),
        ("blocks a1 --replicas 100000000000000000000000 --seed 1", "Poisson counts cannot be stored"),
        ("sterile --beta 1 --t-end 1e15 --replicas 10 --seed 1", "probe times cannot be stored"),
        # a box whose site count is beyond a float
        ("blocks a2 --beta 1 --dim 700 --replicas 10 --seed 1", "dimension 700 gives a box"),
        ("blocks a3 --beta 1 --dim 700", "dimension 700 gives a box"),
        ("blocks cplus --L 2 --dim 700 --replicas 10 --seed 1", "dimension 700 gives a box"),
        ("blocks cplus --L 2 --dim 300 --rho 1e-300 --replicas 10 --seed 1", "dimension 300 gives a box"),
        ("blocks a1 --dim 5000 --replicas 2 --seed 1", "dimension 5000 gives a box"),
        ("blocks a1 --dim 10000000 --replicas 2 --seed 1", "dimension 10000000 gives a box"),
        # rates whose total can exceed a float, which once gave every step no time
        ("simulate --beta 1e308 --beta-c 1e308 --beta-d 1 --side 4 --t-end 1 --replicas 3 --seed 1",
         "can exceed the largest float"),
        ("simulate --beta 1e308 --side 6 --t-end 1 --replicas 2 --seed 1", "can exceed the largest float"),
        # refused before the sub-box lists or the run list are built
        ("blocks spread --beta 4 --beta-d 1 --L 2147483648 --replicas 2 --seed 1",
         "more than 2147483647 sites"),
        pytest.param(f"simulate --beta 2 --side 6 --t-end 1 --replicas 1{'0' * 30} --seed 1",
                     "about 1.00e30 replicas cannot be stored", id="simulate-replicas-1e30"),
        pytest.param(f"sweep --beta 2 --beta-c-grid 0 --beta-d-grid 0 --side 6 --t-end 1 "
                     f"--replicas 1{'0' * 30} --seed 1",
                     "about 1.00e30 replicas cannot be stored", id="sweep-replicas-1e30"),
        # an L whose window 2L^2, or that times the region, is beyond a float
        pytest.param(f"blocks cplus --L 1{'0' * 200} --replicas 2 --seed 1",
                     "L = about 1.00e200 in dimension 1", id="cplus-L-1e200"),
        pytest.param(f"blocks cplus --L 1{'0' * 100} --dim 2 --rho 0 --replicas 2 --seed 1",
                     "L = about 1.00e100 in dimension 2", id="cplus-L-1e100-rho-0"),
    ],
)
def test_too_large_to_store_or_overflowing_exits_2(argv, message, capsys):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        "blocks a1 --dim 300 --replicas 2 --seed 1",
        "blocks a1 --dim 600 --replicas 2 --seed 1",
        "blocks a1 --dim 647 --replicas 2 --seed 1",
        f"blocks cplus --L 1{'0' * 200} --replicas 2 --seed 1",
        f"blocks cplus --L 1{'0' * 100} --dim 2 --rho 0 --replicas 2 --seed 1",
    ],
    ids=["a1-dim-300", "a1-dim-600", "a1-dim-647", "cplus-L-1e200", "cplus-L-1e100-rho-0"],
)
def test_huge_blocks_input_is_refused_in_one_short_line(argv, capsys):
    # the line names the dimension or L, and a count's size, not its digits
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    (line,) = [line for line in err.splitlines() if line.startswith("coopsim:")]
    assert line.startswith("coopsim: error: ") and len(line) < 200
    assert "dimension" in line or "L = " in line


@pytest.mark.parametrize(
    "argv",
    [
        "blocks a1 --dim 1000000000 --replicas 2 --seed 1",
        "blocks a2 --beta 1 --dim 1000000000 --replicas 2 --seed 1",
        "blocks a3 --beta 1 --dim 1000000000",
        "blocks cplus --dim 1000000000 --replicas 2 --seed 1",
    ],
)
def test_blocks_dimension_beyond_a_float_exits_2_without_building_the_box(argv):
    # in a child process, so that building 3**(d - 1) fails the test by its
    # timeout instead of hanging the suite
    proc = python_in_src("-m", "coopsim.cli", *argv.split(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("coopsim: error: dimension 1000000000 gives a box")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        "blocks cplus --L 1 --dim 0",
        "blocks cplus --L 1 --dim -1",
        "blocks a3 --beta 1 --dim 0",
    ],
)
def test_closed_form_dimension_below_one_exits_2(argv, capsys):
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "dimension must be >= 1" in err


def test_unparsable_config_value_and_seed_exit_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta=abc\n")
    assert main(["meanfield", "--config", str(cfg)]) == 2
    assert "beta='abc'" in capsys.readouterr().err
    monkeypatch.setenv("COOP_SEED", "xyz")
    assert main(["simulate", "--beta", "2", "--side", "4", "--replicas", "2"]) == 2
    assert "COOP_SEED='xyz'" in capsys.readouterr().err


def test_io_error_exits_1(capsys):
    code = main(
        ["blocks", "a1", "--T", "1", "--replicas", "10",
         "--out", "/nonexistent-dir/f.json"]
    )
    assert code == 1
    assert "i/o" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_config_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta 2\n")
    assert main(["meanfield", "--config", str(cfg)]) == 2
    capsys.readouterr()
    with pytest.raises(DomainError):
        parse_config_text("just words\n")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta=4\nhorizon=9\nsied=8\n")
    code = main(["simulate", "--config", str(cfg), "--side", "4", "--t-end", "1", "--replicas", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "horizon" in err and "sied" in err


def test_config_key_given_twice_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta=4\nside=4\n# later edit\nside=6\n")
    code = main(["simulate", "--config", str(cfg), "--t-end", "1", "--replicas", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "'side'" in err and "lines 2 and 4" in err


@pytest.mark.parametrize("grid", ["0,,3", "0,3,", ",0,3", ""])
def test_empty_item_in_list_option_exits_2(tmp_path, capsys, grid):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"beta=4\nbeta_c_grid={grid}\nbeta_d_grid=1\n")
    code = main(["sweep", "--config", str(cfg), "--side", "4", "--t-end", "1", "--replicas", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"beta_c_grid={grid!r}" in err
    code = main(["sweep", "--beta", "4", "--beta-c-grid", "0,,3", "--beta-d-grid", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and "--beta-c-grid" in err


def test_repeated_main_calls_reuse_one_parser(capsys):
    # the parser is built once; usage errors, help and exit codes are as before
    assert cli._build_parser() is cli._build_parser()
    assert main(["frobnicate"]) == 2
    first = capsys.readouterr().err
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err == first and "invalid choice" in first
    assert main(["meanfield", "--beta", "nan"]) == 2
    assert "usage: coopsim" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage: coopsim" in capsys.readouterr().out
    assert main(["meanfield", "--beta", "2", "--t-end", "1", "--sample-interval", "0.5"]) == 0
    assert "# regime=" in capsys.readouterr().out


# -------------------------------------------------------------------- replay


SIM_ARGS = [
    "simulate", "--beta", "4", "--beta-c", "1", "--beta-d", "1",
    "--side", "20", "--t-end", "5", "--replicas", "10", "--seed", "7",
]


def test_simulate_replay_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(SIM_ARGS + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert "# config_hash=" in text
    assert "# seed=7" in text
    assert "# coopsim " in text
    assert len(data_rows(text)) == 10


def test_jobs_flag_does_not_change_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(SIM_ARGS + ["--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


SWEEP_ARGS = [
    "sweep", "--beta", "4", "--beta-c-grid", "0,4,8", "--beta-d-grid", "0.5,1,1.5",
    "--side", "20", "--t-end", "30", "--replicas", "20", "--seed", "1",
]
BRACKET_ARGS = [
    "bracket", "--beta", "4", "--beta-d", "1", "--side", "24", "--t-end", "80",
    "--replicas", "20", "--budget", "4", "--tau", "0.5", "--seed", "1",
]
COUPLE_ARGS = [
    "couple", "--beta", "3", "--beta-c", "1.2", "--beta-d", "0.5", "--delta-c", "1",
    "--replicas", "200", "--seed", "1",
]
STERILE_ARGS = ["sterile", "--beta", "0.3", "--beta-c", "0.7", "--replicas", "6000", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (SWEEP_ARGS + ["--jobs", "1"], "c6a28a8141d1d872713cf91a5474d2405f884c1529c7f2cbcd07d4d2b7c0f1cf"),
        (SWEEP_ARGS + ["--jobs", "2"], "c6a28a8141d1d872713cf91a5474d2405f884c1529c7f2cbcd07d4d2b7c0f1cf"),
        (BRACKET_ARGS, "332b9afce9ff4b39c3ed9f202eb8ba7d4d5fe88034b9e42b271aba0007bd016a"),
        (COUPLE_ARGS, "381dc9e218ac6bebb0eb9c10e12dece1fbbac6b6d90c4948b4f6fe571328f252"),
        (STERILE_ARGS, "92adfff2082aef0c951bca4e49c8f90dbe307cfdca4673ea1a802ad0fab49391"),
        # seed 41 lands 4.3 standard errors from the closed form
        (STERILE_ARGS[:-1] + ["41"], "275d168f9aa7ef594f84952cf506d5480252956a94446b29f3be5e05867268cf"),
    ],
    ids=["sweep-jobs1", "sweep-jobs2", "bracket", "couple", "sterile", "sterile-seed41"],
)
def test_survival_commands_pinned_bytes(argv, digest, capsys):
    code, out = run_main(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", [SIM_ARGS, SWEEP_ARGS])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(command, jobs, capsys):
    code = main(command + ["--jobs", jobs])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "jobs must be at least 1" in err


SEEDED_ARGS = [
    "simulate --beta 2",
    "sweep --beta 2 --beta-c-grid 0 --beta-d-grid 0",
    "couple --beta 2",
    "dual --beta 2",
    "bracket --beta 2",
    "sterile --beta 2",
    "blocks a1",
    "blocks a2 --beta 2",
    "blocks cplus",
    "blocks spread --beta 2 --beta-d 1",
    "blocks perc",
]


def test_seeded_args_cover_every_seeded_command():
    assert sum(cli._SEED in cmd.options for cmd in cli._COMMANDS.values()) == len(SEEDED_ARGS)


@pytest.mark.parametrize("source", ["--seed", "config", "COOP_SEED"])
@pytest.mark.parametrize("argv", SEEDED_ARGS)
def test_negative_seed_exits_2(argv, source, tmp_path, monkeypatch, capsys):
    argv = argv.split()
    if source == "--seed":
        argv += ["--seed", "-1"]
    elif source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-2\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("COOP_SEED", "-4")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert source in err and "non-negative" in err


def test_env_seed_fallback(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    monkeypatch.setenv("COOP_SEED", "7")
    assert main(SIM_ARGS[:-2] + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_and_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# simulate settings\n"
        "beta=4\nbeta_c=1\nbeta_d=1\nside=20\nt_end=5\nreplicas=10\nseed=7\n"
    )
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert main(SIM_ARGS + ["--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(c)]) == 0
    text = c.read_text()
    assert "# seed=8" in text
    assert c.read_bytes() != a.read_bytes()


def test_config_hash_tracks_parameters(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(SIM_ARGS + ["--out", str(a)])
    main(SIM_ARGS[:-2] + ["--seed", "8", "--out", str(b)])
    hash_a = next(l for l in a.read_text().splitlines() if "config_hash" in l)
    hash_b = next(l for l in b.read_text().splitlines() if "config_hash" in l)
    assert hash_a != hash_b


def test_cli_entry_point_subprocess():
    r = subprocess.run(
        [sys.executable, "-m", "coopsim.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "coopsim" in r.stdout


# One small argv per command.
SMALL_ARGS = [
    "meanfield --beta 2 --t-end 1",
    "simulate --beta 2 --side 6 --t-end 1 --replicas 2",
    "sweep --beta 2 --beta-c-grid 0 --beta-d-grid 0 --side 6 --t-end 1 --replicas 2",
    "couple --beta 2 --delta-c 1 --side 6 --t-end 1 --replicas 2",
    "dual --beta 2 --side 6 --t-end 1",
    "bracket --beta 4 --beta-d 1 --side 6 --t-end 2 --replicas 2 --budget 2 --tau 0.5",
    "sterile --beta 2 --side 8 --t-end 2 --replicas 2",
    "blocks a1 --replicas 2",
    "blocks a2 --beta 2 --replicas 2",
    "blocks a3 --beta 2",
    "blocks cplus --replicas 2",
    "blocks spread --beta 4 --beta-d 1 --L 2 --replicas 2",
    "blocks perc --levels 2 --width 3",
]

# Blocks scipy, imports every coopsim module, then runs each argv given as
# JSON and prints the exit codes.
WITHOUT_SCIPY = """
import contextlib, importlib, io, json, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
import coopsim
from coopsim import cli
for info in pkgutil.iter_modules(coopsim.__path__):
    importlib.import_module("coopsim." + info.name)
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv.split()))
print(json.dumps(codes))
"""


def python_in_src(*args: str, timeout: float = 600) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=timeout)


def test_small_args_cover_every_command():
    names = {":".join(argv.split()[:2]) if argv.startswith("blocks") else argv.split()[0]
             for argv in SMALL_ARGS}
    assert names == set(cli._COMMANDS)


def test_every_command_runs_without_scipy():
    proc = python_in_src("-c", WITHOUT_SCIPY, json.dumps(SMALL_ARGS))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(SMALL_ARGS)


# The bad-input battery: each numeric option of each command's SMALL_ARGS,
# in turn, set to each of these values
BATTERY_FLOATS = ("0", "-1", "-0.0", "5e-324", "1e308", "inf", "nan")
BATTERY_INTS = ("0", "-1", str(2**31), str(10**30))
BATTERY_SECONDS = 20  # each argv's alarm in the child
BATTERY_ADDRESS_SPACE = 1 << 30  # the child's own RLIMIT_AS, in bytes

# (command, option, value) of valid jobs too large to start, with the reason
BATTERY_HUGE_JOBS: dict[tuple[str, str, str], str] = {
    (key, "replicas", value): "a valid count of replicas run one after another, none stored: "
    "it runs for days or forever" for key in ("couple", "sterile", "blocks:a2", "blocks:spread")
    for value in (str(2**31), str(10**30))
}


def battery_argvs(key: str) -> list[list[str]]:
    """The battery's argvs for command ``key``, less :data:`BATTERY_HUGE_JOBS`."""
    (base,) = [argv.split() for argv in SMALL_ARGS
               if ":".join(argv.split()[: 1 + argv.startswith("blocks")]) == key]
    argvs = []
    for opt in cli._COMMANDS[key].options:
        values = {"int": BATTERY_INTS, "float": BATTERY_FLOATS, "floats": BATTERY_FLOATS}.get(opt.kind, ())
        argvs += [base + [opt.flag, v] for v in values if (key, opt.name, v) not in BATTERY_HUGE_JOBS]
    return argvs


# Limits its own address space, then runs each argv given as JSON under an
# alarm and prints [argv, exit code or what went wrong, stderr] for each.
BATTERY = """
import contextlib, io, json, resource, signal, sys, traceback
limit, seconds = int(sys.argv[2]), float(sys.argv[3])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from coopsim import cli

class Alarm(BaseException):
    pass

def ring(*_):
    raise Alarm

signal.signal(signal.SIGALRM, ring)
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Alarm:
        code = f"still running after {seconds} s"
    except Exception:
        code = "raised"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    results.append([argv, code, err.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("key", list(cli._COMMANDS))
def test_bad_numeric_input_exits_0_or_2_in_one_short_line(key):
    argvs = battery_argvs(key)
    proc = python_in_src("-c", BATTERY, json.dumps(argvs), str(BATTERY_ADDRESS_SPACE),
                         str(BATTERY_SECONDS), timeout=300)
    assert proc.returncode == 0, proc.stderr
    bad = []
    for argv, code, err in json.loads(proc.stdout):
        lines = [line for line in err.splitlines() if line.startswith("coopsim: error:")]
        ok = code == 0 and not lines or code == 2 and len(lines) == 1 and len(lines[0]) < 200
        if not ok or "Traceback" in err:
            bad.append(f"{' '.join(argv)}: {code}: {err.strip()[-300:]}")
    assert not bad, "\n".join(bad)


def test_import_loads_no_scipy():
    proc = python_in_src("-c", "import sys, coopsim.cli; "
                               "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------- blocks


def payload(capsys):
    return json.loads(capsys.readouterr().out)


def test_blocks_a1_matches_closed_form(capsys):
    code = main(["blocks", "a1", "--dim", "1", "--T", "1", "--replicas", "20000", "--seed", "2"])
    assert code == 0
    doc = payload(capsys)
    est = float(doc["result"]["estimate"])
    se = float(doc["result"]["stderr"])
    assert float(doc["result"]["closed_form"]) == prob_a1(1.0, 1)
    assert abs(est - prob_a1(1.0, 1)) <= 3 * se
    assert doc["version"]
    assert doc["config"]["command"] == "blocks:a1"


def test_blocks_a3_reports_bound(capsys):
    code = main(["blocks", "a3", "--beta", "2", "--beta-c", "2", "--T", "1", "--delta", "1"])
    assert code == 0
    doc = payload(capsys)
    assert float(doc["result"]["lower_bound"]) == pytest.approx(0.08007235710677309)


def test_blocks_perc_renders_field(capsys):
    code, out = run_main(
        ["blocks", "perc", "--epsilon", "0", "--levels", "3", "--width", "4", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "# wet_per_level=5,4,5,4" in out
    assert out.splitlines()[-1] == "3: 4w"


def test_blocks_spread_runs_small(capsys):
    code = main(
        ["blocks", "spread", "--beta", "4", "--beta-d", "2", "--L", "2",
         "--replicas", "5", "--seed", "3"]
    )
    assert code == 0
    doc = payload(capsys)
    assert 0.0 <= float(doc["result"]["frequency"]) <= 1.0
    assert doc["result"]["replicas"] == 5


PERC_ARGS = ["blocks", "perc", "--epsilon", "0.05", "--levels", "400", "--width", "600", "--seed"]
SPREAD_ARGS = ["blocks", "spread", "--beta", "4", "--beta-d", "1", "--L", "6", "--replicas", "20",
               "--seed"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (PERC_ARGS + ["1"], "616ecfc58ce2e3ab80ae1a25c15354ab37fe68c21df9b9dd69ac5e9342b32a0e"),
        (PERC_ARGS + ["41"], "3fe24ab42c962af955c60918e233005eeb2f8fd87d1face94c8557c6e26e9317"),
        (SPREAD_ARGS + ["1"], "033b9a269b0018b3e6933120c205d872a973a4aad1c0af75d21b17915dca7442"),
        (SPREAD_ARGS + ["41"], "ea77be51e5984e20bffaeca781c962b124de43e9ae3cac1720d9add87e665e8a"),
    ],
    ids=["perc-seed1", "perc-seed41", "spread-seed1", "spread-seed41"],
)
def test_blocks_pinned_bytes(argv, digest, capsys):
    code, out = run_main(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------------------ sterile


def test_sterile_matches_closed_form(capsys):
    code = main(["sterile", "--beta", "0.3", "--beta-c", "0.7", "--replicas", "5000", "--seed", "5"])
    assert code == 0
    doc = payload(capsys)
    est = float(doc["result"]["estimate"])
    se = float(doc["result"]["stderr"])
    closed = float(doc["result"]["closed_form"])
    assert closed == sterile_probability(0.3, 0.7)
    assert abs(est - closed) <= 3 * se


# --------------------------------------------------------------------- dual


def test_dual_renders_lexicographic_hierarchy(capsys):
    code, out = run_main(
        ["dual", "--beta", "2", "--beta-c", "1", "--side", "12", "--t-end", "2.5", "--seed", "11"],
        capsys,
    )
    assert code == 0
    body = [l for l in out.splitlines() if l and l[0] == "("]
    indices = [tuple(int(t) for t in l.split("\t")[0].strip("()").split(",")) for l in body]
    assert indices[0] == (1,)
    assert indices == sorted(indices)
    assert all(len(l.split("\t")) == 5 for l in body)



def test_dual_readme_example_pinned_bytes(capsys):
    # SHA-256 of the README example's stdout, computed with the
    # rescan-and-sort dual of coopsim 0.1.0
    code, out = run_main(
        ["dual", "--beta", "2", "--beta-c", "1", "--beta-d", "1", "--side", "12",
         "--t-end", "3", "--site", "0", "--seed", "9"],
        capsys,
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "4fc1acd4d232ce6b71d4c9fc5d9cb366bf06c0eb5847d446c864a3cd2e46e4a7"


@pytest.mark.parametrize(
    "check", [test_dual_renders_lexicographic_hierarchy, test_dual_readme_example_pinned_bytes],
    ids=lambda check: check.__name__.removeprefix("test_"),
)
def test_dual_command_holds_on_each_engine(engine, check, capsys):
    check(capsys)


@pytest.mark.parametrize("seed, digest", [
    ("1", "92adfff2082aef0c951bca4e49c8f90dbe307cfdca4673ea1a802ad0fab49391"),
    ("41", "275d168f9aa7ef594f84952cf506d5480252956a94446b29f3be5e05867268cf"),
], ids=["seed1", "seed41"])
def test_sterile_pinned_bytes_on_each_engine(engine, seed, digest, capsys):
    # the digests of test_survival_commands_pinned_bytes
    code, out = run_main(STERILE_ARGS[:-1] + [seed], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest

# ------------------------------------------------------------------- couple


def test_couple_reports_nested_sets(capsys):
    code = main(
        ["couple", "--beta", "4", "--beta-c", "1", "--beta-d", "1",
         "--delta-c", "1", "--replicas", "20", "--seed", "6"]
    )
    assert code == 0
    doc = payload(capsys)
    res = doc["result"]
    assert res["c_sets_nested_at_horizon"] is True
    assert res["d_sets_nested_at_horizon"] is True
    assert float(res["freq_c_alive_favored"]) >= float(res["freq_c_alive_base"])


# ------------------------------------------------------------------ bracket


def test_bracket_degenerate_via_cli(capsys):
    code = main(
        ["bracket", "--beta", "4", "--beta-d", "0", "--side", "15", "--t-end", "10",
         "--replicas", "5", "--budget", "2", "--hi", "4", "--seed", "1"]
    )
    assert code == 0
    doc = payload(capsys)
    assert doc["result"]["beta_c_low"] == doc["result"]["beta_c_high"] == "0"
    assert "degenerate" in doc["result"]["notes"]


def test_bracket_upper_endpoint_failure_reports_both_evaluations(capsys):
    # the parameters of test_bracket_budget_exhausted_keeps_partial
    code = main(
        ["bracket", "--beta", "4", "--beta-d", "1", "--side", "30", "--t-end", "40",
         "--replicas", "30", "--rho-c", "0.05", "--rho-d", "0.55", "--seed", "556",
         "--tau", "0.9", "--lo", "0", "--hi", "0.5", "--budget", "4"]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    evaluations = re.findall(r"beta_c=(\S+) freq_c_wins=(\S+) freq_d_wins=([^;\s]+)", err)
    assert [float(bc) for bc, _, _ in evaluations] == [0.0, 0.5]
    assert float(evaluations[0][2]) > 0.9
    assert float(evaluations[1][1]) <= 0.9


# ------------------------------------------------------------------ presets


PRESETS = Path(__file__).resolve().parent.parent / "presets"


def test_presets_run_under_their_commands(capsys):
    # each preset is named <command>-<experiment>.cfg; the flags shrink the run
    presets = sorted(PRESETS.glob("*.cfg"))
    assert presets
    for preset in presets:
        command = preset.name.split("-")[0]
        argv = [command, "--config", str(preset), "--replicas", "2", "--side", "6", "--t-end", "1"]
        assert main(argv) == 0, preset.name
        assert capsys.readouterr().out

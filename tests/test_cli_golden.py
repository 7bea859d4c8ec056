"""Golden digests of the CSVs the CLI and ``run_suite`` write.

Each case pins the sha256 of the CSV bytes, so any change in parsing,
defaults, dispatch or formatting of an experiment shows up as a digest
change.  Every experiment is run as a subcommand (at least once on its
defaults) and once from a suite config; the printed table must equal the
written file.  The rbit-1d tables of the benchmark's ``cli_tables``
workload, up to p = 22, are checked against the benchmark's own digests.
"""

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rbitmc.cli import main, run_suite

SUBCOMMANDS = [
    (["normal-error", "--pmin", "4", "--pmax", "10"],
     "f02cce708aa36f36c5cf0d7da2ceea303ac65f824e8d9622211ac8eca148a5ae"),
    (["rbit-1d", "--pmin", "1", "--pmax", "6"],
     "c6cadb6d6b59fa7bbcda55b0eaaffb2b4caed9f7a09ff8d01796c0bb7e4792f4"),
    (["rbit-1d", "--law", "uniform", "--pmin", "1", "--pmax", "6", "--seed", "7"],
     "af1e68d3a3501158f625d6dc88da7b540e64e12d09d4147f7e51ffd52f0fc526"),
    (["bridge-error", "--lmin", "1", "--lmax", "8"],
     "8612b8cf889c82c8ca7a44510b97a421c0f5b0051a712ca11ca33a92178eb26c"),
    (["kl-error", "--beta", "2", "--alpha", "0", "--mmin", "16", "--mmax", "128"],
     "d1b3bc0421c1972fb4c4ea516a22e985202eac866d0c7fca63e01844d1db826e"),
    (["kl-error", "--beta", "3", "--alpha", "-2", "--mmin", "8", "--mmax", "64", "--seed", "5"],
     "f109329f75408b6cb0d01d155138540fc47da9c945dad3fec87fbc6ed85113c4"),
    (["sde-error", "--mmin", "4", "--mmax", "16"],
     "58251e8996acbbc08ef9f2ac73c4e80b09143d536b330ccda912ac0a69150532"),
    (["sde-error", "--mu", "0.1", "--sigma", "0.3", "--x0", "2", "--q", "12",
      "--mmin", "16", "--mmax", "64", "--reps", "50", "--seed", "3"],
     "05d41c86543e1d58a8e8c6d53bc2938d8672d1f8a04b33a3f30a01749c91204c"),
    (["mlmc", "--eps", "0.125"],
     "90fe47a4177fb1a39c5b1f4d3b34fd6605fe00a819d6923711ea1550df977a13"),
    (["mlmc", "--model", "kl", "--beta", "2", "--alpha", "0", "--eps", "0.125",
      "--functional", "coord1", "--runs", "4", "--seed", "9"],
     "d5ae82bf1a2f470b1626147dd4031648ec446122a12ecb06090493a79c82011d"),
    (["appendix-ratios"],
     "2d58313c49948d093405ad1c784eed648328e3736139c9ebde723435a9f98821"),
    (["appendix-ratios", "--pmin", "10.5", "--pmax", "20"],
     "c4f3a8accc7dab2d248f95aa86de212ba757e4e8d7835f3b3e91612c4029e5f7"),
]

SUITES = [
    ("experiment = normal-error\npmin = 4\npmax = 8\n",
     "b89ae5b8b7f70d36012ee48296cfe0db0be02d8c815565bc77c5df08773d9ee9"),
    ("experiment = rbit-1d\npmin = 2\npmax = 7\nseed = 3\n",
     "a9b63d397b5e7f0f216b540865395613b449fa2d69d553d57f8cfe71d9d067a3"),
    ("experiment = rbit-1d\nlaw = uniform\npmin = 1\npmax = 5\n",
     "db3d4412a98dcb797e3c59b314a5c07db8c4d8d76c9a8f1ba12490c3b235783a"),
    ("experiment = bridge-error\nlmin = 6\nlmax = 10\n",
     "179b54561f4c8955bf0123cae0fb9d3dd41c08b4ae30cc9c341fa883bdc566c8"),
    ("experiment = kl-error\nbeta = 2\nalpha = 0\nmmin = 16\nmmax = 64\n",
     "d3b70212450317c280b8be486984f69f0cba0a963de4193f0ea41ed7ce3e9bd9"),
    ("experiment = sde-error\nmmin = 16\nmmax = 32\nreps = 20\nq = 12\nseed = 4\n",
     "2d63880edef513f82260f86d726f4ff38bfc2c77e6213842c77f18f1b02e3ecb"),
    ("experiment = mlmc\neps = 0.125\nfunctional = coord1\nruns = 3\nseed = 2\n",
     "fdae2193a5a88feabb2aa84df175eea5ff93f54d6a156e103924f5085f5cae54"),
    ("experiment = appendix-ratios\npmin = 10\npmax = 15\n",
     "ddb9f0cf16e198fd0906cd1099c041a3d3256031a6aa71929fbff6dbd47b2a06"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("args,digest", SUBCOMMANDS, ids=[" ".join(a) for a, _ in SUBCOMMANDS])
def test_subcommand_csv_digest(tmp_path, args, digest):
    out = tmp_path / "out.csv"
    assert main(args + ["--csv", str(out)]) == 0
    data = out.read_bytes()
    assert _sha(data) == digest
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(args) == 0
    assert buf.getvalue().encode() == data


@pytest.mark.parametrize("text,digest", SUITES, ids=[t.replace("\n", " ").strip() for t, _ in SUITES])
def test_suite_csv_digest(tmp_path, text, digest):
    out = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + f"csv = {out}\n")
    assert run_suite(str(cfg)) == 0
    assert _sha(out.read_bytes()) == digest


ROOT = Path(__file__).resolve().parent.parent


def _benchmark_rbit_tables():
    """(name, arguments) of the rbit-1d rows of perfbench/workloads.CLI_TABLES."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(name, args) for name, args, _, _ in workloads.CLI_TABLES if args[0] == "rbit-1d"]


RBIT_TABLES = _benchmark_rbit_tables()


def test_benchmark_has_three_rbit_tables():
    assert [name for name, _ in RBIT_TABLES] == ["rbit-1d-normal-1-21", "rbit-1d-normal-22", "rbit-1d-uniform-1-22"]


@pytest.mark.parametrize("name,args", RBIT_TABLES, ids=[name for name, _ in RBIT_TABLES])
def test_benchmark_rbit_table_matches_its_digest(tmp_path, name, args):
    """The CSV bytes of each rbit-1d table of the benchmark, run as the
    benchmark runs it, equal its digest in perfbench/digests.json: the
    tables above reach p = 22, where the W2 cells span several 2**20-cell
    chunks, so a byte change at a chunk boundary fails here, not first in
    the benchmark."""
    out = tmp_path / "out.csv"
    fixtures = ROOT / "fixtures" / "acceptance.txt"
    assert main([*args, "--csv", str(out), "--seed", "1", "--fixtures", str(fixtures)]) == 0
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))["cli_tables"]
    assert _sha(out.read_bytes()) == digests[name]

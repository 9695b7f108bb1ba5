"""Smoke test of ``tools/digest.py`` on the first entry of each catalogue."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "digest.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_digest_covers_each_output_and_diff_names_what_differs(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("--limit", 1, a).returncode == 0
    assert run("--limit", 1, b).returncode == 0
    lines = a.read_text().splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    outputs = ("loss", "grad", "log_mass")
    assert names == (
        [f"pseudolabel/0/{o}" for o in ("cn", "cn_raw", "nbest", "target", *outputs)]
        + [f"merge-transform/0/{o}" for o in ("merged", "pruned", "smoothed", "target", *outputs)]
        + ["train-step/target/0"]
        + [f"train-step/0/{i}/{o}" for i in range(16) for o in outputs]
        + ["odd-frames/0/target"] + [f"odd-frames/0/{o}" for o in outputs]
        + ["chain/0/target"] + [f"chain/0/{o}" for o in outputs]
    )
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)
    # the same tree digests to the same bytes
    assert b.read_text() == a.read_text()
    same = run("--diff", a, b)
    assert same.returncode == 0
    assert same.stdout.splitlines() == [f"0 of {len(names)} entries differ"]

    # one changed digest and one missing entry are both named
    changed = lines[:]
    changed[4] = "0" * 64 + "  " + names[4]
    del changed[-1]
    b.write_text("\n".join(changed) + "\n")
    differ = run("--diff", a, b)
    assert differ.returncode == 1
    assert differ.stdout.splitlines() == [names[4], names[-1], f"2 of {len(names)} entries differ"]


def test_against_digests_a_revision_with_its_own_tool():
    try:
        subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                       capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("the checkout is not a git repository")
    got = run("--limit", 1, "--against", "HEAD")
    # the working tree may differ from HEAD: the tool names what differs
    *names, summary = got.stdout.splitlines()
    assert summary == f"{len(names)} of 71 entries differ", got.stderr
    assert got.returncode == (1 if names else 0)

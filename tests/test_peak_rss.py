"""Peak-RSS gates: each command runs in a fresh interpreter and reads its own VmHWM.

VmHWM is read in the process itself, as perfbench/run.py does, since a
forked child's ru_maxrss starts at its parent's.  Each command's stdout
goes to /dev/null and the reading to stderr.  The gates are skipped
where there is no /proc/self/status to read.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="no /proc/self/status to read VmHWM from"
)

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# Runs the CLI on argv as `sperner` would, then prints its exit code and
# VmHWM in kB on the last line of stderr.
PROBE = """
import runpy, sys
sys.argv = ["sperner", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("sperner.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open("/proc/self/status") as status:
    kb = int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
print(code, kb, file=sys.stderr)
"""


def peak_mb(*argv: str) -> float:
    """The peak RSS in MB of a fresh process running the CLI on argv, which must exit 0."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=ENV, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    code, kb = done.stderr.splitlines()[-1].split()
    assert code == "0", done.stderr
    return int(kb) / 1024


def test_search_11_4_target_12_peaks_at_most_93_mb():
    # a root holds one conflict mask per class, and rows are built only for
    # one seed try's or one depth-2 group's part of its neighbourhood at a
    # time; the full adjacency alone would take 0.41 GB, the first root's
    # rows 118 MiB.  70.6 / 74.0 / 72.3 / 72.1 MB (median of 3) with
    # Python 3.10 / 3.11 / 3.12 / 3.13 on x86-64 Linux, and 74.1 MB at
    # most, so 93 MB leaves a margin of at least 25%; building each root's
    # rows whole it took 152.4-155.8 MB.  VmHWM is read in the process
    # itself, as perfbench/run.py does, since a forked child's ru_maxrss
    # starts at its parent's.
    peak = peak_mb("search", "--n", "11", "--k", "4", "--target", "12")
    assert peak <= 93, peak


def test_construct_and_verify_21_2_peak_at_most_73_mb_each(tmp_path):
    # construct writes the document a chunk at a time as it renders it,
    # and the verifier holds the classes by size with a lookup set only
    # of the size-10 classes: 63.0 MB and 63.2 MB (median of 3) with
    # Python 3.11 on x86-64 Linux, so 73 MB leaves a margin of at least
    # 15%; with one set of every class they took 74.0 MB and 79.1 MB, and
    # with a second copy of the document 106.6 MB and 91.5 MB.  Each
    # command runs in a process of its own, which reads its own VmHWM.
    document = str(tmp_path / "k2-21.txt")
    peaks = [peak_mb("construct", "--n", "21", "--k", "2", "-o", document), peak_mb("verify", document)]
    assert max(peaks) <= 73, peaks


def test_bounds_40000_2_peaks_at_most_19_mb():
    # the dynamic program holds only the last k steps and the chains they
    # link to, not a step per n' with a value of up to 12,000 digits:
    # 11.7 / 14.8 / 14.1 / 13.8 MB (median of 3) with Python 3.10 / 3.11 /
    # 3.12 / 3.13 on x86-64 Linux, so 19 MB leaves a margin of at least
    # 25%; with a step kept per n' it took 136.9-140.6 MB.  VmHWM is read
    # in the process itself, as in the gates above; the 36 kB of output
    # go to /dev/null and the reading to stderr.
    peak = peak_mb("bounds", "--n", "40000", "--k", "2")
    assert peak <= 19, peak


def test_bounds_table_2_10000_peaks_at_most_19_mb():
    # bounds_table yields each row as the dynamic program reaches it, and
    # main writes it before the next is made, so no row of up to 3,000
    # digits is held past its line: 15.0 MB (3 of 3 runs) with Python
    # 3.11.7 on x86-64 Linux, so 19 MB leaves a margin of at least 25%;
    # with a list of every row and every line, joined into one string,
    # it took 104.7 MB.  The 30 MB of output go to /dev/null.
    peak = peak_mb("bounds", "--k", "2", "--table", "--max-n", "10000")
    assert peak <= 19, peak

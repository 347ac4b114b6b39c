"""Write the artifact set that a change to the solvers should leave byte-identical.

Usage::

    python tools/artifacts.py OUT

OUT must not exist yet.  The tool runs the package of the tree it sits in
(its ``src/``) and writes, under OUT:

- ``cli/<task>/``: every CLI task on the README's JSON config, with ``task``
  set to that task, and its files in ``out/``.  A task that refuses the
  config leaves its exit code and stderr.
- ``bench/<workload>-seed<k>/<task>/``: the CLI configs of the benchmark's
  ``transition-scan`` and ``oracle-scan`` workloads at seeds 1, 5 and 7,
  built by ``perfbench/workloads.py``.
- ``demos/<demo>/``: each demo's printout and the files it writes.
- ``fock-large.txt``: the ``energy_history`` of the benchmark's
  ``fock-large`` solve at each of its four drives.

Every run's exit code, stdout and stderr go next to its files, as
``exit-code.txt``, ``stdout.txt`` and ``stderr.txt``, and each CLI run's
config as ``config.json``.  Each run is its own
process with one BLAS thread.  To compare a change with its parent, run the
tool in both trees and compare the two outputs with ``diff -r``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 5, 7)
THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _env() -> dict:
    env = {**os.environ, **THREADS, "PYTHONDONTWRITEBYTECODE": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run(argv, cwd: Path) -> None:
    """Run ``argv`` in ``cwd`` (made here) and record its exit code and output there."""
    cwd.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(argv, cwd=cwd, env=_env(), capture_output=True, text=True)
    (cwd / "exit-code.txt").write_text(f"{done.returncode}\n", encoding="utf-8")
    (cwd / "stdout.txt").write_text(done.stdout, encoding="utf-8")
    (cwd / "stderr.txt").write_text(done.stderr, encoding="utf-8")


def _cli(task: str, config: dict, cwd: Path) -> None:
    cwd.mkdir(parents=True)
    (cwd / "config.json").write_text(json.dumps(config), encoding="utf-8")
    _run([sys.executable, "-m", "vibronic.cli", task, "--config", "config.json", "--out", "out"], cwd)


def readme_config() -> dict:
    """The first JSON block of the README: the config example of its command line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"^```json\n(.*?)^```", text, re.M | re.S).group(1))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python tools/artifacts.py OUT", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=False)

    os.environ.update(THREADS)  # the fock-large solves run here, before NumPy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    from vibronic.cli import TASKS

    config = readme_config()
    for task in TASKS:
        _cli(task, {**config, "task": task}, out / "cli" / task)

    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            bopes = workloads.TransitionScan(seed, Path(scratch) / "t")
            cases = {"transition-scan": {"bopes-scan": bopes.config}}
            cases["oracle-scan"] = workloads.OracleScan(seed, Path(scratch) / "o").configs
            for name, configs in cases.items():
                for task, cfg in configs.items():
                    _cli(task, cfg, out / "bench" / f"{name}-seed{seed}" / task)

        large = workloads.FockLarge(SEEDS[0], Path(scratch) / "f")
        histories = [f"{drive!r} {large.solve(drive).energy_history!r}\n" for drive in large.DRIVES]
    (out / "fock-large.txt").write_text("".join(histories), encoding="utf-8")

    for demo in sorted((ROOT / "demos").glob("*.py")):
        _run([sys.executable, str(demo)], out / "demos" / demo.stem)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Record the reference energies the pinned workloads are checked against.

Run from the root of a checkout, at the commit whose results are the
reference::

    python3 perfbench/record_references.py

It writes ``perfbench/references.json``: the converged ground energy and
cutoff of ``fock-large`` at each of its drives, and the ``E_BO`` and
``E_quantum`` columns and kink location of ``transition-scan``.
"""

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import REFERENCES, FockLarge, TransitionScan  # noqa: E402


def main():
    work = REFERENCES.parent / "out" / f"references-{os.getpid()}"
    try:
        fock = FockLarge(0, work)
        fock_refs = {}
        for drive in FockLarge.DRIVES:
            report = fock.solve(drive)
            if not report.converged:
                raise RuntimeError(f"fock-large did not converge at drive {drive}: {report}")
            fock_refs[repr(drive)] = {"energy": report.energy, "cutoff": report.cutoff}

        scan = TransitionScan(0, work)
        code, rows, results = scan.run(work / "bopes-scan")
        if code != 0:
            raise RuntimeError(f"bopes-scan exited with code {code}")
        scan_refs = {
            "rows": [
                {"Omega": float(r[0]), "E_BO": float(r[1]), "E_quantum": float(r[2])} for r in rows
            ],
            "kink_Omega": results["kink_Omega"],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs = {FockLarge.name: fock_refs, TransitionScan.name: scan_refs}
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

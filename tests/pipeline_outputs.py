"""Write the stitch -> analyze -> report outputs of the three reference fixtures.

Usage: PYTHONPATH=src python tests/pipeline_outputs.py OUT

Runs `helpers.run_reference` on each of `helpers.reference_series`' fixtures
(planted, flat, quoted), as tier-1's `tests/test_invariants.py` does: 37 files
each under OUT/<fixture>/out, 111 in all. Run it on two versions of `src` and
compare the trees with `diff -r OUT_A OUT_B`: an empty diff means the change
moved no output byte. `sha256sum -c tests/reference_outputs.sha256`, run in OUT,
checks the 105 files that do not depend on the BLAS kernel (all but the six
`correlations_w*.csv`) against the digests tier-1 pins. Pytest does not collect
this file.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import REFERENCE_FIXTURES, run_reference  # noqa: E402

if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.splitlines()[2])
    for name in REFERENCE_FIXTURES:
        run_reference(Path(sys.argv[1]) / name, name)

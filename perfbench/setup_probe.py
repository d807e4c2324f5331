"""Set-up probe: import the harness in a fresh interpreter and run one
minimal sweep.  argv[1] is a JSON object of SuiteConfig fields.  Exits
0 only if the sweep generated instances and every check passed.  Then
it times REF_SAMPLES host-speed samples (see hostspeed) and prints
their total wall time, so the caller can put the probe at reference
speed.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cyclecert.harness import SuiteConfig, run_suite  # noqa: E402

fields = json.loads(sys.argv[1])
report = run_suite(SuiteConfig(**dict(fields, checks=tuple(fields["checks"]))))
if not (report.instances_generated and report.passed == report.checked):
    sys.exit(1)

from hostspeed import time_reference  # noqa: E402

REF_SAMPLES = 5
print(json.dumps({"ref_wall_s": sum(time_reference()[0] for _ in range(REF_SAMPLES)), "samples": REF_SAMPLES}))

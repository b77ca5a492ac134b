"""One fresh-interpreter set-up of a workload; run.py times it as setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys

from workloads import WORKLOADS, setup

if __name__ == "__main__":
    setup(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])

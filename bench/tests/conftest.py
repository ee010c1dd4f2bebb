"""The benchmark's own tests: ``python -m pytest bench/tests -q``.

Outside tier-1's ``testpaths`` on purpose — they run workloads and take
the better part of a minute.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

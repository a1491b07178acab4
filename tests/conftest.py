"""perfbench/ goes on sys.path, last, so the tests import perfbench's helpers
by the names its own modules use (``gen``, ``workloads``): under a second,
package name (``perfbench.gen``) the same file would load twice."""

import pathlib
import sys

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

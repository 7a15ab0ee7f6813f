"""The benchmark's seeded image generator and overcomplete DCT, for tests.

benchmarks/inputs.py is loaded by path rather than copied, so the tests
and the benchmark share one generator and no benchmark file changes.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "inputs.py"
_spec = importlib.util.spec_from_file_location("benchmark_inputs", _PATH)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)

clean_image = _module.clean_image
noisy_image = _module.noisy_image
overcomplete_dct = _module.overcomplete_dct

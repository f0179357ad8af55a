"""Run pytest as if numpy were not installed.

A ``sys.meta_path`` finder refuses every ``numpy`` import, so the kernel
package falls back to the pure backend and every ``numpy_available()``
gate sees False, as on CI's numpy-less leg.  A finder rather than
``sys.modules["numpy"] = None``: hypothesis' ``check_sample`` reads
``sys.modules["numpy"].ndarray`` whenever the name is present, which
fails on ``None`` while ``tests/test_xmldata.py`` is collected.

    REPRO_KERNELS=pure PYTHONPATH=src python benchmarks/without_numpy.py -x -q

(``make test-pure``.)  Arguments go to pytest unchanged.
"""

import sys


class _NoNumpy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError("No module named %r" % name, name=name)
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, _NoNumpy())
    import pytest

    sys.exit(pytest.main(sys.argv[1:]))

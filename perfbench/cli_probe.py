"""Run ``python -m ccdkit ARGS...`` with the speed probe on; write its factor.

    python3 perfbench/cli_probe.py FACTOR_FILE ARGS...

``runpy`` runs the package's ``__main__`` as ``-m`` would, so stdout and the
exit code are the CLI's own.
"""
import runpy
import sys

from speedprobe import SpeedProbe

probe = SpeedProbe()
probe.start()
factor_file = sys.argv[1]
sys.argv = ["ccdkit", *sys.argv[2:]]
try:
    runpy.run_module("ccdkit", run_name="__main__", alter_sys=True)
finally:
    probe.stop()
    with open(factor_file, "w") as fh:
        fh.write(repr(probe.factor(0)))

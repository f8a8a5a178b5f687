"""Run one monodist CLI command in this process with the tracer installed.

    python bench/traced_child.py TRACE_JSON <monodist arguments...>

The traced counterpart of `python -m monodist.cli <arguments...>`: the exit
code is the command's, and the tracer's totals are written to TRACE_JSON.
"""
import json
import sys
from pathlib import Path

from tracer import Tracer

tracer = Tracer()
tracer.install()
from monodist import cli

code = cli.dispatch(sys.argv[2:])
tracer.restore()
Path(sys.argv[1]).write_text(json.dumps(tracer.snapshot()))
sys.exit(code)

"""Put the benchmark's modules and the checkout's flowsmith on the path."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_engine()

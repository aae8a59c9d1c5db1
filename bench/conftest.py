"""Lets `python -m pytest bench` import the engine from src/ and the
benchmark's modules."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

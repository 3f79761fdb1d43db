"""Working with Galileo DFT files (the paper's input format, Section 5.1).

The example writes the cardiac assist system to a Galileo file, reads it back,
analyses the parsed tree with the declarative query API and shows how to
analyse any user-supplied ``.dft`` file from the command line::

    python examples/galileo_files.py                # demo on the bundled CAS
    python examples/galileo_files.py my_system.dft  # analyse your own file

``UnreliabilityBounds`` is used as the measure because it is safe for *any*
tree: on a deterministic model the bounds coincide with the unreliability,
and on a non-deterministic one they are the (min, max) envelope.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import UnreliabilityBounds, evaluate
from repro.dft import galileo
from repro.systems import cardiac_assist_system


def analyse(path: Path, mission_time: float = 1.0) -> None:
    tree = galileo.parse_file(str(path))
    print(f"Parsed {path}: {tree.summary()}")
    result = evaluate(tree, UnreliabilityBounds([mission_time]))
    low, high = result["unreliability_bounds"].bounds
    if low == high:
        print(f"Unreliability(t={mission_time:g}) = {low:.6f}")
    else:
        print(f"Unreliability(t={mission_time:g}) in [{low:.6f}, {high:.6f}]")
    print(f"Model: {result.model.kind} with {result.model.states} states")
    print("Aggregation:", result.statistics.summary())


def demo() -> None:
    tree = cardiac_assist_system()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cardiac_assist.dft"
        galileo.write_file(tree, str(path))
        print("Wrote the cardiac assist system in Galileo format:")
        print(path.read_text())
        analyse(path)


def main() -> None:
    if len(sys.argv) > 1:
        analyse(Path(sys.argv[1]))
    else:
        demo()


if __name__ == "__main__":
    main()

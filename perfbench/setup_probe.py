"""Time one cold set-up of a workload in a fresh interpreter; print seconds.

Set-up is importing covstim and loading the bundled corpus; for
``simulate_large`` it also parses and lints the generated designs, whose
text is made before the clock starts.  The reference set-up imports a
fixed set of modules that covstim's sources do not decide, and sets the
scale for the others.

    python3 perfbench/setup_probe.py <workload> <seed>
    python3 perfbench/setup_probe.py reference
"""

import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_MODULES = ("numpy", "json", "decimal", "fractions", "dataclasses")


def reference() -> None:
    start = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    print(repr(time.perf_counter() - start))


def main() -> None:
    if sys.argv[1:] == ["reference"]:
        return reference()
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    texts = []
    if workload == "simulate_large":
        import designgen
        designs, _ = designgen.generate(seed, designgen.DESIGNS, 0)
        texts = [d.text for d in designs]
    start = time.perf_counter()
    import covstim.corpus
    import covstim.hdl

    covstim.corpus.load_bundled_corpus()
    for text in texts:
        if covstim.hdl.lint(covstim.hdl.parse(text)):
            sys.exit(f"generated design has lint issues:\n{text}")
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()

"""The README's Library example runs and prints what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

from coxhom.invariants import AbelianDescriptor

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "# p=6, q1=q2=q3=0" in block and "# h2_artin_integral = Z2^6" in block
    namespace: dict = {}
    exec(block, namespace)
    profile, integral, words = namespace["profile"], namespace["integral"], namespace["words"]
    assert (profile.p, profile.q1, profile.q2, profile.q3) == (6, 0, 0, 0)
    assert integral == profile.h2_artin_integral == AbelianDescriptor(free_rank=0, torsion2_rank=6)
    assert len(words.omega1) == 6 and not words.omega2 and not words.omega3

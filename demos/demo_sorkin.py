"""Second- and higher-order interference in multi-slit experiments.

Quantum mechanics shows second-order interference (I2 != 0) but the
third-order residual I3, and with it every higher I_m, vanishes
identically.  Replacing the orthogonal
slit projectors by more general blocking maps breaks the cancellation.

Run: python3 demos/demo_sorkin.py
"""

import numpy as np

from gptkit.interference import (SlitExperiment, rotated_blockers, sorkin,
                                 sorkin_i2, sorkin_i3,
                                 sorkin_i3_with_blockers)

plus2 = np.full((2, 2), 0.5, dtype=complex)
exp2 = SlitExperiment(m=2, rho=plus2, q=plus2)
print(f"I2 for the |+> state and |+><+| detector: {sorkin_i2(exp2):.6f}")

diag = SlitExperiment(m=2, rho=np.diag([0.6, 0.4]).astype(complex), q=plus2)
print(f"I2 for a diagonal (classical) state:      {sorkin_i2(diag):.2e}")

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(500):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (h + h.conj().T) / 2
    ev, vec = np.linalg.eigh(h)
    ev = (ev - ev.min()) / (ev.max() - ev.min())
    q = (vec * ev) @ vec.conj().T
    worst = max(worst, abs(sorkin_i3(SlitExperiment(m=3, rho=rho, q=q))))
print(f"\nmax |I3| over 500 random experiments:     {worst:.2e}")

v = np.ones(3) / np.sqrt(3)
rho = np.outer(v, v).astype(complex)
val = sorkin_i3_with_blockers(rho, rotated_blockers(0.1), rho)
print(f"I3 with tilted (non-orthogonal) blockers: {val:.6f}")

a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
rho4 = a @ a.conj().T
rho4 /= np.trace(rho4)
print(f"I4 for a random 4-slit experiment:        "
      f"{sorkin(SlitExperiment(m=4, rho=rho4, q=rho4)):.2e}")

"""Cross-check the effective sideband coupling against the full integration.

Drives a constant two-photon tone at the model's own pair resonance,
extracts the |g0> <-> |e1> oscillation frequency and compares it with the
closed-form coupling; then sweeps the drive amplitude to expose the
quadratic power law.
"""

import numpy as np

from qmemsim.device import DeviceParams
from qmemsim.protocol import effective_bsb_check
from qmemsim.units import MHZ, TWO_PI

p = DeviceParams()
amps = TWO_PI * np.array([1.2e3, 2.0e3, 3.4e3])
checks = effective_bsb_check(p, amps)

print("single working point")
chk = checks[1]
print(f"  measured rate  {chk.measured_rate / MHZ:7.4f} MHz")
print(f"  predicted rate {chk.predicted_rate / MHZ:7.4f} MHz")
print(f"  ratio {chk.ratio:.4f}, oscillation contrast {chk.contrast:.3f}")

print("\ndrive-amplitude sweep (expect log-log slope 2)")
for amp, c in zip(amps, checks):
    print(f"  Omega_drv/2pi = {amp / TWO_PI / 1e3:4.1f} GHz -> "
          f"rate {c.measured_rate / MHZ:6.4f} MHz (ratio {c.ratio:.3f})")
rates = [c.measured_rate for c in checks]
slope = np.polyfit(np.log(amps), np.log(rates), 1)[0]
print(f"  fitted slope {slope:.4f}")

print("\ncoupling sweep (expect log-log slope 3)")
gs = np.array([35.0, 53.0, 75.0])
rates_g = []
for g in gs:
    c = effective_bsb_check(p.replace(g=g), [TWO_PI * 2.0e3])[0]
    rates_g.append(c.measured_rate)
    print(f"  g/2pi = {g:4.0f} MHz -> rate {c.measured_rate / MHZ:6.4f} MHz")
slope_g = np.polyfit(np.log(gs), np.log(rates_g), 1)[0]
print(f"  fitted slope {slope_g:.4f}")

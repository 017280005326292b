"""Measure the memory lifetime and the cavity ringdown times.

The Fock-state lifetime comes from the full protocol versus storage delay;
the ringdowns displace each mode and fit the free decay of the field
amplitude (2/kappa) and the energy (1/kappa).
"""

import numpy as np

from qmemsim import protocol
from qmemsim.device import DeviceParams

p = DeviceParams()
a = p.angular()
opts = protocol.ProtocolOptions()

print("readout-mode ringdown")
rec = protocol.mode_ringdown_experiment(p, "readout", opts)
t_amp = rec.fits["amplitude_decay"].params["T"]
t_n = rec.fits["energy_decay"].params["T"]
print(f"  field amplitude decay {t_amp * 1e3:6.2f} ns "
      f"(2/kappa = {2.0 / a.k_ro * 1e3:.2f} ns)")
print(f"  energy decay          {t_n * 1e3:6.2f} ns "
      f"(1/kappa = {1.0 / a.k_ro * 1e3:.2f} ns)")

print("\nstorage-mode ringdown")
rec = protocol.mode_ringdown_experiment(p, "storage", opts)
print(f"  field amplitude decay {rec.fits['amplitude_decay'].params['T']:6.2f} us")
print(f"  energy decay          {rec.fits['energy_decay'].params['T']:6.2f} us")

print("\nFock-state memory lifetime (reduced delay grid for the demo)")
delays = np.array([3.0, 6.0, 9.0, 12.5, 16.0])
rec = protocol.fock_decay_experiment(p, delays, opts)
for d, y in zip(rec.xs, rec.ys):
    print(f"  delay {d:5.1f} us -> p_g = {y:.4f}")
t1_s = rec.fits["T1_s"].params["T"]
print(f"  fitted T1_s = {t1_s:.2f} us "
      f"(1/kappa_s = {1.0 / a.k_s:.2f} us, "
      f"enhancement over the qubit x{t1_s / p.t1_q:.1f})")

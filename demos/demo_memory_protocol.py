"""Store and retrieve qubit states through the two-photon sideband protocol.

Runs the full pulse sequence on the noiseless model first (ideal mapping),
then with the measured decoherence rates, and sweeps the preparation angle
to reproduce the stored-Rabi-pattern readout.  The qubit and sideband pi
pulses are calibrated once and passed to every run.
"""

import math

import numpy as np

from qmemsim import protocol
from qmemsim.device import DeviceParams

p = DeviceParams()
opts = protocol.ProtocolOptions()
noiseless = opts.replace(noiseless=True)
# the calibration probes are noiseless, so one serves both option sets
cal = protocol.get_calibration(p, opts)

print("ideal (noiseless) protocol")
p_g = protocol.run_memory_protocol(p, 0.0, 0.0, noiseless, cal)
print(f"  ground-state round trip p_g = {p_g:.5f}")

rho_s = protocol.storage_state_after_half(p, 0.0, noiseless, cal)
print(f"  |g> input is stored as Fock |1>: P(1) = {rho_s[1, 1].real:.5f}")
rho_s = protocol.storage_state_after_half(p, math.pi, noiseless, cal)
print(f"  |e> input is stored as Fock |0>: P(0) = {rho_s[0, 0].real:.5f}")
rho_s = protocol.storage_state_after_half(p, math.pi / 2, noiseless, cal)
n_mean = sum(n * rho_s[n, n].real for n in range(rho_s.shape[0]))
print(f"  equal superposition: storage <n> = {n_mean:.4f}")

print("\nwith the measured decoherence")
delays = (0.0, 2.0, 6.0)
pgs = protocol.memory_sweep(p, 0.0, delays, opts, cal)
for delay, p_g in zip(delays, pgs):
    print(f"  storage delay {delay:4.1f} us -> retrieved p_g = {p_g:.4f}")

print("\npreparation-angle sweep at 0.25 us delay (stored Rabi pattern)")
angles = np.linspace(0.0, 2.0 * math.pi, 9)
pgs = protocol.memory_sweep(p, angles, 0.25, opts, cal)
for theta, y in zip(angles, pgs):
    bar = "#" * int(round(40 * y))
    print(f"  theta = {theta:5.2f} rad  p_g = {y:.4f}  {bar}")

"""Process tomography of the memory channel.

Reconstructs the chi matrix from the four standard input states, reports the
raw process fidelity, and the fidelity after removing the deterministic
frame phase the protocol imparts (a single Z rotation).
"""

import numpy as np

from qmemsim import protocol, tomography
from qmemsim.device import DeviceParams

p = DeviceParams()
opts = protocol.ProtocolOptions()

print("running the four tomography inputs through the protocol...")
rec = protocol.qpt_experiment(p, opts)
out = rec.fits["process_fidelity"]

print("\n|chi| in the (I, X, Y, Z) basis")
for row in rec.extra["chi"]["abs"]:
    print("  " + "  ".join(f"{v:6.4f}" for v in row))

print(f"\nraw process fidelity      {out['f_qpt_raw']:.4f}")
print(f"frame-corrected fidelity  {out['f_qpt']:.4f} "
      f"(Z rotation {out['z_rotation_rad']:.3f} rad)")
print(f"Z fidelity, same point    {out['f_z']:.4f} "
      f"(protocol length {out['t_p_us'] * 1e3:.0f} ns)")

print("\nsanity: the identity channel reconstructs exactly")
ident = tomography.process_tomography(tomography.INPUT_STATES)
print(f"  F(identity) = {tomography.process_fidelity(ident):.12f}")

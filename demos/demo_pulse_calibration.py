"""Flat-top Gaussian envelopes and pi-pulse calibration against the model.

Shows the envelope convention (rise = 2 sigma, truncated ramps), then
calibrates the qubit pi pulse and the two-photon sideband pi pulse by
scanning carrier and plateau in a noiseless simulation.
"""

import math

import numpy as np

from qmemsim import pulses
from qmemsim.device import DeviceParams, bsb_effective_rate, bsb_frequency
from qmemsim.qsys import SubsystemDims
from qmemsim.units import GHZ, MHZ, TWO_PI

p = DeviceParams()
dims = SubsystemDims()

seg = pulses.PulseSegment("qubit-charge", TWO_PI * 20.0, p.angular().w_q,
                          plateau=0.05)
print("flat-top Gaussian envelope (20 ns rise)")
print(f"  segment wall time {seg.duration * 1e3:.1f} ns "
      f"(plateau {seg.plateau * 1e3:.0f} ns + 2 ramps)")
print(f"  square-pulse-equivalent width {seg.equivalent_width() * 1e3:.2f} ns")
ts = seg.start + np.array([0.0, 0.4, 1.0]) * seg.ramp
print("  ramp samples:", ", ".join(
    f"{seg.envelope_at(t) / seg.amplitude:.3f}" for t in ts), "(of amplitude)")

print("\ncalibrating the qubit pi pulse at 20 MHz Rabi amplitude")
cal_q = pulses.calibrate_pi_pulse(p, dims, "qubit-charge", TWO_PI * 20.0)
print(f"  pi time {cal_q.pi_time * 1e3:6.2f} ns "
      f"(square-pulse formula {math.pi / cal_q.amplitude * 1e3:.2f} ns)")
offset_q = cal_q.carrier - p.angular().w_q
print(f"  carrier offset from the bare qubit {offset_q / MHZ:+.3f} MHz "
      "(dressing + drive shift)")
print(f"  transfer {cal_q.transfer:.5f}")

amp_bsb = TWO_PI * 5.1e3
print("\ncalibrating the sideband pi pulse")
cal_b = pulses.calibrate_pi_pulse(p, dims, "bsb", amp_bsb)
rate = bsb_effective_rate(p, amp_bsb, carrier=cal_b.carrier)
print(f"  pi time {cal_b.pi_time * 1e3:6.1f} ns "
      f"(effective-coupling estimate {math.pi / (2 * rate) * 1e3:.1f} ns)")
offset_b = cal_b.carrier - 0.5 * bsb_frequency(p)
print(f"  carrier offset from nominal w_b/2 {offset_b / MHZ:+.3f} MHz")
print(f"  transfer {cal_b.transfer:.5f}")

seq = pulses.build_memory_sequence(math.pi / 2, 0.5,
                                   pulses.ProtocolCalibration(cal_q, cal_b))
print("\nassembled memory sequence (0.5 us storage delay)")
for s in seq.segments:
    print(f"  {s.label:18s} start {s.start * 1e3:7.1f} ns  "
          f"dur {s.duration * 1e3:6.1f} ns  carrier {s.carrier / GHZ:.6f} GHz")
print(f"  readout marker at {seq.readout_time * 1e3:.1f} ns, "
      f"protocol length t_p = {seq.memory_duration * 1e3:.1f} ns")

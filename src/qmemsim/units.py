"""Unit conversion constants.

Internal convention: angular frequencies in rad/us, time in us.  1 MHz of
linear frequency equals 2*pi rad/us, which makes the MHz converter the
identity up to 2*pi and keeps rate/frequency arithmetic legible.
"""

import math

TWO_PI = 2.0 * math.pi

# linear frequency -> angular rad/us
GHZ = TWO_PI * 1e3
MHZ = TWO_PI
KHZ = TWO_PI * 1e-3


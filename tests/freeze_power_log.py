"""Write tests/golden/power_log_mpmath.json: PowerLog(2, 1) and PowerLog(1, 1),
t^p log(1 + t), evaluated with mpmath at 50 digits on a log grid of
t in [1e-300, 1e300], two points a decade.  Run by hand (mpmath needed):

    python tests/freeze_power_log.py

The file holds the grid under "t", as the hex of each float, and each
family's values under its name, as decimal strings of 25 significant
digits; such a string reads as 0.0 or inf where the value is outside the
float range.  The orlicz package is not imported.
"""

import json
import pathlib

import mpmath
import numpy as np

mpmath.mp.dps = 50
GRID = np.logspace(-300.0, 300.0, 1201).tolist()
FAMILIES = {"PowerLog(2, 1)": 2, "PowerLog(1, 1)": 1}


def main():
    out = {"t": [t.hex() for t in GRID]}
    for name, p in FAMILIES.items():
        out[name] = [mpmath.nstr(mpmath.mpf(t) ** p * mpmath.log1p(mpmath.mpf(t)), 25,
                                 min_fixed=1, max_fixed=0) for t in GRID]
    path = pathlib.Path(__file__).parent / "golden" / "power_log_mpmath.json"
    path.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

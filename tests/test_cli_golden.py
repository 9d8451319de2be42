"""Exact stdout of every subcommand, pinned byte for byte.

Each case runs ``sgpv.cli.main`` on a 2-4 row input and compares stdout
with the text the command printed when the case was recorded. The cases
cover CSV and JSON, ids that need quoting or escaping, an unbounded
row, one-sided rows, an undefined FCR, ``--digits 1``, ``3``, ``12``,
``13`` and ``17``, the ``screen --crosstab`` CSV block and a seeded
``simulate``. The design and reliability curves are also pinned at the
limits theta = +-inf and +-1e308, at delta = 0, at thetas that reach
each text layout of a float (fixed notation down to 1e-4, exponent form
above and below, a subnormal), and (by digest) on a 2001-point grid
whose prior odds 1e-300 reach subnormal rates; the benchmark's own curve
must leave stderr empty.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgpv
from sgpv.cli import main

COMPUTE_IV = 'id,lo,hi\n"q,uoted",0.05,1.19\nwhole,-inf,inf\nright,0.5,inf\ngap,2,3\n'
COMPUTE_QUOTED = 'id,lo,hi\n"a,b",0.1,0.7\n"say ""hi""",-2,-1.5\n"two\nlines",-0.25,3\nnaïve µ,0.5,inf\n'
COMPUTE_SE = "estimate,se\n0.2,3\n1.5,0.1\n0.1,0.05\n"
SCREEN_P = ("id,estimate,lo,hi,p_value\n"
            "a,2.5,2,3,0.0001\nb,0.1,-0.1,0.3,0.4\nc,1.0,0.2,1.8,0.02\nd,-1.2,-1.5,-0.9,0.001\n")
SCREEN_U = "id,estimate,lo,hi,p_value\nwide,0,-inf,inf,0.5\nhit,0.9,0.6,1.2,0.03\n"
SCREEN_G = "id,n1,mean1,sd1,n2,mean2,sd2\nx,10,1,1,10,0,1\ny,25,3.2,1.5,20,1.1,1.2\n"
TRACK = "t,lo,hi\n100,-0.01,0.01\n200,0.02,0.10\n300,0.07,0.20\n"
BENCH_DESIGN = ("--theta0", "0", "--delta", "0.5", "--n", "16", "--variance", "1")
DESIGN_01 = ("--theta0", "0", "--delta", "0.3", "--n", "100", "--variance", "1")
DELTA0_DESIGN = ("--theta0", "0", "--delta", "0", "--alpha", "0.01", "--n", "16", "--variance", "1")

CASES = [
    (
        "compute-csv",
        COMPUTE_IV,
        ("compute", "{input}", "--null-point", "0", "--delta", "1"),
        """\
id,lo,hi,p_delta,classification,correction_applied,delta_gap,flags
"q,uoted",0.05,1.19,0.833333,inconclusive,false,,
whole,-inf,inf,,,,,unbounded_estimate
right,0.5,inf,0.125,inconclusive,true,,
gap,2,3,0,alternative_compatible,false,1,
""",
    ),
    (
        "compute-json",
        COMPUTE_IV,
        ("compute", "{input}", "--null-point", "0", "--delta", "1", "--format", "json"),
        """\
{
  "rows": [
    {
      "id": "q,uoted",
      "lo": 0.05,
      "hi": 1.19,
      "p_delta": 0.8333333333333334,
      "classification": "inconclusive",
      "correction_applied": false,
      "delta_gap": null,
      "flags": ""
    },
    {
      "id": "whole",
      "lo": -Infinity,
      "hi": Infinity,
      "p_delta": null,
      "classification": null,
      "correction_applied": null,
      "delta_gap": null,
      "flags": "unbounded_estimate"
    },
    {
      "id": "right",
      "lo": 0.5,
      "hi": Infinity,
      "p_delta": 0.125,
      "classification": "inconclusive",
      "correction_applied": true,
      "delta_gap": null,
      "flags": ""
    },
    {
      "id": "gap",
      "lo": 2.0,
      "hi": 3.0,
      "p_delta": 0.0,
      "classification": "alternative_compatible",
      "correction_applied": false,
      "delta_gap": 1.0,
      "flags": ""
    }
  ]
}
""",
    ),
    (
        "compute-quoted-ids-digits17",
        COMPUTE_QUOTED,
        ("compute", "{input}", "--null-point", "0", "--delta", "1", "--digits", "17"),
        """\
id,lo,hi,p_delta,classification,correction_applied,delta_gap,flags
"a,b",0.10000000000000001,0.69999999999999996,1,null_compatible,false,,
"say ""hi""\",-2,-1.5,0,alternative_compatible,false,-0.5,
"two
lines",-0.25,3,0.38461538461538464,inconclusive,false,,
naïve µ,0.5,inf,0.125,inconclusive,true,,
""",
    ),
    (
        "compute-quoted-ids-json",
        COMPUTE_QUOTED,
        ("compute", "{input}", "--null-point", "0", "--delta", "1", "--format", "json"),
        """\
{
  "rows": [
    {
      "id": "a,b",
      "lo": 0.1,
      "hi": 0.7,
      "p_delta": 1.0,
      "classification": "null_compatible",
      "correction_applied": false,
      "delta_gap": null,
      "flags": ""
    },
    {
      "id": "say \\"hi\\"",
      "lo": -2.0,
      "hi": -1.5,
      "p_delta": 0.0,
      "classification": "alternative_compatible",
      "correction_applied": false,
      "delta_gap": -0.5,
      "flags": ""
    },
    {
      "id": "two\\nlines",
      "lo": -0.25,
      "hi": 3.0,
      "p_delta": 0.38461538461538464,
      "classification": "inconclusive",
      "correction_applied": false,
      "delta_gap": null,
      "flags": ""
    },
    {
      "id": "na\\u00efve \\u00b5",
      "lo": 0.5,
      "hi": Infinity,
      "p_delta": 0.125,
      "classification": "inconclusive",
      "correction_applied": true,
      "delta_gap": null,
      "flags": ""
    }
  ]
}
""",
    ),
    (
        "compute-csv-digits3",
        COMPUTE_IV,
        ("compute", "{input}", "--null-point", "0", "--delta", "1", "--digits", "3"),
        """\
id,lo,hi,p_delta,classification,correction_applied,delta_gap,flags
"q,uoted",0.05,1.19,0.833,inconclusive,false,,
whole,-inf,inf,,,,,unbounded_estimate
right,0.5,inf,0.125,inconclusive,true,,
gap,2,3,0,alternative_compatible,false,1,
""",
    ),
    (
        "compute-se-csv",
        COMPUTE_SE,
        (
            "compute", "{input}", "--null-point", "0", "--delta", "0.5", "--level", "0.9",
            "--digits", "17"
        ),
        """\
id,lo,hi,p_delta,classification,correction_applied,delta_gap,flags
1,-4.7345608808544144,5.1345608808544148,0.5,inconclusive,true,,
2,1.3355146373048528,1.6644853626951472,0,alternative_compatible,false,1.6710292746097055,
3,0.017757318652426426,0.1822426813475736,1,null_compatible,false,,
""",
    ),
    (
        "compute-se-json",
        COMPUTE_SE,
        (
            "compute", "{input}", "--null-point", "0", "--delta", "0.5", "--format",
            "json"
        ),
        """\
{
  "rows": [
    {
      "id": "1",
      "lo": -5.679891953620161,
      "hi": 6.079891953620161,
      "p_delta": 0.5,
      "classification": "inconclusive",
      "correction_applied": true,
      "delta_gap": null,
      "flags": ""
    },
    {
      "id": "2",
      "lo": 1.3040036015459946,
      "hi": 1.6959963984540054,
      "p_delta": 0.0,
      "classification": "alternative_compatible",
      "correction_applied": false,
      "delta_gap": 1.6080072030919892,
      "flags": ""
    },
    {
      "id": "3",
      "lo": 0.002001800772997317,
      "hi": 0.19799819922700268,
      "p_delta": 1.0,
      "classification": "null_compatible",
      "correction_applied": false,
      "delta_gap": null,
      "flags": ""
    }
  ]
}
""",
    ),
    (
        "design-csv",
        None,
        (
            "design", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance", "1",
            "--thetas", "0,0.25,1.5"
        ),
        """\
theta,p_alt,p_null,p_inconclusive
0,7.05063e-07,0.701677,0.298322
0.25,0.00694755,0.07195,0.921103
1.5,1,1.36786e-44,5.08185e-24
""",
    ),
    (
        "design-json",
        None,
        (
            "design", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance", "1",
            "--thetas", "0,0.25,1.5", "--format", "json"
        ),
        """\
{
  "rows": [
    {
      "theta": 0.0,
      "p_alt": 7.050625031747018e-07,
      "p_null": 0.7016768315916091,
      "p_inconclusive": 0.29832246334588763
    },
    {
      "theta": 0.25,
      "p_alt": 0.006947547944759653,
      "p_null": 0.07194995000027112,
      "p_inconclusive": 0.9211025020549691
    },
    {
      "theta": 1.5,
      "p_alt": 1.0,
      "p_null": 1.3678602915262746e-44,
      "p_inconclusive": 5.081852061123997e-24
    }
  ]
}
""",
    ),
    (
        "design-csv-digits3",
        None,
        (
            "design", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance", "1",
            "--grid=-1:1:3", "--digits", "3"
        ),
        """\
theta,p_alt,p_null,p_inconclusive
-1,1,1.62e-19,2.33e-07
0,7.05e-07,0.702,0.298
1,1,1.62e-19,2.33e-07
""",
    ),
    (
        "reliability-csv",
        None,
        (
            "reliability", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance",
            "1", "--r", "3", "--thetas", "0,1"
        ),
        """\
theta1,fdr_sgpv,fcr_sgpv,fdr_test,fnr_test
0,0.25,0.75,0.25,0.75
1,2.35021e-07,6.94304e-19,0.0163934,1.41809e-15
""",
    ),
    (
        "reliability-json",
        None,
        (
            "reliability", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance",
            "1", "--r", "3", "--thetas", "0,1", "--format", "json"
        ),
        """\
{
  "rows": [
    {
      "theta1": 0.0,
      "fdr_sgpv": 0.25,
      "fcr_sgpv": 0.75,
      "fdr_test": 0.24999999999999983,
      "fnr_test": 0.7499999999999999
    },
    {
      "theta1": 1.0,
      "fdr_sgpv": 2.3502083385132224e-07,
      "fcr_sgpv": 6.943035431375706e-19,
      "fdr_test": 0.016393442622950827,
      "fnr_test": 1.4180853304902885e-15
    }
  ]
}
""",
    ),
    (
        "reliability-undefined-fcr-csv",
        None,
        (
            "reliability", "--theta0", "0", "--delta", "0.5", "--n", "5", "--variance",
            "1", "--r", "1", "--thetas", "0,1", "--digits", "3"
        ),
        """\
theta1,fdr_sgpv,fcr_sgpv,fdr_test,fnr_test
0,0.5,,0.5,0.5
1,0.0103,,0.0759,0.292
""",
    ),
    (
        "reliability-undefined-fcr-json",
        None,
        (
            "reliability", "--theta0", "0", "--delta", "0.5", "--n", "5", "--variance",
            "1", "--r", "1", "--thetas", "0,1", "--format", "json"
        ),
        """\
{
  "rows": [
    {
      "theta1": 0.0,
      "fdr_sgpv": 0.5,
      "fcr_sgpv": null,
      "fdr_test": 0.4999999999999998,
      "fnr_test": 0.5
    },
    {
      "theta1": 1.0,
      "fdr_sgpv": 0.010316773383113669,
      "fcr_sgpv": null,
      "fdr_test": 0.07589793119758288,
      "fnr_test": 0.2916899278498782
    }
  ]
}
""",
    ),
    (
        "screen-crosstab-csv",
        SCREEN_P,
        ("screen", "{input}", "--null-point", "0", "--delta", "1", "--crosstab"),
        """\
id,p_delta,classification,delta_gap,p_raw,p_bonferroni,q_bh,rank,flags
a,0,alternative_compatible,1,0.0001,0.0004,0.0004,1,
b,1,null_compatible,,0.4,1,0.4,4,
c,0.5,inconclusive,,0.02,0.08,0.0266667,3,
d,0.166667,inconclusive,,0.001,0.004,0.002,2,

crosstab,p_delta_zero,p_delta_positive
bonferroni_significant,1,1
bonferroni_not_significant,0,2
""",
    ),
    (
        "screen-crosstab-json",
        SCREEN_P,
        (
            "screen", "{input}", "--null-point", "0", "--delta", "1", "--crosstab",
            "--format", "json"
        ),
        """\
{
  "rows": [
    {
      "id": "a",
      "p_delta": 0.0,
      "classification": "alternative_compatible",
      "delta_gap": 1.0,
      "p_raw": 0.0001,
      "p_bonferroni": 0.0004,
      "q_bh": 0.0004,
      "rank": 1,
      "flags": ""
    },
    {
      "id": "b",
      "p_delta": 1.0,
      "classification": "null_compatible",
      "delta_gap": null,
      "p_raw": 0.4,
      "p_bonferroni": 1.0,
      "q_bh": 0.4,
      "rank": 4,
      "flags": ""
    },
    {
      "id": "c",
      "p_delta": 0.5,
      "classification": "inconclusive",
      "delta_gap": null,
      "p_raw": 0.02,
      "p_bonferroni": 0.08,
      "q_bh": 0.02666666666666667,
      "rank": 3,
      "flags": ""
    },
    {
      "id": "d",
      "p_delta": 0.16666666666666663,
      "classification": "inconclusive",
      "delta_gap": null,
      "p_raw": 0.001,
      "p_bonferroni": 0.004,
      "q_bh": 0.002,
      "rank": 2,
      "flags": ""
    }
  ],
  "summary": {
    "n_rows": 4,
    "n_alternative": 1,
    "n_null": 1,
    "n_inconclusive": 2,
    "n_flagged": 0,
    "n_bonferroni_significant": 2,
    "n_bh_significant": 3,
    "n_raw_significant": 3
  },
  "crosstab": {
    "sgpv_zero_significant": 1,
    "sgpv_positive_significant": 1,
    "sgpv_zero_not_significant": 0,
    "sgpv_positive_not_significant": 2
  }
}
""",
    ),
    (
        "screen-unbounded-csv",
        SCREEN_U,
        ("screen", "{input}", "--null-point", "0", "--delta", "1", "--digits", "3"),
        """\
id,p_delta,classification,delta_gap,p_raw,p_bonferroni,q_bh,rank,flags
wide,,,,0.5,1,0.5,,unbounded_estimate
hit,0.667,inconclusive,,0.03,0.06,0.06,1,
""",
    ),
    (
        "screen-unbounded-json",
        SCREEN_U,
        ("screen", "{input}", "--null-point", "0", "--delta", "1", "--format", "json"),
        """\
{
  "rows": [
    {
      "id": "wide",
      "p_delta": null,
      "classification": null,
      "delta_gap": null,
      "p_raw": 0.5,
      "p_bonferroni": 1.0,
      "q_bh": 0.5,
      "rank": null,
      "flags": "unbounded_estimate"
    },
    {
      "id": "hit",
      "p_delta": 0.6666666666666667,
      "classification": "inconclusive",
      "delta_gap": null,
      "p_raw": 0.03,
      "p_bonferroni": 0.06,
      "q_bh": 0.06,
      "rank": 1,
      "flags": ""
    }
  ],
  "summary": {
    "n_rows": 2,
    "n_alternative": 0,
    "n_null": 0,
    "n_inconclusive": 1,
    "n_flagged": 1,
    "n_bonferroni_significant": 0,
    "n_bh_significant": 0,
    "n_raw_significant": 1
  }
}
""",
    ),
    (
        "screen-groups-csv",
        SCREEN_G,
        ("screen", "{input}", "--null-point", "0", "--delta", "0.2", "--welch"),
        """\
id,p_delta,classification,delta_gap,p_raw,p_bonferroni,q_bh,rank,flags
x,0.0742692,inconclusive,,0.0382496,0.0764992,0.0382496,2,
y,0,alternative_compatible,5.44148,4.95123e-06,9.90246e-06,9.90246e-06,1,
""",
    ),
    (
        "screen-groups-json",
        SCREEN_G,
        ("screen", "{input}", "--null-point", "0", "--delta", "0.2", "--format", "json"),
        """\
{
  "rows": [
    {
      "id": "x",
      "p_delta": 0.07426921424590394,
      "classification": "inconclusive",
      "delta_gap": null,
      "p_raw": 0.03824961451611385,
      "p_bonferroni": 0.0764992290322277,
      "q_bh": 0.03824961451611385,
      "rank": 2,
      "flags": ""
    },
    {
      "id": "y",
      "p_delta": 0.0,
      "classification": "alternative_compatible",
      "delta_gap": 5.33895780641657,
      "p_raw": 7.560921321684704e-06,
      "p_bonferroni": 1.5121842643369408e-05,
      "q_bh": 1.5121842643369408e-05,
      "rank": 1,
      "flags": ""
    }
  ],
  "summary": {
    "n_rows": 2,
    "n_alternative": 1,
    "n_null": 0,
    "n_inconclusive": 1,
    "n_flagged": 0,
    "n_bonferroni_significant": 1,
    "n_bh_significant": 2,
    "n_raw_significant": 2
  }
}
""",
    ),
    (
        "track-csv",
        TRACK,
        ("track", "{input}", "--null-point", "0", "--delta", "0.05"),
        """\
t,p_delta,classification,grey_level
100,1,null_compatible,
200,0.375,inconclusive,0.375
300,0,alternative_compatible,
""",
    ),
    (
        "track-json",
        TRACK,
        ("track", "{input}", "--null-point", "0", "--delta", "0.05", "--format", "json"),
        """\
{
  "rows": [
    {
      "t": 100.0,
      "p_delta": 1.0,
      "classification": "null_compatible",
      "grey_level": null
    },
    {
      "t": 200.0,
      "p_delta": 0.375,
      "classification": "inconclusive",
      "grey_level": 0.375
    },
    {
      "t": 300.0,
      "p_delta": 0.0,
      "classification": "alternative_compatible",
      "grey_level": null
    }
  ]
}
""",
    ),
    (
        "track-csv-digits3",
        TRACK,
        ("track", "{input}", "--null-point", "0", "--delta", "0.05", "--digits", "3"),
        """\
t,p_delta,classification,grey_level
100,1,null_compatible,
200,0.375,inconclusive,0.375
300,0,alternative_compatible,
""",
    ),
    (
        "simulate-json",
        None,
        (
            "simulate", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance",
            "1", "--replicates", "2000", "--seed", "7", "--theta1", "1", "--r", "1",
            "--format", "json"
        ),
        """\
{
  "empirical": {
    "p_alt": 0.0,
    "p_null": 0.701,
    "p_inconclusive": 0.299
  },
  "closed_form": {
    "p_alt": 7.050625031747018e-07,
    "p_null": 0.7016768315916091,
    "p_inconclusive": 0.29832246334588763
  },
  "z_scores": {
    "p_alt": -0.037551644445701325,
    "p_null": -0.0661581815350538,
    "p_inconclusive": 0.06622714418830827
  },
  "counts": {
    "alt": 0,
    "null": 1402,
    "inconclusive": 598
  },
  "replicates": 2000,
  "seed": 7,
  "reliability": {
    "empirical_fdr": 0.0,
    "empirical_fcr": 0.0,
    "closed_form_fdr": 7.050621701453685e-07,
    "closed_form_fcr": 2.3143451437919017e-19,
    "n_discoveries": 1036,
    "n_confirmations": 681
  }
}
""",
    ),
    (
        "simulate-csv",
        None,
        (
            "simulate", "--theta0", "0", "--delta", "0.3", "--n", "100", "--variance",
            "1", "--theta", "0.2", "--replicates", "500", "--seed", "3", "--chunks", "2"
        ),
        """\
{
  "empirical": {
    "p_alt": 0.0,
    "p_null": 0.18,
    "p_inconclusive": 0.82
  },
  "closed_form": {
    "p_alt": 0.0015383750445868126,
    "p_null": 0.16735392141200522,
    "p_inconclusive": 0.831107703543408
  },
  "z_scores": {
    "p_alt": -0.8777087468770596,
    "p_null": 0.7575175718344198,
    "p_inconclusive": -0.6629422654114869
  },
  "counts": {
    "alt": 0,
    "null": 90,
    "inconclusive": 410
  },
  "replicates": 500,
  "seed": 3
}
""",
    ),
    (
        "design-limits-csv",
        None,
        ("design", *BENCH_DESIGN, "--thetas=0,inf,1e308,-1e308,0.5,-0.5"),
        """\
theta,p_alt,p_null,p_inconclusive
0,7.49611e-05,0.0319356,0.967989
inf,1,0,0
1e+308,1,0,0
-1e+308,1,0,0
0.5,0.025,0.00432663,0.970673
-0.5,0.025,0.00432663,0.970673
""",
    ),
    (
        "reliability-limits-csv",
        None,
        ("reliability", *BENCH_DESIGN, "--r", "1", "--thetas=0,inf,1e308,-1e308,0.5,-0.5"),
        """\
theta1,fdr_sgpv,fcr_sgpv,fdr_test,fnr_test
0,0.5,0.5,0.5,0.5
inf,7.49554e-05,0,0.047619,0
1e+308,7.49554e-05,0,0.047619,0
-1e+308,7.49554e-05,0,0.047619,0
0.5,0.00298948,0.119315,0.0883384,0.337515
-0.5,0.00298948,0.119315,0.0883384,0.337515
""",
    ),
    (
        "reliability-limits-json",
        None,
        ("reliability", *BENCH_DESIGN, "--r", "1", "--thetas=0,inf,1e308,-1e308,0.5,-0.5",
         "--format", "json"),
        """\
{
  "rows": [
    {
      "theta1": 0.0,
      "fdr_sgpv": 0.5,
      "fcr_sgpv": 0.5,
      "fdr_test": 0.4999999999999998,
      "fnr_test": 0.5
    },
    {
      "theta1": Infinity,
      "fdr_sgpv": 7.495544894553689e-05,
      "fcr_sgpv": 0.0,
      "fdr_test": 0.047619047619047616,
      "fnr_test": 0.0
    },
    {
      "theta1": 1e+308,
      "fdr_sgpv": 7.495544894553689e-05,
      "fcr_sgpv": 0.0,
      "fdr_test": 0.047619047619047616,
      "fnr_test": 0.0
    },
    {
      "theta1": -1e+308,
      "fdr_sgpv": 7.495544894553689e-05,
      "fcr_sgpv": 0.0,
      "fdr_test": 0.047619047619047616,
      "fnr_test": 0.0
    },
    {
      "theta1": 0.5,
      "fdr_sgpv": 0.002989478775761283,
      "fcr_sgpv": 0.1193151146377928,
      "fdr_test": 0.08833839947948025,
      "fnr_test": 0.33751499725933004
    },
    {
      "theta1": -0.5,
      "fdr_sgpv": 0.002989478775761283,
      "fcr_sgpv": 0.1193151146377928,
      "fdr_test": 0.08833839947948025,
      "fnr_test": 0.33751499725933004
    }
  ]
}
""",
    ),
    (
        "design-delta0-digits17",
        None,
        ("design", *DELTA0_DESIGN, "--thetas=-1,0,0.25,1,inf", "--digits", "17"),
        """\
theta,p_alt,p_null,p_inconclusive
-1,0.9228014673372622,0,0.07719853266273774
0,0.010000000000000028,0,0.98999999999999999
0.25,0.057707133279027954,0,0.94229286672097201
1,0.9228014673372622,0,0.07719853266273774
inf,1,0,0
""",
    ),
    (
        "reliability-delta0-csv",
        None,
        ("reliability", *DELTA0_DESIGN, "--r", "1", "--thetas=-1,0,0.25,1,inf"),
        """\
theta1,fdr_sgpv,fcr_sgpv,fdr_test,fnr_test
-1,0.0107204,,0.0107204,0.0723376
0,0.5,,0.5,0.5
0.25,0.147695,,0.147695,0.487655
1,0.0107204,,0.0107204,0.0723376
inf,0.00990099,,0.00990099,0
""",
    ),
    (
        "design-digits1",
        None,
        ("design", *DESIGN_01, "--thetas=0,0.25,1.5,-0.001,123456,5e-324", "--digits", "1"),
        """\
theta,p_alt,p_null,p_inconclusive
0,7e-07,0.7,0.3
0.2,0.007,0.07,0.9
2,1,1e-44,5e-24
-0.001,7e-07,0.7,0.3
1e+05,1,0,0
5e-324,7e-07,0.7,0.3
""",
    ),
    (
        "design-digits12",
        None,
        ("design", *DESIGN_01, "--thetas=0,0.25,1.5,-0.001,123456,5e-324", "--digits", "12"),
        """\
theta,p_alt,p_null,p_inconclusive
0,7.05062503175e-07,0.701676831592,0.298322463346
0.25,0.00694754794476,0.0719499500003,0.921102502055
1.5,1,1.36786029153e-44,5.08185206112e-24
-0.001,7.05962777327e-07,0.701652673158,0.29834662088
123456,1,0,0
4.94065645841e-324,7.05062503175e-07,0.701676831592,0.298322463346
""",
    ),
    (
        "design-digits13",
        None,
        ("design", *DESIGN_01, "--thetas=0,0.25,1.5,-0.001,123456,5e-324", "--digits", "13"),
        """\
theta,p_alt,p_null,p_inconclusive
0,7.050625031747e-07,0.7016768315916,0.2983224633459
0.25,0.00694754794476,0.07194995000027,0.921102502055
1.5,1,1.367860291526e-44,5.081852061124e-24
-0.001,7.059627773272e-07,0.7016526731576,0.2983466208796
123456,1,0,0
4.940656458412e-324,7.050625031747e-07,0.7016768315916,0.2983224633459
""",
    ),
    (
        "reliability-layouts-csv",
        None,
        ("reliability", *DESIGN_01, "--r", "3",
         "--thetas=1e-5,0.0001,123456,1234567,5e-324,-1e308"),
        """\
theta1,fdr_sgpv,fcr_sgpv,fdr_test,fnr_test
1e-05,0.25,0.75,0.25,0.75
0.0001,0.249998,0.75,0.25,0.75
123456,2.35021e-07,0,0.0163934,0
1.23457e+06,2.35021e-07,0,0.0163934,0
4.94066e-324,0.25,0.75,0.25,0.75
-1e+308,2.35021e-07,0,0.0163934,0
""",
    ),
]


@pytest.mark.parametrize(
    "fixture, argv, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_stdout_is_pinned(tmp_path, capsys, fixture, argv, expected):
    path = tmp_path / "input.csv"
    if fixture is not None:
        path.write_text(fixture, encoding="utf-8")
    code = main([arg.replace("{input}", str(path)) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == expected


# Too long to pin inline: a 2001-point reliability curve at --digits 17 whose
# prior odds 1e-300 push fcr_sgpv and fnr_test through the subnormal range.
WIDE_RELIABILITY = (
    "reliability", "--theta0", "-3", "--delta", "2", "--n", "3", "--variance", "0.5",
    "--alpha", "0.2", "--r", "1e-300", "--digits", "17", "--grid=-400:400:2001",
)


def test_wide_reliability_digest_is_pinned(capsys):
    code = main(list(WIDE_RELIABILITY))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    lines = captured.out.splitlines()
    assert len(captured.out) == 49696
    assert lines[1000:1003] == [
        "-0.39999999999997726,1,2.9693408979025317e-303,1,2.2721151321041088e-307",
        "0,1,9.5373352961595537e-305,1,0",
        "0.40000000000003411,1,1.2338733561431448e-306,1,0",
    ]
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == "cfd30a637fdd41bab00ede367ae8c6c49843983d6a83dff185c048ff28d4f8df"


@pytest.mark.parametrize("command", [("design",), ("reliability", "--r", "1")])
def test_benchmark_curve_leaves_stderr_empty(command):
    # -12:12:50000 reaches |theta| > 10, where the test's beta underflows and
    # the Bayes ratios divide by tiny or huge values; a fresh interpreter
    # shows every RuntimeWarning once on stderr.
    src = Path(sgpv.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "sgpv.cli", *command, *BENCH_DESIGN, "--grid=-12:12:50000"],
        capture_output=True, env=env, check=False,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.count(b"\n") == 50001

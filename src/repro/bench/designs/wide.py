"""Wide-datapath designs: operands past the 64-bit packing ceiling.

Every builder here is seeded and parameterized: constants (increments,
thresholds, polynomial masks, mux banks) are drawn from ``random.Random(seed)``
so two corpus instances always synthesize identical source, while different
seeds give structurally-identical designs with unrelated constants.

The family exists to exercise the multi-limb lowering path of
:mod:`repro.sim.vector`: 100-bit counters and accumulators, wide compares and
checksums, a 40x40 multiplier, dynamic wide shifts, and a ``**``-using
polynomial generator.  None of these fit the packed int64 SoA representation,
and all of them must still lower without scalar fallback.
"""

from __future__ import annotations

import random


def _const(rng: random.Random, bits: int) -> int:
    """A non-zero ``bits``-wide constant with both halves populated."""
    value = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
    return value


def wide_counter(width: int = 100, seed: int = 1) -> str:
    """Wide up counter with a seeded stride and threshold flag."""
    rng = random.Random(seed)
    stride = _const(rng, width // 2)
    limit = _const(rng, width)
    return f"""\
module wide_counter{width}(clk, rst, en, load, preset, count, gray, wrapped);
  input clk, rst, en, load;
  input [15:0] preset;
  output reg [{width - 1}:0] count;
  output [{width - 1}:0] gray;
  output wrapped;
  always @(posedge clk or posedge rst) begin
    if (rst)
      count <= {width}'d0;
    else if (load)
      count <= preset;
    else if (en)
      count <= count + {width}'d{stride};
  end
  assign gray = count ^ (count >> 1);
  assign wrapped = count >= {width}'d{limit};
endmodule
"""


def wide_accumulator(width: int = 100, din_width: int = 16, seed: int = 3) -> str:
    """Wide accumulator with add/subtract modes and a seeded overflow line."""
    rng = random.Random(seed)
    thresh = _const(rng, width)
    return f"""\
module wide_accum{width}(clk, rst, clear, sub, din, acc, over, msb);
  input clk, rst, clear, sub;
  input [{din_width - 1}:0] din;
  output reg [{width - 1}:0] acc;
  output over, msb;
  always @(posedge clk or posedge rst) begin
    if (rst)
      acc <= {width}'d0;
    else if (clear)
      acc <= {width}'d0;
    else if (sub)
      acc <= acc - din;
    else
      acc <= acc + din;
  end
  assign over = acc > {width}'d{thresh};
  assign msb = acc[{width - 1}];
endmodule
"""


def wide_compare(width: int = 100, seed: int = 5) -> str:
    """Combinational wide comparator against seeded bounds."""
    rng = random.Random(seed)
    low = _const(rng, width - 2)
    high = low + _const(rng, width - 4)
    return f"""\
module wide_cmp{width}(a, b, lt, ge, eq, inrange, maxv);
  input [{width - 1}:0] a, b;
  output lt, ge, eq, inrange;
  output [{width - 1}:0] maxv;
  assign lt = a < b;
  assign ge = a >= b;
  assign eq = a == b;
  assign inrange = (a >= {width}'d{low}) && (a <= {width}'d{high});
  assign maxv = (a < b) ? b : a;
endmodule
"""


def wide_checksum(width: int = 96, chunk: int = 16, seed: int = 7) -> str:
    """Adler-style running checksum folding a wide bus chunk by chunk."""
    count = width // chunk
    parts = " + ".join(
        f"data[{(i + 1) * chunk - 1}:{i * chunk}]" for i in range(count)
    )
    return f"""\
module wide_checksum{width}(clk, rst, en, data, folded, checksum, nonzero);
  input clk, rst, en;
  input [{width - 1}:0] data;
  output [{chunk + 7}:0] folded;
  output reg [15:0] checksum;
  output nonzero;
  assign folded = {parts};
  always @(posedge clk or posedge rst) begin
    if (rst)
      checksum <= 16'd1;
    else if (en)
      checksum <= (checksum + folded) % 16'd65521;
  end
  assign nonzero = data != {width}'d0;
endmodule
"""


def wide_multiplier(width: int = 40) -> str:
    """Full-precision wide multiplier with a registered product."""
    return f"""\
module wide_mul{width}x{width}(clk, rst, en, a, b, product, prod_r, hi, zero);
  input clk, rst, en;
  input [{width - 1}:0] a, b;
  output [{2 * width - 1}:0] product;
  output reg [{2 * width - 1}:0] prod_r;
  output [{width - 1}:0] hi;
  output zero;
  assign product = a * b;
  assign hi = product[{2 * width - 1}:{width}];
  assign zero = product == {2 * width}'d0;
  always @(posedge clk or posedge rst) begin
    if (rst)
      prod_r <= {2 * width}'d0;
    else if (en)
      prod_r <= a * b;
  end
endmodule
"""


def pow_lfsr(width: int = 72, seed: int = 9) -> str:
    """Polynomial pattern generator stepping ``state ** e`` each clock.

    The ``**`` operator (modular square-and-multiply in the limb kernel) is
    the point: the state register is wider than 64 bits and the exponent is a
    live 3-bit input, so the design cannot lower without dynamic wide power.
    """
    rng = random.Random(seed)
    poly = _const(rng, width)
    init = _const(rng, width // 2)
    return f"""\
module pow_lfsr{width}(clk, rst, e, reseed, state, tap, sig);
  input clk, rst, reseed;
  input [2:0] e;
  output reg [{width - 1}:0] state;
  output tap;
  output [15:0] sig;
  always @(posedge clk or posedge rst) begin
    if (rst)
      state <= {width}'d{init};
    else if (reseed)
      state <= (state ^ {width}'d{poly}) | {width}'d1;
    else
      state <= (state ** e) ^ {width}'d{poly};
  end
  assign tap = state[{width - 1}];
  assign sig = state[15:0] ^ state[{width - 1}:{width - 16}];
endmodule
"""


def wide_shifter(width: int = 80) -> str:
    """Dynamic wide barrel shifter: left, right, and rotate composites."""
    amt_bits = max(1, (width - 1).bit_length())
    return f"""\
module wide_shift{width}(din, amt, sl, sr, rot, sticky);
  input [{width - 1}:0] din;
  input [{amt_bits - 1}:0] amt;
  output [{width - 1}:0] sl, sr, rot;
  output sticky;
  assign sl = din << amt;
  assign sr = din >> amt;
  assign rot = (din << amt) | (din >> ({width}'d{width} - amt));
  assign sticky = (din >> amt) != {width}'d0;
endmodule
"""


def wide_mux_bank(width: int = 96, banks: int = 4, seed: int = 11) -> str:
    """Registered wide constant bank selected by a narrow index."""
    rng = random.Random(seed)
    consts = [_const(rng, width) for _ in range(banks)]
    sel_bits = max(1, (banks - 1).bit_length())
    lines = [
        f"module wide_mux{width}(clk, rst, sel, mask, pattern, parity);",
        "  input clk, rst;",
        f"  input [{sel_bits - 1}:0] sel;",
        f"  input [{width - 1}:0] mask;",
        f"  output reg [{width - 1}:0] pattern;",
        "  output parity;",
        "  always @(posedge clk or posedge rst) begin",
        "    if (rst)",
        f"      pattern <= {width}'d0;",
        "    else begin",
        "      case (sel)",
    ]
    for index, value in enumerate(consts):
        lines.append(f"        {sel_bits}'d{index}: pattern <= {width}'d{value} & mask;")
    lines.append(f"        default: pattern <= pattern ^ {width}'d{consts[0]};")
    lines.extend(
        [
            "      endcase",
            "    end",
            "  end",
            "  assign parity = ^pattern;",
            "endmodule",
        ]
    )
    return "\n".join(lines) + "\n"

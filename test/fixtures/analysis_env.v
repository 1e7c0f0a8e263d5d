// Declaration-environment corner cases for the width and uninit-reg
// analyses, pinned by the golden diff in test/dune. One module per case;
// each comment gives what the simulator's elaborator makes of it.

// A port redeclared as reg without a range keeps the port's range: the
// simulator records q2 as 8 bits, so q2 <= d truncates nothing.
module redecl(clk, d, q2);
  input clk;
  input [7:0] d;
  output [7:0] q2;
  reg q2;
  always @(posedge clk) q2 <= d;
endmodule

// A sized-literal parameter wraps: 3'd7 + 3'd1 is 3'd0, so w is 1 bit
// wide and w <= 8'hff truncates.
module wrap(clk, w);
  input clk;
  parameter P = 3'd7 + 3'd1;
  output [P:0] w;
  reg [P:0] w;
  always @(posedge clk) w <= 8'hff;
endmodule

// A negative parameter in a range: -1 is a 32-bit all-ones value, and
// the simulator rejects q as 4,294,967,296 bits wide.
module negrange(clk, q, y);
  input clk;
  parameter N = -1;
  output [N:0] q;
  output [1:0] y;
  reg [N:0] q;
  always @(posedge clk) q <= 3'b111;
  assign y = q;
endmodule

// A range no constant evaluator here can fold: the simulator rejects
// the design (unsupported system function $clog2).
module clog(clk, d, q);
  input clk;
  parameter DEPTH = 16;
  input [3:0] d;
  output [$clog2(DEPTH)-1:0] q;
  reg [$clog2(DEPTH)-1:0] q;
  always @(posedge clk) q <= d;
endmodule

// An integer loop counter written in a clocked block is not state:
// no uninit-reg finding for i.
module loopvar(clk, d, q);
  input clk;
  input [3:0] d;
  output [3:0] q;
  reg [3:0] q;
  integer i;
  always @(posedge clk)
    for (i = 0; i < 4; i = i + 1)
      q[i] <= d[i];
endmodule

// A child port whose width comes from a parameter: a is W = 4 bits, so
// the 8-bit connection mismatches.
module child(a, y);
  parameter W = 4;
  input [W-1:0] a;
  output [W-1:0] y;
  assign y = a;
endmodule

module parent(x, z);
  input [7:0] x;
  output [3:0] z;
  child c (.a(x), .y(z));
endmodule

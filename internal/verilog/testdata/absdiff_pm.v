// Generated by pmsynth: design "absdiff", 3 control steps, power managed controller.
// Scheduling follows Monteiro et al., DAC 1996.

module absdiff_datapath (
  input wire clk,
  input wire [7:0] a,
  input wire [7:0] b,
  input wire ld_g,
  input wire ld_d1,
  input wire ld_d2,
  input wire ld_out,
  input wire go_g,
  input wire go_d1,
  input wire go_d2,
  output wire cond_g,
  output wire next_g,
  output wire [7:0] out_1
);
  reg [7:0] r_g = 0;
  reg [7:0] r_d1 = 0;
  reg [7:0] r_d2 = 0;
  reg [7:0] r_out = 0;
  wire [7:0] y_g;
  wire [7:0] y_out;
  reg [7:0] u_comp0_a = 0, u_comp0_b = 0;
  reg [7:0] u_sub0_a = 0, u_sub0_b = 0;
  wire [7:0] u_sub0_y;
  assign u_sub0_y = u_sub0_a - u_sub0_b;
  assign y_g = (u_comp0_a > u_comp0_b) ? 8'd1 : 8'd0;
  assign y_out = r_g[0] ? r_d1 : r_d2;
  always @(posedge clk) begin
    if (go_g) begin
      u_comp0_a <= a;
      u_comp0_b <= b;
    end
  end
  always @(posedge clk) begin
    if (go_d1) begin
      u_sub0_a <= a;
      u_sub0_b <= b;
    end
    if (go_d2) begin
      u_sub0_a <= b;
      u_sub0_b <= a;
    end
  end
  always @(posedge clk) begin
    if (ld_g) r_g <= y_g;
    if (ld_d1) r_d1 <= u_sub0_y;
    if (ld_d2) r_d2 <= u_sub0_y;
    if (ld_out) r_out <= y_out;
  end
  assign cond_g = r_g[0];
  assign next_g = y_g[0];
  assign out_1 = r_out;
endmodule

module absdiff_controller (
  input wire clk,
  input wire rst,
  input wire cond_g,
  input wire next_g,
  output wire ld_g,
  output wire ld_d1,
  output wire ld_d2,
  output wire ld_out,
  output wire go_g,
  output wire go_d1,
  output wire go_d2
);
  reg [1:0] state = 0;
  always @(posedge clk) begin
    if (rst) state <= 0;
    else if (state == 3) state <= 0;
    else state <= state + 1;
  end
  assign ld_g = (state == 1);
  assign ld_d1 = (state == 2 & cond_g);
  assign ld_d2 = (state == 2 & ~cond_g);
  assign ld_out = (state == 3);
  assign go_g = (state == 0);
  assign go_d1 = (state == 1 & next_g);
  assign go_d2 = (state == 1 & ~next_g);
endmodule

module absdiff (
  input wire clk,
  input wire rst,
  input wire [7:0] a,
  input wire [7:0] b,
  output wire [7:0] out_1
);
  wire ld_g;
  wire ld_d1;
  wire ld_d2;
  wire ld_out;
  wire go_g;
  wire go_d1;
  wire go_d2;
  wire cond_g;
  wire next_g;
  absdiff_datapath dp (
    .clk(clk),
    .a(a),
    .b(b),
    .ld_g(ld_g),
    .ld_d1(ld_d1),
    .ld_d2(ld_d2),
    .ld_out(ld_out),
    .go_g(go_g),
    .go_d1(go_d1),
    .go_d2(go_d2),
    .cond_g(cond_g),
    .next_g(next_g),
    .out_1(out_1)
  );
  absdiff_controller fsm (
    .clk(clk),
    .rst(rst),
    .cond_g(cond_g),
    .next_g(next_g),
    .ld_g(ld_g),
    .ld_d1(ld_d1),
    .ld_d2(ld_d2),
    .ld_out(ld_out),
    .go_g(go_g),
    .go_d1(go_d1),
    .go_d2(go_d2)
  );
endmodule

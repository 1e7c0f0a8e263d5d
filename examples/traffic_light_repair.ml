(* Repairing a user-authored design that is NOT part of the benchmark
   suite: a traffic-light controller FSM with a transplanted off-by-two in
   its yellow-phase timer. This is the workflow an adopter would
   follow on their own RTL: write the design + testbench, keep the golden
   version (or hand-author the oracle CSV), and point CirFix at the fault.

     dune exec examples/traffic_light_repair.exe *)

let golden_design =
  {|
module traffic_light(clk, rst, car_waiting, lights);
  input clk;
  input rst;
  input car_waiting;   // a car waits on the side road
  output [2:0] lights; // {red, yellow, green} for the main road

  wire clk;
  wire rst;
  wire car_waiting;
  reg [2:0] lights;

  parameter GREEN  = 2'd0;
  parameter YELLOW = 2'd1;
  parameter RED    = 2'd2;

  reg [1:0] state;
  reg [3:0] timer;

  always @(posedge clk) begin
    if (rst == 1'b1) begin
      state <= GREEN;
      timer <= 4'd0;
      lights <= 3'b001;
    end
    else begin
      case (state)
        GREEN: begin
          lights <= 3'b001;
          // Stay green for at least 4 cycles, then yield to waiting cars.
          if (timer >= 4'd4 && car_waiting == 1'b1) begin
            state <= YELLOW;
            timer <= 4'd0;
          end
          else begin
            timer <= timer + 4'd1;
          end
        end
        YELLOW: begin
          lights <= 3'b010;
          if (timer == 4'd1) begin
            state <= RED;
            timer <= 4'd0;
          end
          else begin
            timer <= timer + 4'd1;
          end
        end
        RED: begin
          lights <= 3'b100;
          if (timer == 4'd5) begin
            state <= GREEN;
            timer <= 4'd0;
          end
          else begin
            timer <= timer + 4'd1;
          end
        end
        default: state <= GREEN;
      endcase
    end
  end
endmodule
|}

let testbench =
  {|
module traffic_light_tb;
  reg clk, rst, car_waiting;
  wire [2:0] lights;

  traffic_light dut (.clk(clk), .rst(rst), .car_waiting(car_waiting), .lights(lights));

  initial begin
    clk = 0;
    rst = 0;
    car_waiting = 0;
  end

  always #5 clk = !clk;

  initial begin
    @(negedge clk);
    rst = 1;
    @(negedge clk);
    rst = 0;
    repeat (3) @(negedge clk);
    car_waiting = 1;          // arrive during the minimum green window
    repeat (12) @(negedge clk);
    car_waiting = 0;
    repeat (8) @(negedge clk);
    car_waiting = 1;          // second car later on
    repeat (12) @(negedge clk);
    #5 $finish;
  end
endmodule
|}

let () =
  (* The defect a developer might introduce: an off-by-two in the yellow
     phase duration, so cross traffic is released two cycles late. *)
  let faulty =
    Str.global_replace
      (Str.regexp_string "if (timer == 4'd1) begin\n            state <= RED;")
      "if (timer == 4'd3) begin\n            state <= RED;" golden_design
  in
  assert (faulty <> golden_design);

  let spec : Sim.Simulate.spec =
    {
      top = "traffic_light_tb";
      clock = "traffic_light_tb.clk";
      dut_path = "traffic_light_tb.dut";
    }
  in
  let problem =
    Cirfix.Problem.make ~name:"traffic_light" ~faulty ~golden:golden_design
      ~testbench ~target:"traffic_light" spec
  in
  Printf.printf "oracle: %d sampled clock edges, %d output bits per sample\n"
    (Cirfix.Oracle.length problem.oracle)
    (Array.fold_left
       (fun acc (c : Cirfix.Oracle.column) -> acc + c.width)
       0 problem.oracle.columns);

  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let faulty_fit =
    (Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module problem))
      .fitness
  in
  Printf.printf "fitness of the faulty controller: %.3f\n\n" faulty_fit;

  let cfg =
    {
      Cirfix.Config.default with
      pop_size = 60;
      max_generations = 40;
      max_probes = 10_000;
      max_wall_seconds = 90.0;
    }
  in
  let rec attempt seed =
    if seed > 5 then (
      print_endline "no repair in 5 trials";
      exit 1);
    let r = Cirfix.Gp.repair { cfg with seed } problem in
    match (r.minimized, r.repaired_module) with
    | Some patch, Some m ->
        Printf.printf "repaired on seed %d (%d probes, %.2fs)\n" seed
          (Cirfix.Evaluate.get r.counters Probes)
          r.wall_seconds;
        Printf.printf "patch: %s\n\n" (Cirfix.Patch.to_string patch);
        print_endline "--- repaired controller (for developer review) ---";
        print_endline (Verilog.Pp.module_to_string m)
    | _ -> attempt (seed + 1)
  in
  attempt 1

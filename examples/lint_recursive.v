// Deliberately recursive hierarchy (used by CI and tests/serve_test.cpp):
// top instances a, a instances b, and b instances a again, so flattening
// top can never finish. `syndcim lint examples/lint_recursive.v` must exit
// 1 and report NET-RECURSIVE with the instantiation path
// top -> a -> b -> a.
module top (in1, out1);
  input in1;
  output out1;
  a u_a (.x(in1), .y(out1));
endmodule

module a (x, y);
  input x;
  output y;
  b u_b (.x(x), .y(y));
endmodule

module b (x, y);
  input x;
  output y;
  wire n;
  INVX1 u_inv (.A(x), .Y(n));
  a u_a (.x(n), .y(y));
endmodule

`timescale 1ns/1ps
module mux_b0t0_tb;
    initial begin
        // EMIT: t0 mux_b0t0 a053e608
        // EMIT: t1 mux_b0t0 c0192970
        // EMIT: t2 mux_b0t0 8946c6ca
        // EMIT: t3 mux_b0t0 f12f10c7
        // EMIT: t4 mux_b0t0 86699150
        $finish;
    end
endmodule

`timescale 1ns/1ps
module arbiter_b0g1_tb;
    initial begin
        // EMIT: t0 arbiter_b0g1 49cf4950
        // EMIT: t1 arbiter_b0g1 56076aea
        // EMIT: t2 arbiter_b0g1 a087a668
        // EMIT: t3 arbiter_b0g1 314ead71
        // EMIT: t4 arbiter_b0g1 9c7b469a
        // EMIT: t5 arbiter_b0g1 2f99d23c
        // EMIT: t6 arbiter_b0g1 f6303c46
        // EMIT: t7 arbiter_b0g1 226ef767
        // EMIT: t8 arbiter_b0g1 3497c705
        // EMIT: t9 arbiter_b0g1 c4f7786b
        // EMIT: t10 arbiter_b0g1 39e19936
        // EMIT: t11 arbiter_b0g1 f81f7732
        // EMIT: t12 arbiter_b0g1 d1ca9a43
        // EMIT: t13 arbiter_b0g1 da2b58b4
        // EMIT: t14 arbiter_b0g1 7873a55d
        // EMIT: t15 arbiter_b0g1 469d2e1d
        // EMIT: t16 arbiter_b0g1 1910cd18
        // EMIT: t17 arbiter_b0g1 36afc2ab
        // EMIT: t18 arbiter_b0g1 f7e76c00
        // EMIT: t19 arbiter_b0g1 f6613ff1
        // EMIT: t20 arbiter_b0g1 a201549d
        // EMIT: t21 arbiter_b0g1 02ad894a
        // EMIT: t22 arbiter_b0g1 a057ee31
        // EMIT: t23 arbiter_b0g1 840276dd
        // EMIT: t24 arbiter_b0g1 c7c47d2d
        // EMIT: t25 arbiter_b0g1 1814a92c
        // EMIT: t26 arbiter_b0g1 81c28cc3
        // EMIT: t27 arbiter_b0g1 87b226e7
        // EMIT: t28 arbiter_b0g1 e84ce5c5
        // EMIT: t29 arbiter_b0g1 008f64d7
        // EMIT: t30 arbiter_b0g1 e305187d
        // EMIT: t31 arbiter_b0g1 013df3b8
        // EMIT: t32 arbiter_b0g1 e8fde86b
        // EMIT: t33 arbiter_b0g1 770f65f9
        // EMIT: t34 arbiter_b0g1 e3d41ac2
        // EMIT: t35 arbiter_b0g1 182eeb8c
        // EMIT: t36 arbiter_b0g1 29f9be35
        $finish;
    end
endmodule

`timescale 1ns/1ps
module decoder_b0g0_tb;
    initial begin
        // EMIT: t0 decoder_b0g0 dd331516
        // EMIT: t1 decoder_b0g0 5b8d632f
        // EMIT: t2 decoder_b0g0 7f65a5f5
        // EMIT: t3 decoder_b0g0 9760bb38
        // EMIT: t4 decoder_b0g0 6828ae08
        // EMIT: t5 decoder_b0g0 4ed87e63
        // EMIT: t6 decoder_b0g0 8773914c
        // EMIT: t7 decoder_b0g0 87ee0c44
        // EMIT: t8 decoder_b0g0 4f5189ac
        // EMIT: t9 decoder_b0g0 19e0af5b
        // EMIT: t10 decoder_b0g0 9a9a19ed
        // EMIT: t11 decoder_b0g0 d9869d83
        // EMIT: t12 decoder_b0g0 12cf5cc9
        // EMIT: t13 decoder_b0g0 7582668d
        // EMIT: t14 decoder_b0g0 e73c79ca
        // EMIT: t15 decoder_b0g0 5066054c
        // EMIT: t16 decoder_b0g0 9c58a467
        // EMIT: t17 decoder_b0g0 2885972d
        // EMIT: t18 decoder_b0g0 e69d8e36
        // EMIT: t19 decoder_b0g0 a9aba491
        // EMIT: t20 decoder_b0g0 faf752ab
        // EMIT: t21 decoder_b0g0 a7091930
        // EMIT: t22 decoder_b0g0 287cb3cd
        // EMIT: t23 decoder_b0g0 32c5330c
        // EMIT: t24 decoder_b0g0 a2e20b0d
        $finish;
    end
endmodule

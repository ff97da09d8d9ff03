(* Runtime smoke: a 2-domain micro case wired into `dune build @runtest`.

   Runs the matmul kernel through the compiled runtime on 2 domains
   under GSS and checks the arrays against the reference interpreter.
   Fast enough to run on every test invocation; exits non-zero on any
   divergence so CI catches runtime regressions immediately. *)

open Loopcoal

let () =
  let prog = Kernels.matmul ~ra:12 ~ca:9 ~cb:11 in
  let st = Eval.run prog in
  let outcome =
    Runtime.Exec.run ~domains:2 ~policy:Policy.Gss prog
  in
  if Runtime.Exec.agrees_with_interpreter ~compare_scalars:true outcome st then
    print_endline "runtime smoke ok: matmul, 2 domains, GSS"
  else begin
    prerr_endline "runtime smoke FAILED: parallel result differs from interpreter";
    exit 1
  end;
  (* And one reduction case: integral sum, exact under any association. *)
  let open Loopcoal_ir in
  let sum_prog =
    Builder.program
      ~scalars:[ Builder.real_scalar "s" ]
      [
        Builder.doall "i" (Builder.int 1) (Builder.int 50)
          [
            Builder.doall "j" (Builder.int 1) (Builder.int 40)
              [
                Builder.assign "s"
                  Builder.(var "s" + (var "i" * var "j"));
              ];
          ];
      ]
  in
  let st = Eval.run sum_prog in
  let outcome =
    Runtime.Exec.run ~domains:2 ~policy:(Policy.Self_sched 16) sum_prog
  in
  if Runtime.Exec.agrees_with_interpreter ~compare_scalars:true outcome st then
    print_endline "runtime smoke ok: nested sum reduction, 2 domains, self-sched"
  else begin
    prerr_endline "runtime smoke FAILED: reduction merge differs from interpreter";
    exit 1
  end

(* loopcoal benchmark: one workload from a seed, closed loop, in one
   process with at most 2 domains.

     bench.exe --workload kernels|nest-forms|compile-churn --seed N
               --seconds S --trace 0|1 [--tiny] [--loopc PATH]

   A workload is a panel of programs executed under four configurations
   (bytecode at 1 domain, bytecode at 2 domains under static-block and
   GSS, native at 1 domain) plus a stream of compile jobs. Every round
   runs each panel entry once, in an order rotated per round so drift
   in host speed lands on every configuration alike, then its share of
   jobs; gated figures are medians over rounds (lower deciles for
   2-domain executions, see [entry_ns]). Every execution and job
   is checked, and counts as one attempted op.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics, measured by timing
   spans around the calls into each layer (see spans.ml) plus the
   executor's own trace and profile hooks. Process spawns (the native
   artifact probe and the loopc CLI timings) happen only in the traced
   mode, so no gated figure depends on them. *)

open Loopcoal
module Compile = Runtime.Compile
module Exec = Runtime.Exec
module Pool = Runtime.Pool
module Plancache = Runtime.Plancache
module Natgen = Runtime.Natgen
module Tapecheck = Runtime.Tapecheck
module Bytecode = Runtime.Bytecode
module Profile = Runtime.Profile

let now = Trace.now

(* ---------- command line ---------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let traced = ref 0
let tiny = ref false
let loopc = ref ""
let natwarm_dir = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kernels|nest-forms|compile-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured time");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end or per-layer metrics");
      ("--tiny", Arg.Set tiny, " tiny sizes (self-test)");
      ("--loopc", Arg.Set_string loopc, "PATH loopc executable (traced CLI timings)");
      ("--natwarm-child", Arg.Set_string natwarm_dir, "DIR (internal) warm native probe");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "kernels"; "nest-forms"; "compile-churn" ]) then begin
    prerr_endline "bench: --workload must be kernels, nest-forms or compile-churn";
    exit 2
  end

(* ---------- statistics ---------- *)

let sorted l = List.sort compare l

let quantile l q =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 >= n then a.(n - 1) else (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f)

let median l = quantile l 0.5

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))

(* The highest of p99.9/p99/p90/p50 with at least ten samples beyond it. *)
let high_pct l =
  let n = float_of_int (List.length l) in
  let levels = [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.9); ("p50", 0.5) ] in
  match List.find_opt (fun (_, q) -> n *. (1. -. q) >= 10.) levels with
  | Some (label, q) -> Some (label, quantile l q)
  | None -> None

(* Named samples, unboxed in fixed-size chunks: the harness's own memory
   grows by 8 bytes a sample and never in large steps, so peak_rss_mb
   stays a property of the program, not of how many samples a run got. *)
type buf = { mutable chunks : Float.Array.t list; mutable fill : int }

let chunk = 1024
let samples : (string, buf) Hashtbl.t = Hashtbl.create 64

let add name v =
  let b =
    match Hashtbl.find_opt samples name with
    | Some b -> b
    | None ->
        let b = { chunks = []; fill = chunk } in
        Hashtbl.add samples name b;
        b
  in
  if b.fill = chunk then begin
    b.chunks <- Float.Array.create chunk :: b.chunks;
    b.fill <- 0
  end;
  Float.Array.set (List.hd b.chunks) b.fill v;
  b.fill <- b.fill + 1

let get name =
  match Hashtbl.find_opt samples name with
  | None -> []
  | Some b ->
      List.concat
        (List.mapi
           (fun i c -> Float.Array.to_list (Float.Array.sub c 0 (if i = 0 then b.fill else chunk)))
           b.chunks)

(* ---------- ops ---------- *)

let attempted = ref 0
let failed = ref 0

let op label f =
  incr attempted;
  let r = try f () with e -> Error (Printexc.to_string e) in
  match r with
  | Ok () -> ()
  | Error msg ->
      incr failed;
      if !failed <= 20 then Printf.eprintf "failed op %s: %s\n%!" label msg

(* ---------- checking ---------- *)

let close tol a b =
  if tol = 0. then Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || a = b
  else Float.abs (a -. b) <= tol *. Float.max 1. (Float.abs b)

let check (ex : Progs.expect) ~domains (o : Exec.outcome) =
  let bad = ref None in
  let flag m = if !bad = None then bad := Some m in
  List.iter
    (fun (name, want) ->
      match List.assoc_opt name o.arrays with
      | None -> flag ("missing array " ^ name)
      | Some got ->
          if Array.length got <> Array.length want then flag ("size of " ^ name)
          else
            Array.iteri
              (fun i w ->
                if not (close ex.tol got.(i) w) then flag (Printf.sprintf "%s[%d]" name i))
              want)
    ex.arrays;
  List.iter
    (fun (name, want) ->
      match List.assoc_opt name o.scalars with
      | Some (Eval.Vreal got) when close ex.tol got want -> ()
      | _ -> flag ("scalar " ^ name))
    ex.reals;
  if domains = 1 then
    List.iter
      (fun (name, want) ->
        if List.assoc_opt name o.scalars <> Some want then flag ("scalar " ^ name))
      ex.eval_scalars;
  match !bad with None -> Ok () | Some m -> Error ("mismatch: " ^ m)

(* At 2 domains privatized live-out scalars may legitimately differ from
   the interpreter today (the copy-back picks a schedule-dependent
   clone); that is counted in exec.scalar_mismatch_share, not failed. *)
let mismatch_runs = ref 0
let scalar_runs = ref 0

let note_scalars (ex : Progs.expect) (o : Exec.outcome) =
  if ex.eval_scalars <> [] then begin
    incr scalar_runs;
    if List.exists (fun (n, v) -> List.assoc_opt n o.scalars <> Some v) ex.eval_scalars then
      incr mismatch_runs
  end

(* ---------- configurations ---------- *)

type config = Bc1 | Bc2_block | Bc2_gss | Nat1

let configs = [ Bc1; Bc2_block; Bc2_gss; Nat1 ]

let config_name = function
  | Bc1 -> "bc1"
  | Bc2_block -> "bc2_block"
  | Bc2_gss -> "bc2_gss"
  | Nat1 -> "nat1"

let domains_of = function Bc2_block | Bc2_gss -> 2 | Bc1 | Nat1 -> 1

let c_fallbacks = Registry.counter "native.fallbacks"

let exec ?trace pool c cfg =
  match cfg with
  | Bc1 -> Exec.run_compiled ~engine:Exec.Bytecode ?trace c
  | Bc2_block -> Exec.run_compiled ~pool ~policy:Policy.Static_block ~engine:Exec.Bytecode ?trace c
  | Bc2_gss -> Exec.run_compiled ~pool ~policy:Policy.Gss ~engine:Exec.Bytecode ?trace c
  | Nat1 -> Exec.run_compiled ~engine:Exec.Native ?trace c

(* ---------- host ---------- *)

(* The host's speed drifts by up to 1.5x over seconds when other tenants
   load its cores. A bytecode execution and a plain-OCaml dispatch loop
   slow down together (their ratio held within 3% while each moved by
   40% on a 2-vCPU x86-64 host), while a dependent integer chain barely
   moves. [canary] is such a dispatch loop, written here and independent
   of the program under test. Gated timings are scaled by
   [calm_ms / canary time] of their round: they read as on a host of
   fixed speed, and only the program's own changes move them. *)
let canary_code = [| 0; 1; 2; 3; 0; 2; 1; 3; 4 |]

let canary () =
  let t0 = now () in
  let regs = Array.make 2 1.0 and acc = ref 0 in
  let data = Array.init 512 float_of_int in
  for it = 1 to 20_000 do
    let pc = ref 0 in
    while !pc < Array.length canary_code do
      (match Array.unsafe_get canary_code !pc with
      | 0 -> regs.(0) <- (regs.(1) *. 0.5) +. Array.unsafe_get data (it land 511)
      | 1 -> regs.(1) <- regs.(0) +. 1.0
      | 2 -> if regs.(0) > 100.0 then regs.(0) <- 0.0
      | 3 -> Array.unsafe_set data (it * 7 land 511) regs.(1)
      | _ -> incr acc);
      incr pc
    done
  done;
  ignore (Sys.opaque_identity (!acc, regs));
  float_of_int (now () - t0) /. 1e6

(* The fixed canary time gated figures are scaled to; the canary takes
   about 0.75 ms on a calm 2-vCPU x86-64 host (OCaml 5.1.1). *)
let calm_ms = 0.55

let median3 f = median [ f (); f (); f () ]

(* Correction factors for 1-domain work (canary alone on the calling
   domain) and 2-domain work (canaries on both domains at once; the
   slower one, which a static split waits for). *)
let f1 = ref 1.0
let f2 = ref 1.0
let last_canary = ref 0

let refresh_host pool =
  if now () - !last_canary >= 100_000_000 then begin
    let solo = median3 canary in
    let pair = Array.make 2 0. in
    let both =
      median3 (fun () ->
          Pool.run pool (fun q -> pair.(q) <- canary ());
          Float.max pair.(0) pair.(1))
    in
    add "host.ref_ms" solo;
    add "host.ref_pair_ms" both;
    f1 := calm_ms /. solo;
    f2 := calm_ms /. both;
    last_canary := now ()
  end

let read_file f =
  try
    let ic = open_in f in
    let s = In_channel.input_all ic in
    close_in ic;
    s
  with Sys_error _ -> ""

let peak_rss_mb () =
  let kb =
    String.split_on_char '\n' (read_file "/proc/self/status")
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun k -> k)
           | _ -> None)
  in
  match kb with Some k -> float_of_int k /. 1024. | None -> nan

let loadavg () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
  | _ -> "?"

(* ---------- files ---------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* ---------- workloads ---------- *)

let rng salt = Random.State.make [| !seed; salt |]
let scale = if !tiny then 0.1 else 1.0

let kernels_panel () =
  let r = rng 1 in
  List.map (Progs.kernel r ~scale) Progs.kernel_names

let forms_panel () =
  let r = rng 2 in
  List.concat_map
    (fun cls ->
      let dims = Progs.shape r ~scale cls in
      List.map (fun form -> Progs.form_prog ~form dims) Progs.form_names)
    Progs.shape_classes

(* Programs of the job stream's classes at sizes where an execution
   takes a few hundred us: at the stream's own sizes a 2-domain
   execution is one wake-up of the worker domain, whose cost the host
   sets, not the program. *)
let churn_panel () =
  let r = rng 3 in
  [
    Progs.tiny_kernel ~scale:(0.4 *. scale) r ~k:0 (-1);
    Progs.tiny_kernel ~scale:(0.4 *. scale) r ~k:5 (-2);
    Progs.form_prog ~uid:(-3) ~form:"coalesced" (Progs.shape r ~scale:(0.5 *. scale) [ 128; 128 ]);
    Progs.form_prog ~uid:(-4) ~form:"per_loop" (Progs.shape r ~scale:(0.5 *. scale) [ 8; 64; 64 ]);
  ]

let own_panel () =
  match !workload with
  | "kernels" -> kernels_panel ()
  | "nest-forms" -> forms_panel ()
  | _ -> churn_panel ()

(* The job stream: program texts new to the cache, each submitted twice
   (cold, then warm), at sizes where execution is next to nothing. *)
let job_stream () =
  let r = rng 4 in
  let examples = if !workload = "compile-churn" then Progs.example_files () else [] in
  fun uid ->
    match !workload with
    | "kernels" -> Progs.tiny_kernel r ~k:uid uid
    | "nest-forms" -> Progs.tiny_nest r ~k:uid uid
    | _ -> (
        let k = uid / 3 in
        match uid mod 3 with
        | 0 -> Progs.tiny_kernel r ~k uid
        | 1 -> Progs.tiny_nest r ~k uid
        | _ -> Progs.example ~k examples uid)

let jobs_per_round () = if !workload = "compile-churn" then 32 else 4

(* ---------- set-up ---------- *)

type item = { prog : Progs.prog; compiled : Compile.t }

let native_key ast = Plancache.key ~sanitize:false ~opt_level:2 ~salt:"native" ast

(* The program's own set-up calls: parse, validate, compile, native
   prepare, pool creation. Returns the compiled programs, the pool and
   each native prepare's wall time. *)
let setup_once ~nat_dir progs =
  let prep_ms = ref [] in
  let compiled =
    List.map
      (fun (p : Progs.prog) ->
        let ast = Spans.with_ "ir.parse" (fun () -> Parser.parse_program p.text) in
        (match Spans.with_ "ir.validate" (fun () -> Validate.check_program ast) with
        | [] -> ()
        | i :: _ -> failwith (p.name ^ ": " ^ i.Validate.what));
        let c = Spans.with_ "compile" (fun () -> Compile.compile ast) in
        let t0 = now () in
        (match
           Spans.with_ "natgen.prepare" (fun () ->
               Natgen.prepare ~key:(native_key ast) ~dir:nat_dir ~persist:true c)
         with
        | Natgen.Ready _ -> ()
        | Natgen.Unavailable _ when Compile.plans c = [] -> ()
        | Natgen.Unavailable why -> failwith ("native tier unavailable: " ^ why));
        prep_ms := (float_of_int (now () - t0) /. 1e6) :: !prep_ms;
        c)
      progs
  in
  let pool = Spans.with_ "pool.create" (fun () -> Pool.create 2) in
  (compiled, pool, List.rev !prep_ms)

(* Set up [reps] times; the median wall time is setup_s. The first
   repetition builds the native plugins, later ones reuse them. *)
let setup ~nat_dir progs =
  let reps = 11 in
  let last = ref None in
  let cold_prep = ref [] in
  for k = 1 to reps do
    Gc.full_major ();
    let f = calm_ms /. median3 canary in
    let t0 = now () in
    let compiled, pool, prep = Spans.with_ "setup" (fun () -> setup_once ~nat_dir progs) in
    let dt = float_of_int (now () - t0) /. 1e9 in
    add "raw.setup_s" dt;
    add "setup_s" (dt *. f);
    if k = 1 then cold_prep := prep;
    Option.iter (fun (_, p) -> Pool.shutdown p) !last;
    last := Some (compiled, pool)
  done;
  match !last with
  | Some (compiled, pool) ->
      (List.map2 (fun prog compiled -> { prog; compiled }) progs compiled, pool, !cold_prep)
  | None -> assert false

(* ---------- panel execution ---------- *)

let exec_key (it : item) cfg = "exec." ^ it.prog.name ^ "." ^ config_name cfg

let run_entry ?(traced_copy = false) pool (it : item) cfg =
  op (it.prog.name ^ "/" ^ config_name cfg) (fun () ->
      let tracer = if traced_copy then Some (Trace.create ~p:2 ()) else None in
      let fb0 = Registry.value c_fallbacks in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let o =
        Spans.with_ ("exec." ^ config_name cfg) (fun () -> exec ?trace:tracer pool it.compiled cfg)
      in
      let dt = now () - t0 in
      let words = Gc.minor_words () -. w0 in
      if cfg = Nat1 && Registry.value c_fallbacks > fb0 then
        Error "native run fell back to bytecode"
      else
        match check it.prog.expect ~domains:(domains_of cfg) o with
        | Error _ as e -> e
        | Ok () ->
            let per_iter = float_of_int dt /. float_of_int (max 1 it.prog.iters) in
            let k = exec_key it cfg ^ if traced_copy then ".traced" else "" in
            add k (per_iter *. if domains_of cfg = 2 then !f2 else !f1);
            if cfg = Bc1 && !traced = 1 && not traced_copy then
              add ("gc." ^ it.prog.name) (words /. float_of_int (max 1 it.prog.iters));
            if domains_of cfg = 2 then note_scalars it.prog.expect o;
            Ok ())

(* An entry's ns/iter over the run's rounds. At 1 domain, the median.
   At 2 domains, the lower decile: a round in which the host delays the
   worker domain's wake-ups takes up to ten times longer, and such
   stretches cover anywhere from none to most of a run, which moved the
   run's median by 25-35% between runs of the same code. The fastest
   tenth of rounds, in which both domains ran, held within 5%. *)
let entry_ns it cfg =
  let l = get (exec_key it cfg) in
  if domains_of cfg = 2 then quantile l 0.1 else median l

(* Geomean of [entry_ns] over entries. *)
let panel_ns items cfgs =
  geomean (List.concat_map (fun it -> List.map (entry_ns it) cfgs) items)

(* ---------- compile jobs ---------- *)

let search_ctx = lazy (Search.default_ctx ~p:1 ())

let code_key ast = Plancache.key ~sanitize:false ~opt_level:2 ~salt:"bytecode" ast
let recipe_key ast = Plancache.key ~sanitize:false ~opt_level:2 ~salt:"search:bytecode" ast

(* One `loopc run`-equivalent job on a fresh plan-cache handle, as a new
   process sees it: an empty memory layer, and for a warm job the run's
   disk layer. A cold job's handle has no disk layer; its new entries
   are written to disk after the job, timed on their own as
   plancache.store_us. File creation on the measured host took 45 us or
   700 us depending on the second, the same for a plain Python
   open/write/rename, so a gated time must not contain it. Returns the
   job's wall time with the submitted and compiled programs, the
   outcome and the handle; checking happens outside the timed part. *)
let job ~dir ~search ~cold ?tape_dump (p : Progs.prog) =
  let t0 = now () in
  let r =
    Spans.with_ (if cold then "job.cold" else "job.warm") (fun () ->
        let src = Spans.with_ "ir.parse" (fun () -> Parser.parse_program p.text) in
        (match Spans.with_ "ir.validate" (fun () -> Validate.check_program src) with
        | [] -> ()
        | i :: _ -> failwith i.Validate.what);
        ignore (Spans.with_ "verify.check" (fun () -> Verify.check_program src));
        let cache =
          Spans.with_ "plancache.create" (fun () ->
              if cold then Plancache.create () else Plancache.create ~dir ())
        in
        let ast =
          if not search then src
          else
            let rkey = recipe_key src in
            match Spans.with_ "search.lookup" (fun () -> Plancache.find_recipe cache rkey) with
            | Some s ->
                Spans.with_ "search.replay" (fun () ->
                    match Result.bind (Recipe.of_string s) (fun r -> Recipe.apply r src) with
                    | Ok a -> a
                    | Error e -> failwith ("recipe replay: " ^ e))
            | None ->
                let rep =
                  Spans.with_ "search.run" (fun () ->
                      let rep = Search.run ~ctx:(Lazy.force search_ctx) src in
                      Plancache.store_recipe cache rkey (Recipe.to_string rep.Search.rp_winner);
                      rep)
                in
                add "search.candidates" (float_of_int rep.Search.rp_considered);
                add "search.pruned" (float_of_int rep.Search.rp_pruned);
                rep.Search.rp_program
        in
        let compiled =
          Spans.with_ (if cold then "compile.cold" else "compile.warm") (fun () ->
              Compile.compile ~cache ~cache_salt:"bytecode" ?tape_dump ast)
        in
        let o =
          Spans.with_ "exec.run" (fun () -> Exec.run_compiled ~engine:Exec.Bytecode compiled)
        in
        (src, ast, o, cache))
  in
  (r, now () - t0)

(* Write what a cold job stored in memory to the disk layer. *)
let persist ~dir ~search mem src ast =
  let disk = Plancache.create ~dir () in
  (match Plancache.find mem (code_key ast) with
  | Some entry ->
      Spans.with_ "plancache.store" (fun () -> Plancache.store disk (code_key ast) entry)
  | None -> failwith "cold compile left no cache entry");
  if search then
    match Plancache.find_recipe mem (recipe_key src) with
    | Some r -> Plancache.store_recipe disk (recipe_key src) r
    | None -> failwith "cold search left no recipe"

(* Per-pass compile time, timed between successive tape_dump calls. *)
let pass_hook () =
  let last = ref (now ()) in
  fun ~plan:_ ~pass _tape ->
    let t = now () in
    add ("compile.pass_us." ^ pass) (float_of_int (t - !last) /. 1e3);
    last := t

(* Outside-in probes of the disk layer on a stored program: a lookup,
   and the structural re-check of what it returned. *)
let cache_probes ~dir ast =
  let cache = Plancache.create ~dir () in
  let found =
    Spans.with_ "plancache.find_disk" (fun () -> Plancache.find_origin cache (code_key ast))
  in
  match found with
  | Some (entry, `Disk) ->
      Spans.with_ "tapecheck.entry" (fun () ->
          List.iteri
            (fun i (t, _, _) ->
              Option.iter (fun t -> ignore (Tapecheck.check_entry ~region:(i + 1) t)) t)
            entry.Plancache.e_plans);
      Ok ()
  | Some (_, `Mem) -> Error "fresh cache handle served a memory hit"
  | None -> Error "stored program missing from the disk layer"

let uid = ref 0

let run_jobs ~cache_root ~gen =
  for _ = 1 to jobs_per_round () do
    incr uid;
    (* A fresh directory every 256 programs keeps the disk layer small. *)
    let dir = Filename.concat cache_root (string_of_int (!uid / 256)) in
    if !uid mod 256 = 0 then rm_rf (Filename.concat cache_root (string_of_int ((!uid / 256) - 1)));
    let p : Progs.prog = gen !uid in
    (* A quarter of the programs go through the searcher. *)
    let search = !uid mod 4 = 0 in
    List.iter
      (fun cold ->
        op
          (p.name ^ if cold then "/cold-job" else "/warm-job")
          (fun () ->
            let h0, m0 = Counters.plan_cache_stats () in
            let tape_dump = if !Spans.on && cold then Some (pass_hook ()) else None in
            let (src, ast, o, cache), dt = job ~dir ~search ~cold ?tape_dump p in
            let h1, m1 = Counters.plan_cache_stats () in
            if cold && m1 = m0 then Error "cold job did not miss the plan cache"
            else if (not cold) && h1 = h0 then Error "warm job did not hit the plan cache"
            else
              match check p.expect ~domains:1 o with
              | Error _ as e -> e
              | Ok () ->
                  let k = if cold then "cold_job_us" else "warm_job_us" in
                  add ("raw." ^ k) (float_of_int dt /. 1e3);
                  add k (float_of_int dt /. 1e3 *. !f1);
                  if cold then Ok (persist ~dir ~search cache src ast)
                  else if !Spans.on then cache_probes ~dir ast
                  else Ok ()))
      [ true; false ]
  done

(* ---------- traced probes ---------- *)

let policies =
  [
    ("block", Policy.Static_block);
    ("cyclic", Policy.Static_cyclic);
    ("ss", Policy.Self_sched 16);
    ("gss", Policy.Gss);
    ("factoring", Policy.Factoring);
    ("trapezoid", Policy.Trapezoid);
  ]

(* All six policies on one kernel at 2 domains, under the executor's
   chunk trace: fork-side latencies of the largest region. *)
let fork_probe pool (it : item) =
  List.iter
    (fun (pname, policy) ->
      op (it.prog.name ^ "/" ^ pname) (fun () ->
          let tr = Trace.create ~p:2 () in
          let o = Exec.run_compiled ~pool ~policy ~engine:Exec.Bytecode ~trace:tr it.compiled in
          match check it.prog.expect ~domains:2 o with
          | Error _ as e -> e
          | Ok () -> (
              let m = Metrics.of_trace (Trace.snapshot tr) in
              let by_size (a : Metrics.fork_metrics) (b : Metrics.fork_metrics) = compare b.n a.n in
              match List.sort by_size m.Metrics.forks with
              | [] -> Error "no traced region"
              | f :: _ ->
                  let k s = "fork." ^ pname ^ "." ^ s in
                  add (k "first_chunk_us") (float_of_int f.fork_latency_ns /. 1e3);
                  add (k "join_tail_us") (float_of_int f.join_latency_ns /. 1e3);
                  add (k "imbalance") f.imbalance;
                  add (k "chunks") (float_of_int f.chunks_dispatched);
                  Ok ())))
    policies

let pool_probe pool =
  for _ = 1 to 100 do
    let t0 = now () in
    Pool.run pool (fun _ -> ());
    add "pool.fork_join_us" (float_of_int (now () - t0) /. 1e3)
  done

let sched_probe ns =
  let per_call name f =
    let reps = 5 in
    let t0 = now () in
    for _ = 1 to reps do
      List.iter f ns
    done;
    add name (float_of_int (now () - t0) /. 1e3 /. float_of_int (reps * List.length ns))
  in
  per_call "sched.static_block_us" (fun n ->
      let t = Static.block ~n ~p:2 in
      ignore (Static.chunks_of t 0);
      ignore (Static.chunks_of t 1));
  per_call "sched.gss_seq_us" (fun n -> ignore (Chunks.dynamic_sequence Policy.Gss ~n ~p:2))

(* A second process prepares the same plans against the artifacts this
   one stored: the native tier's warm start. *)
let natwarm_child () =
  let items = kernels_panel () in
  let ms =
    List.map
      (fun (p : Progs.prog) ->
        let ast = Parser.parse_program p.text in
        let c = Compile.compile ast in
        let t0 = now () in
        (match Natgen.prepare ~key:(native_key ast) ~dir:!natwarm_dir ~persist:true c with
        | Natgen.Ready { artifact_hit = true } -> ()
        | Natgen.Unavailable _ when Compile.plans c = [] -> ()
        | _ -> failwith "no native artifact hit");
        float_of_int (now () - t0) /. 1e6)
      items
  in
  Printf.printf "%.6f\n" (median ms);
  exit 0

let spawn_read prog args =
  let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok out
  | _ -> Error (prog ^ " failed")

(* Wall time of `loopc run` processes on a fresh (cold) and populated
   (warm) cache directory. *)
let cli_probe ~run_dir =
  let file = Filename.concat run_dir "cli.loop" in
  let oc = open_out file in
  output_string oc (Progs.kernel (rng 5) ~scale:0.1 "matmul").text;
  close_out oc;
  let out =
    Unix.openfile (Filename.concat run_dir "cli.out") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  for k = 1 to 5 do
    let xdg = Filename.concat run_dir (Printf.sprintf "cli%d" k) in
    List.iter
      (fun phase ->
        op ("loopc/" ^ phase) (fun () ->
            let env = Array.append [| "XDG_CACHE_HOME=" ^ xdg |] (Unix.environment ()) in
            let t0 = now () in
            let pid =
              Unix.create_process_env !loopc [| !loopc; "run"; file |] env Unix.stdin out
                Unix.stderr
            in
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 ->
                add ("cli.process_ms." ^ phase) (float_of_int (now () - t0) /. 1e6);
                Ok ()
            | _ -> Error "loopc run failed"))
      [ "cold"; "warm" ]
  done;
  Unix.close out

(* ---------- output ---------- *)

let metric_json (name, v, unit) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
    unit

let summary_line ?(low = false) name unit =
  let l = get name in
  match l with
  | [] -> ()
  | _ ->
      Printf.printf "  %-28s %smedian %.4f %s%s, n=%d\n" name
        (if low then Printf.sprintf "p10 %.4f, " (quantile l 0.1) else "")
        (median l) unit
        (match high_pct l with Some (lbl, v) -> Printf.sprintf ", %s %.4f" lbl v | None -> "")
        (List.length l)

let finish metrics =
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.eprintf "metric %s has no value\n" n) bad;
  let correct = !failed = 0 && bad = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed
    (String.concat ", " (List.map metric_json metrics))

(* ---------- reports ---------- *)

let us_of ns = float_of_int ns /. 1e3
let span_us name = median (List.map (fun s -> us_of (Spans.duration s)) (Spans.named name))
let sample_row ?(of_ = fun n -> n) name unit = (name, median (get (of_ name)), unit)

let e2e_metrics items =
  [
    ("setup_s", median (get "setup_s"), "s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("ns_per_iter_1d", panel_ns items [ Bc1 ], "ns");
    ("ns_per_iter_2d", panel_ns items [ Bc2_block; Bc2_gss ], "ns");
    ("native_ns_per_iter_1d", panel_ns items [ Nat1 ], "ns");
    sample_row "cold_job_us" "us";
    sample_row "warm_job_us" "us";
  ]

let print_e2e_summary items rounds =
  Printf.printf "rounds %d; over rounds, host-corrected then raw (2-domain entries gate on p10):\n"
    rounds;
  List.iter
    (fun (n, u) ->
      summary_line n u;
      summary_line ("raw." ^ n) u)
    [ ("setup_s", "s"); ("cold_job_us", "us"); ("warm_job_us", "us") ];
  summary_line "host.ref_ms" "ms";
  summary_line "host.ref_pair_ms" "ms";
  List.iter
    (fun cfg ->
      List.iter
        (fun it -> summary_line ~low:(domains_of cfg = 2) (exec_key it cfg) "ns/iter")
        items)
    configs;
  Printf.printf "  2-domain scalar disagreement with Eval: %d/%d runs\n" !mismatch_runs
    !scalar_runs

(* Exact per-kernel counts: tape dispatches per iteration, from one
   profiled run, and instructions after each optimizer pass. *)
let count_rows kernel_items =
  let instrs = Hashtbl.create 8 in
  let count pass n =
    Hashtbl.replace instrs pass (n + Option.value ~default:0 (Hashtbl.find_opt instrs pass))
  in
  let dispatches =
    List.map
      (fun (it : item) ->
        let col = Profile.create () in
        ignore (Exec.run_compiled ~engine:Exec.Bytecode ~profile:col it.compiled);
        let s = Profile.summarize col in
        ignore
          (Compile.compile
             ~tape_dump:(fun ~plan:_ ~pass t -> count pass (Bytecode.n_instrs t))
             (Parser.parse_program it.prog.text));
        ( "bytecode.dispatches_per_iter." ^ it.prog.name,
          float_of_int s.Profile.sm_dispatches /. float_of_int (max 1 it.prog.iters),
          "count/iter" ))
      kernel_items
  in
  let instr_rows =
    List.map
      (fun p ->
        ( "compile.tape_instrs." ^ p,
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt instrs p)),
          "count" ))
      Runtime.Tapeopt.pass_names
  in
  (dispatches, instr_rows)

(* Measured 2-domain speedup over the cost model's prediction, geomean
   over the form's shapes. *)
let model_ratio shapes =
  geomean
    (List.map
       (fun (it : item) ->
         let measured = entry_ns it Bc1 /. entry_ns it Bc2_block in
         let ast = Parser.parse_program it.prog.text in
         let cost p =
           Search.cost ~ctx:(Search.default_ctx ~policy:Policy.Static_block ~p ()) ast
         in
         measured /. (cost 1 /. cost 2))
       shapes)

(* Self time per layer over the traced run, and the median cold job
   taken apart into its children plus the remainder. *)
let print_self_times self =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = s.Spans.name in
      Hashtbl.replace by_name k (self s + Option.value ~default:0 (Hashtbl.find_opt by_name k)))
    !Spans.recorded;
  Printf.printf "self time per layer (ms, whole traced run):\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (k, v) -> Printf.printf "  %-22s %10.3f\n" k (float_of_int v /. 1e6));
  let by_duration a b = compare (Spans.duration a) (Spans.duration b) in
  match List.sort by_duration (Spans.named "job.cold") with
  | [] -> ()
  | l ->
      let j = List.nth l (List.length l / 2) in
      Printf.printf "median cold job: %.1f us =" (us_of (Spans.duration j));
      List.iter
        (fun c -> Printf.printf " %s %.1f +" c.Spans.name (us_of (Spans.duration c)))
        (List.rev (Spans.children j));
      Printf.printf " remainder %.1f us\n" (us_of (self j))

let layer_metrics ~items ~entries ~cold_prep ~pc0 ~fb0 ~gc0 =
  let items_of group = List.filter (fun (it : item) -> it.prog.group = group) items in
  let kernel_items =
    List.filter (fun (it : item) -> List.mem it.prog.group Progs.kernel_names) items
  in
  let dispatches, instr_rows = count_rows kernel_items in
  let self = Spans.self_times () in
  print_self_times self;
  let remainder =
    median
      (List.map
         (fun s -> float_of_int (self s) /. float_of_int (max 1 (Spans.duration s)))
         (Spans.named "job.cold" @ Spans.named "job.warm"))
  in
  let overhead =
    geomean
      (List.map
         (fun (it, cfg) ->
           median (get (exec_key it cfg ^ ".traced")) /. median (get (exec_key it cfg)))
         entries)
    -. 1.
  in
  let hits = fst (Counters.plan_cache_stats ()) - fst pc0 in
  let misses = snd (Counters.plan_cache_stats ()) - snd pc0 in
  let fj = get "pool.fork_join_us" in
  [
    ("ir.parse_us", span_us "ir.parse", "us");
    ("ir.validate_us", span_us "ir.validate", "us");
    ("verify.check_us", span_us "verify.check", "us");
    ("search.run_us", span_us "search.run", "us");
    sample_row "search.candidates" "count";
    sample_row "search.pruned" "count";
    ("search.replay_us", span_us "search.replay", "us");
    ("compile.cold_us", span_us "compile.cold", "us");
  ]
  @ List.map (fun p -> sample_row ("compile.pass_us." ^ p) "us") Runtime.Tapeopt.pass_names
  @ instr_rows
  @ [
      ("tapecheck.entry_us", span_us "tapecheck.entry", "us");
      ("plancache.find_disk_us", span_us "plancache.find_disk", "us");
      ("plancache.store_us", span_us "plancache.store", "us");
      ("plancache.hit_share", float_of_int hits /. float_of_int (max 1 (hits + misses)), "ratio");
      ("natgen.prepare_cold_ms", median cold_prep, "ms");
      sample_row "natgen.prepare_warm_ms" "ms";
      ("natgen.fallbacks", float_of_int (Registry.value c_fallbacks - fb0), "count");
    ]
  @ List.concat_map
      (fun (it : item) ->
        List.map
          (fun cfg ->
            ( Printf.sprintf "exec.ns_per_iter.%s.%s" it.prog.name (config_name cfg),
              entry_ns it cfg,
              "ns" ))
          configs)
      kernel_items
  @ List.concat_map
      (fun form ->
        List.map
          (fun cfg ->
            ( Printf.sprintf "exec.ns_per_iter.%s.%s" form (config_name cfg),
              panel_ns (items_of form) [ cfg ],
              "ns" ))
          [ Bc1; Bc2_block; Bc2_gss ])
      Progs.form_names
  @ dispatches
  @ [
      ("pool.fork_join_us.p50", quantile fj 0.5, "us");
      ("pool.fork_join_us.p99", quantile fj 0.99, "us");
      sample_row "sched.static_block_us" "us";
      sample_row "sched.gss_seq_us" "us";
    ]
  @ List.concat_map
      (fun (pname, _) ->
        List.map
          (fun (s, u) -> sample_row (Printf.sprintf "fork.%s.%s" pname s) u)
          [
            ("first_chunk_us", "us");
            ("join_tail_us", "us");
            ("imbalance", "ratio");
            ("chunks", "count");
          ])
      policies
  @ List.map
      (fun f -> ("model.speedup_ratio." ^ f, model_ratio (items_of f), "ratio"))
      Progs.form_names
  @ List.map
      (fun (it : item) ->
        sample_row
          ~of_:(fun _ -> "gc." ^ it.prog.name)
          ("gc.minor_words_per_iter." ^ it.prog.name)
          "words/iter")
      kernel_items
  @ [
      ( "gc.major_collections",
        float_of_int ((Gc.quick_stat ()).Gc.major_collections - gc0),
        "count" );
      ( "exec.scalar_mismatch_share",
        float_of_int !mismatch_runs /. float_of_int (max 1 !scalar_runs),
        "ratio" );
      sample_row "cli.process_ms.cold" "ms";
      sample_row "cli.process_ms.warm" "ms";
      sample_row "host.ref_ms" "ms";
      ("trace.overhead", overhead, "ratio");
      ("trace.job_remainder_share", remainder, "ratio");
    ]

(* ---------- main ---------- *)

let () =
  if !natwarm_dir <> "" then natwarm_child ();
  let t_start = now () in
  let run_dir = Printf.sprintf ".bench_run/%s-%d-%d" !workload !seed (Unix.getpid ()) in
  rm_rf run_dir;
  let nat_dir = Filename.concat run_dir "native" in
  let cache_root = Filename.concat run_dir "jobs" in
  mkdir_p cache_root;
  Printf.printf "host: loadavg %s, nproc %d, ocaml %s, workload %s, seed %d, trace %d\n%!"
    (loadavg ()) (Domain.recommended_domain_count ()) Sys.ocaml_version !workload !seed !traced;
  let is_traced = !traced = 1 in
  (* The traced run always covers both execution panels, so every
     per-layer row exists whichever job stream the workload names. *)
  let progs = if is_traced then kernels_panel () @ forms_panel () else own_panel () in
  Spans.on := is_traced;
  let items, pool, cold_prep = setup ~nat_dir progs in
  let entries = List.concat_map (fun it -> List.map (fun c -> (it, c)) configs) items in
  let ring = Array.of_list entries in
  let gen = job_stream () in
  let form_ns =
    List.filter_map
      (fun (it : item) -> if it.prog.group = "coalesced" then Some it.prog.iters else None)
      items
  in
  let matmul = List.find_opt (fun (it : item) -> it.prog.name = "matmul") items in
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let pc0 = Counters.plan_cache_stats () in
  let fb0 = Registry.value c_fallbacks in
  (* Traced runs keep the last 15% of the time for the post-loop probes. *)
  let budget_ns = !seconds * 1_000_000_000 in
  let loop_end = t_start + if is_traced then budget_ns * 17 / 20 else budget_ns in
  let round = ref 0 in
  while now () < loop_end || !round = 0 do
    refresh_host pool;
    let n = Array.length ring in
    for k = 0 to n - 1 do
      let it, cfg = ring.((k + !round) mod n) in
      (* Traced copies alternate before and after the plain run. *)
      let traced_first = (k + !round) mod 2 = 0 in
      if is_traced && traced_first then run_entry ~traced_copy:true pool it cfg;
      Spans.on := false;
      run_entry pool it cfg;
      Spans.on := is_traced;
      if is_traced && not traced_first then run_entry ~traced_copy:true pool it cfg
    done;
    run_jobs ~cache_root ~gen;
    if is_traced then begin
      Option.iter (fork_probe pool) matmul;
      pool_probe pool;
      sched_probe form_ns
    end;
    incr round
  done;
  let metrics =
    if not is_traced then begin
      print_e2e_summary items !round;
      e2e_metrics items
    end
    else begin
      op "natgen/warm-process" (fun () ->
          let args =
            [ "--natwarm-child"; nat_dir; "--workload"; !workload; "--seed"; string_of_int !seed ]
            @ if !tiny then [ "--tiny" ] else []
          in
          Result.map
            (fun out -> add "natgen.prepare_warm_ms" (float_of_string (String.trim out)))
            (spawn_read Sys.executable_name args));
      if !loopc <> "" then cli_probe ~run_dir;
      let m = layer_metrics ~items ~entries ~cold_prep ~pc0 ~fb0 ~gc0 in
      mkdir_p ".bench_out";
      Spans.write (Printf.sprintf ".bench_out/spans-%s-%d.json" !workload !seed);
      m
    end
  in
  Pool.shutdown pool;
  rm_rf run_dir;
  finish metrics

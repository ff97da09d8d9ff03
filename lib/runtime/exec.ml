(* Parallel executor for compiled programs.

   A {!Compile.plan} is one coalesced iteration space [1..N] (the product
   of the flattened nest's trip counts). This module runs plans either
   sequentially or across OCaml 5 domains under the paper's scheduling
   policies, reusing the chunk formulas of [lib/sched] as live
   dispatchers:

   - [Static_block] / [Static_cyclic]: ownership in closed form from
     [Static.iter_chunks] (one block, or a stride-p progression), no
     scan over the space and no synchronization after the fork;
   - [Self_sched c]: one [Atomic.fetch_and_add] on the coalesced index
     per dispatch — the paper's "single synchronized access to the shared
     loop index" claim, executed for real;
   - [Gss] / [Factoring] / [Trapezoid]: the chunk-size sequences from
     [Gss.chunk_sizes] etc., served from an atomic chunk queue.

   Within a chunk, the multi-index is recovered once by div/mod and then
   advanced with the O(1) odometer step of [Index_recovery]'s incremental
   strategy — no per-iteration division.

   Per-domain state: each domain gets a private copy of the scalar store
   (arrays are shared; DOALL iterations write disjoint elements by
   assumption of the [Parallel] annotation). After the join, recognized
   reductions are merged in domain order from their identity-initialized
   partials; scalars the body assigns on only some paths are adopted
   from their last writer by the clones' last-writer stamps
   ([Compile.stamp]); the remaining scalars, written in every iteration,
   are adopted from the domain that executed the highest coalesced
   iteration. Both rules give the sequential last-write value whatever
   the schedule. *)

module Policy = Loopcoal_sched.Policy
module Static = Loopcoal_sched.Static
module Chunks = Loopcoal_sched.Chunks
module Reduction = Loopcoal_analysis.Reduction
module Trace = Loopcoal_obs.Trace
module Registry = Loopcoal_obs.Registry
open Loopcoal_ir
open Compile

let c_runs = Registry.counter "exec.runs"
let h_run_ns = Registry.histogram "exec.run_ns"

let error fmt = Printf.ksprintf (fun s -> raise (Compile.Error s)) fmt

(* ---------- plan geometry ---------- *)

type space = {
  sizes : int array;  (** per-level trip counts *)
  los : int array;
  his : int array;
  step0 : int;  (** outermost step *)
  total : int;
}

let space_of (plan : plan) env =
  let depth = plan.depth in
  let los = Array.map (fun f -> f env) plan.lo_x in
  let his = Array.map (fun f -> f env) plan.hi_x in
  let step0 = plan.step_x env in
  if step0 <= 0 then
    error "loop %s: step must be positive" plan.index_names.(0);
  let sizes =
    Array.init depth (fun k ->
        if k = 0 then max 0 ((his.(0) - los.(0) + step0) / step0)
        else max 0 (his.(k) - los.(k) + 1))
  in
  let total = Array.fold_left ( * ) 1 sizes in
  { sizes; los; his; step0; total }

(* Set the nest indexes for coalesced iteration [t] (1-based): one round
   of div/mod, used once per chunk. *)
let set_cursor (plan : plan) sp env t =
  let rem = ref (t - 1) in
  for k = plan.depth - 1 downto 1 do
    env.ints.(plan.index_slots.(k)) <- sp.los.(k) + (!rem mod sp.sizes.(k));
    rem := !rem / sp.sizes.(k)
  done;
  env.ints.(plan.index_slots.(0)) <- sp.los.(0) + (!rem * sp.step0)

(* Odometer advance: increment the innermost index, carry outward on
   overflow. O(1) amortized; no division. *)
let advance (plan : plan) sp env =
  let rec bump k =
    if k = 0 then
      env.ints.(plan.index_slots.(0)) <-
        env.ints.(plan.index_slots.(0)) + sp.step0
    else begin
      let v = env.ints.(plan.index_slots.(k)) + 1 in
      if v > sp.his.(k) then begin
        env.ints.(plan.index_slots.(k)) <- sp.los.(k);
        bump (k - 1)
      end
      else env.ints.(plan.index_slots.(k)) <- v
    end
  in
  bump (plan.depth - 1)

(* Run the contiguous chunk [t0 .. t0+len-1] of the coalesced space. The
   environment's [iter_id] tracks the running coalesced iteration so
   sanitizer-instrumented bodies can attribute their accesses. *)
let run_chunk (plan : plan) sp env t0 len =
  if len > 0 then begin
    set_cursor plan sp env t0;
    env.iter_id <- t0;
    plan.body env;
    for k = 2 to len do
      advance plan sp env;
      env.iter_id <- t0 + k - 1;
      plan.body env
    done
  end

(* ---------- engines ---------- *)

type engine = Closure | Bytecode | Native

let c_native_fallbacks = Registry.counter "native.fallbacks"

(* Bytecode chunk runner: decompose the chunk into maximal runs over the
   innermost coalesced digit (see [Bytecode.strip_bounds]) and execute
   each run as one strip — outer indexes set once by div/mod, the inner
   index advanced by a constant increment on the tape. Chunk boundaries
   are exactly those of the closure engine, so traces and metrics are
   unchanged. *)
let run_chunk_bytecode (plan : plan) sp env tape prep inv t0 len =
  if len > 0 then begin
    let depth = plan.depth in
    let inner = sp.sizes.(depth - 1) in
    let jslot = plan.index_slots.(depth - 1) in
    let jlo = sp.los.(depth - 1) in
    let jstep = if depth = 1 then sp.step0 else 1 in
    let shadow = if Bytecode.sanitized tape then env.shadow else None in
    let tlast = t0 + len - 1 in
    let t = ref t0 in
    try
      while !t <= tlast do
        let pos = (!t - 1) mod inner in
        let slen = min (tlast - !t + 1) (inner - pos) in
        if depth > 1 then set_cursor plan sp env !t;
        env.iter_id <- !t;
        Bytecode.exec_strip tape prep ~ints:env.ints ~reals:env.reals
          ~arrays:env.arrays ~shadow ~inv ~jslot
          ~j0:(jlo + (pos * jstep))
          ~jstep ~len:slen ~iter0:!t;
        t := !t + slen
      done
    with Bytecode.Error m -> raise (Compile.Error m)
  end

(* Twin of [run_chunk_bytecode] on the profiled interpreter. The clock
   brackets the whole chunk (two reads per chunk, not per strip), so
   [pf_ns] is wall time inside strip execution including the per-strip
   cursor/bounds setup. *)
let run_chunk_bytecode_prof (plan : plan) sp env tape prep inv pf t0 len =
  if len > 0 then begin
    let depth = plan.depth in
    let inner = sp.sizes.(depth - 1) in
    let jslot = plan.index_slots.(depth - 1) in
    let jlo = sp.los.(depth - 1) in
    let jstep = if depth = 1 then sp.step0 else 1 in
    let shadow = if Bytecode.sanitized tape then env.shadow else None in
    let tlast = t0 + len - 1 in
    let t = ref t0 in
    let clk0 = Trace.now () in
    (try
       while !t <= tlast do
         let pos = (!t - 1) mod inner in
         let slen = min (tlast - !t + 1) (inner - pos) in
         if depth > 1 then set_cursor plan sp env !t;
         env.iter_id <- !t;
         Bytecode.exec_strip_profiled tape prep ~profile:pf ~ints:env.ints
           ~reals:env.reals ~arrays:env.arrays ~shadow ~inv ~jslot
           ~j0:(jlo + (pos * jstep))
           ~jstep ~len:slen ~iter0:!t;
         t := !t + slen
       done
     with Bytecode.Error m -> raise (Compile.Error m));
    pf.Bytecode.pf_ns <- pf.Bytecode.pf_ns + (Trace.now () - clk0)
  end

(* Per-fork bytecode preparation: the checked-vs-unsafe decision is made
   once against the fork's whole iteration space, so it is valid for
   every chunk any domain will dispatch. *)
let bytecode_prep (plan : plan) sp env =
  match plan.tape with
  | Some tape when sp.total > 0 ->
      let hi =
        Array.init plan.depth (fun k ->
            if k = 0 then sp.los.(0) + ((sp.sizes.(0) - 1) * sp.step0)
            else sp.his.(k))
      in
      Some (tape, Bytecode.prepare tape ~ints:env.ints ~lo:sp.los ~hi)
  | _ -> None

(* Native chunk runner: the same strip decomposition (and therefore the
   same chunk boundaries, trace events and sanitizer cursor updates) as
   [run_chunk_bytecode], but each strip runs the plan's Dynlink-loaded
   machine-code runner instead of the tape interpreter. Generated code
   raises [Failure] with interpreter-identical messages. *)
let run_chunk_native (plan : plan) sp env nr t0 len =
  if len > 0 then begin
    let depth = plan.depth in
    let inner = sp.sizes.(depth - 1) in
    let jlo = sp.los.(depth - 1) in
    let jstep = if depth = 1 then sp.step0 else 1 in
    let tlast = t0 + len - 1 in
    let t = ref t0 in
    try
      while !t <= tlast do
        let pos = (!t - 1) mod inner in
        let slen = min (tlast - !t + 1) (inner - pos) in
        if depth > 1 then set_cursor plan sp env !t;
        env.iter_id <- !t;
        nr env.ints env.reals env.arrays (jlo + (pos * jstep)) jstep slen;
        t := !t + slen
      done
    with
    | Bytecode.Error m | Failure m -> raise (Compile.Error m)
  end

(* Per-fork engine decision, on top of [bytecode_prep]: the native
   engine uses a plan's runner only when the runner exists, profiling is
   off (the profiler attributes per-opcode dispatches, which native code
   does not perform) and every access proved in bounds for this fork —
   generated code only has the unsafe path. Anything else falls back to
   the bytecode tier for this fork, counted under [native.fallbacks]. *)
let fork_prep ?profile engine (plan : plan) sp env =
  match engine with
  | Closure -> None
  | Bytecode -> (
      match bytecode_prep plan sp env with
      | None -> None
      | Some (tape, pr) -> Some (tape, pr, None))
  | Native -> (
      match bytecode_prep plan sp env with
      | None ->
          if sp.total > 0 then Registry.incr c_native_fallbacks;
          None
      | Some (tape, pr) ->
          let nr =
            match (plan.native, profile) with
            | Some nr, None
              when Array.for_all Fun.id (Bytecode.unsafe_flags pr) ->
                Some nr
            | _ ->
                Registry.incr c_native_fallbacks;
                None
          in
          Some (tape, pr, nr))

(* Bind the chunk runner for one (engine, plan, env): tape dispatch when
   the bytecode engine is selected and the plan lowered, closure
   dispatch otherwise. The invariant-offset scratch is per-binding, so
   every domain hoists into its own. Like the trace probe, the
   profiled-vs-plain decision is made here, once per binding: with
   profiling off the executed closure is exactly the pre-profiler one. *)
let chunk_runner ?profile (plan : plan) sp prep env : int -> int -> unit =
  match prep with
  | Some (_, _, Some nr) -> fun t0 len -> run_chunk_native plan sp env nr t0 len
  | Some (tape, pr, None) -> (
      let inv = Bytecode.make_scratch tape in
      match profile with
      | None -> fun t0 len -> run_chunk_bytecode plan sp env tape pr inv t0 len
      | Some pc ->
          let pf = Profile.slot pc tape in
          fun t0 len ->
            run_chunk_bytecode_prof plan sp env tape pr inv pf t0 len)
  | None -> fun t0 len -> run_chunk plan sp env t0 len

(* A new fork is a new sanitizer epoch: conflicts are only races between
   iterations of the {e same} fork. Called from the forking thread,
   before any domain starts. *)
let new_epoch env =
  match env.shadow with Some sh -> Sanitize.new_epoch sh | None -> ()

(* ---------- sequential execution ---------- *)

let rec seq_fork_e engine ?profile (plan : plan) env =
  let saved_fork = env.fork in
  env.fork <- seq_fork_e engine ?profile;
  new_epoch env;
  let sp = space_of plan env in
  let prep = fork_prep ?profile engine plan sp env in
  let run = chunk_runner ?profile plan sp prep env in
  run 1 sp.total;
  env.iter_id <- 0;
  env.fork <- saved_fork

let seq_fork plan env = seq_fork_e Bytecode plan env

(* Traced sequential fork: the whole space is one chunk on worker 0,
   recorded as a static block (which it literally is). Nested parallel
   loops inside the region run — and are timed — within this chunk, so
   only the outermost fork hook traces. *)
let seq_fork_traced_e engine ?profile tracer (plan : plan) env =
  let saved_fork = env.fork in
  env.fork <- seq_fork_e engine ?profile;
  new_epoch env;
  let sp = space_of plan env in
  let prep = fork_prep ?profile engine plan sp env in
  let run = chunk_runner ?profile plan sp prep env in
  Trace.fork_begin tracer ~policy:Policy.Static_block ~n:sp.total ~p:1;
  let a = Trace.now () in
  run 1 sp.total;
  let b = Trace.now () in
  if sp.total > 0 then
    Trace.record tracer ~worker:0 ~start:1 ~len:sp.total ~t0:a ~t1:b;
  Trace.fork_end tracer;
  env.iter_id <- 0;
  env.fork <- saved_fork

(* ---------- reduction merge ---------- *)

let identity_of (r : red) =
  match r.r_op with Reduction.Sum -> 0.0 | Reduction.Product -> 1.0

let reset_partials (plan : plan) env =
  Array.iter
    (fun r ->
      if r.r_real then env.reals.(r.r_slot) <- identity_of r
      else
        env.ints.(r.r_slot) <-
          (match r.r_op with Reduction.Sum -> 0 | Reduction.Product -> 1))
    plan.reductions

let merge_reductions (plan : plan) master clones =
  Array.iter
    (fun r ->
      if r.r_real then begin
        let acc = ref master.reals.(r.r_slot) in
        Array.iter
          (fun c ->
            let partial = c.reals.(r.r_slot) in
            acc :=
              (match r.r_op with
              | Reduction.Sum -> !acc +. partial
              | Reduction.Product -> !acc *. partial))
          clones;
        master.reals.(r.r_slot) <- !acc
      end
      else begin
        let acc = ref master.ints.(r.r_slot) in
        Array.iter
          (fun c ->
            let partial = c.ints.(r.r_slot) in
            acc :=
              (match r.r_op with
              | Reduction.Sum -> !acc + partial
              | Reduction.Product -> !acc * partial))
          clones;
        master.ints.(r.r_slot) <- !acc
      end)
    plan.reductions

(* Scalars the body may leave unwritten come from their last writer:
   the clone whose stamp (the nest indexes of its last assignment) is
   lexicographically highest. A clone that never wrote one holds the
   pre-fork value, as does [master] after the wholesale adoption when
   no clone wrote it. *)
let adopt_stamped (plan : plan) master clones =
  Array.iter
    (fun st ->
      let later a b =
        let rec go k =
          k < Array.length st.st_at
          &&
          let x = a.ints.(st.st_at.(k)) and y = b.ints.(st.st_at.(k)) in
          x > y || (x = y && go (k + 1))
        in
        go 0
      in
      let best = ref None in
      Array.iter
        (fun c ->
          if c.ints.(st.st_at.(0)) <> min_int then
            match !best with
            | Some b when not (later c b) -> ()
            | _ -> best := Some c)
        clones;
      match !best with
      | None -> ()
      | Some c ->
          if st.st_real then master.reals.(st.st_slot) <- c.reals.(st.st_slot)
          else master.ints.(st.st_slot) <- c.ints.(st.st_slot))
    plan.stamps

(* ---------- parallel execution ---------- *)

let parallel_fork_e engine ?trace ?profile pool policy (plan : plan) master =
  let p = Pool.size pool in
  let sp = space_of plan master in
  let n = sp.total in
  if n = 0 then ()
  else if p = 1 || n = 1 then
    match trace with
    | None -> seq_fork_e engine ?profile plan master
    | Some tracer -> seq_fork_traced_e engine ?profile tracer plan master
  else begin
    (match trace with
    | None -> ()
    | Some tracer -> Trace.fork_begin tracer ~policy ~n ~p);
    new_epoch master;
    (* The unsafe/checked decision is shared (it covers the whole
       space); each domain's runner hoists into private scratch. *)
    let prep = fork_prep ?profile engine plan sp master in
    let clones =
      Array.init p (fun _ ->
          let c = clone_env master in
          c.fork <- seq_fork_e engine ?profile;
          reset_partials plan c;
          Array.iter (fun st -> c.ints.(st.st_at.(0)) <- min_int) plan.stamps;
          c)
    in
    let runners =
      Array.map (fun c -> chunk_runner ?profile plan sp prep c) clones
    in
    let hi_t = Array.make p 0 in
    (* The probe is selected here, once per fork: with tracing off the
       executed closure is exactly the untraced one — no timestamp, no
       branch, no write on the chunk path. *)
    let run_on =
      match trace with
      | None ->
          fun q t0 len ->
            runners.(q) t0 len;
            if t0 + len - 1 > hi_t.(q) then hi_t.(q) <- t0 + len - 1
      | Some tracer ->
          fun q t0 len ->
            let a = Trace.now () in
            runners.(q) t0 len;
            let b = Trace.now () in
            Trace.record tracer ~worker:q ~start:t0 ~len ~t0:a ~t1:b;
            if t0 + len - 1 > hi_t.(q) then hi_t.(q) <- t0 + len - 1
    in
    let worker : int -> unit =
      match (policy : Policy.t) with
      | Static_block | Static_cyclic ->
          (* Closed-form ownership: a block is one run, cyclic a stride-p
             progression of singletons; no shared state. *)
          let sched = Option.get (Static.of_policy policy ~n ~p) in
          fun q -> Static.iter_chunks sched q (run_on q)
      | Self_sched c ->
          (* The paper's self-scheduling: a single shared coalesced index,
             advanced with one atomic fetch-and-add per dispatch. *)
          let next = Atomic.make 1 in
          fun q ->
            let continue_ = ref true in
            while !continue_ do
              let t0 = Atomic.fetch_and_add next c in
              if t0 > n then continue_ := false
              else run_on q t0 (min c (n - t0 + 1))
            done
      | Gss | Factoring | Trapezoid ->
          (* The policy's closed-form chunk sequence (a function of n and
             p only), served from an atomic queue: one fetch-and-add per
             dispatch, chunks in dispatch order. *)
          let chunks = Option.get (Chunks.dynamic_sequence policy ~n ~p) in
          let next = Atomic.make 0 in
          fun q ->
            let continue_ = ref true in
            while !continue_ do
              let k = Atomic.fetch_and_add next 1 in
              if k >= Array.length chunks then continue_ := false
              else begin
                let t0, len = chunks.(k) in
                run_on q t0 len
              end
            done
    in
    (* Save the master's pre-loop reduction values: they are the base of
       the merge and must survive the wholesale scalar adoption below. *)
    let saved_ints =
      Array.map
        (fun r -> if r.r_real then 0 else master.ints.(r.r_slot))
        plan.reductions
    in
    let saved_reals =
      Array.map
        (fun r -> if r.r_real then master.reals.(r.r_slot) else 0.0)
        plan.reductions
    in
    Pool.run pool worker;
    (* Merge: adopt scalars from the domain that ran the highest
       iteration (sequential last-iteration-wins semantics for
       privatized scalars), then fold reduction partials in domain
       order on top of the master's pre-loop value. *)
    let qlast = ref (-1) in
    Array.iteri
      (fun q t -> if t > 0 && (!qlast < 0 || t > hi_t.(!qlast)) then qlast := q)
      hi_t;
    if !qlast >= 0 then begin
      Array.blit clones.(!qlast).ints 0 master.ints 0 (Array.length master.ints);
      Array.blit clones.(!qlast).reals 0 master.reals 0
        (Array.length master.reals)
    end;
    adopt_stamped plan master clones;
    Array.iteri
      (fun k (r : red) ->
        if r.r_real then master.reals.(r.r_slot) <- saved_reals.(k)
        else master.ints.(r.r_slot) <- saved_ints.(k))
      plan.reductions;
    merge_reductions plan master clones;
    (* The traced region closes after the merge: its wall time is the
       full fork-to-usable-result span, so join latency includes the
       barrier wait and the serial reduction fold. *)
    match trace with
    | None -> ()
    | Some tracer -> Trace.fork_end tracer
  end

let parallel_fork ?trace pool policy plan master =
  parallel_fork_e Bytecode ?trace pool policy plan master

(* ---------- whole-program entry points ---------- *)

type outcome = {
  arrays : (string * float array) list;
  scalars : (string * Eval.value) list;
}

let outcome_of t env =
  { arrays = Compile.read_arrays t env; scalars = Compile.read_scalars t env }

let run_compiled ?(array_init = 0.0) ?pool ?(policy = Policy.Static_block)
    ?(domains = 1) ?(engine = Bytecode) ?trace ?profile ?shadow
    (t : Compile.t) =
  if domains < 1 then invalid_arg "Exec.run_compiled: domains must be >= 1";
  (match Policy.validate policy with
  | Ok () -> ()
  | Error m -> invalid_arg ("Exec.run_compiled: " ^ m));
  (* The native engine needs runners attached before the first fork;
     callers that want the artifact-hit report (or a custom cache key)
     call [Natgen.prepare] themselves — this is the catch-all for direct
     [run ~engine:Native] uses, and a no-op once a prepare ran. An
     unavailable toolchain simply leaves every [plan.native] at [None],
     so each fork falls back to the bytecode tier. *)
  (if engine = Native then
     match Compile.native_state t with
     | `Untried -> ignore (Natgen.prepare t : Natgen.status)
     | `Ready | `Unavailable _ -> ());
  let go pool =
    Registry.incr c_runs;
    Registry.time h_run_ns @@ fun () ->
    let fork =
      match (pool, trace) with
      | None, None -> seq_fork_e engine ?profile
      | None, Some tracer -> seq_fork_traced_e engine ?profile tracer
      | Some pool, _ -> parallel_fork_e engine ?trace ?profile pool policy
    in
    let env = Compile.make_env ~array_init ?shadow t ~fork in
    Compile.run_code t env;
    outcome_of t env
  in
  match pool with
  | Some p -> go (if Pool.size p > 1 then Some p else None)
  | None ->
      if domains = 1 then go None
      else Pool.with_pool domains (fun p -> go (Some p))

let run ?array_init ?pool ?policy ?domains ?engine ?trace ?profile ?opt_level
    (p : Loopcoal_ir.Ast.program) =
  run_compiled ?array_init ?pool ?policy ?domains ?engine ?trace ?profile
    (Compile.compile ?opt_level p)

(* Compile with shadow instrumentation, run, and return the observed
   conflicts alongside the outcome. *)
let run_sanitized ?array_init ?pool ?policy ?domains ?engine ?limit ?opt_level
    (p : Loopcoal_ir.Ast.program) =
  let t = Compile.compile ~sanitize:true ?opt_level p in
  let sh = Sanitize.create ?limit (Compile.shadow_layout t) in
  let outcome =
    run_compiled ?array_init ?pool ?policy ?domains ?engine ~shadow:sh t
  in
  (outcome, sh)

(* Differential check against the reference interpreter: arrays must be
   exactly equal; scalar comparison is optional because FP reduction
   partials merged in domain order round differently from the
   sequential sum. *)
let agrees_with_interpreter ?(compare_scalars = false) (outcome : outcome)
    (st : Eval.state) =
  let arrays, scalars = Eval.dump st in
  List.length arrays = List.length outcome.arrays
  && List.for_all2
       (fun (n1, d1) (n2, d2) -> String.equal n1 n2 && d1 = d2)
       arrays outcome.arrays
  && ((not compare_scalars)
     || List.length scalars = List.length outcome.scalars
        && List.for_all2
             (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && v1 = v2)
             scalars outcome.scalars)

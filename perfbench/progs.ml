(* Seeded input programs for the benchmark, with the expected result of
   each and its iteration count.

   Everything here is computed by the benchmark, not by the program under
   test: iteration counts come from the loop bounds, expected arrays from
   the plain-OCaml [Kernels.*_reference] functions or, for generated
   programs, from the reference interpreter [Eval]. *)

open Loopcoal

type expect = {
  arrays : (string * float array) list;  (** must match on every run *)
  tol : float;  (** relative tolerance on [arrays] and [reals]; 0 = exact *)
  reals : (string * float) list;  (** real scalars that must match *)
  eval_scalars : (string * Eval.value) list;
      (** the interpreter's final scalars: exact at 1 domain; at 2
          domains a disagreement is counted, not failed *)
}

type prog = {
  name : string;  (** row name, e.g. ["matmul"] or ["per_loop.2048x8"] *)
  group : string;  (** per-layer row: kernel or form name *)
  text : string;  (** the program as the user submits it *)
  iters : int;  (** leaf-loop body executions, from the bounds *)
  expect : expect;
}

(* ---------- iteration counting ---------- *)

exception Unsupported of string

let rec ieval env (e : Ast.expr) =
  match e with
  | Int n -> n
  | Var v -> (
      match List.assoc_opt v env with
      | Some n -> n
      | None -> raise (Unsupported ("bound uses " ^ v)))
  | Neg a -> -ieval env a
  | Bin (op, a, b) -> (
      let a = ieval env a and b = ieval env b in
      match op with
      | Add -> a + b
      | Sub -> a - b
      | Mul -> a * b
      | Div -> a / b
      | Mod -> a mod b
      | Cdiv -> Intmath.cdiv a b
      | Min -> min a b
      | Max -> max a b)
  | Real _ | Load _ -> raise (Unsupported "non-integer bound")

let rec ceval env (c : Ast.cond) =
  match c with
  | True -> true
  | Cmp (op, a, b) -> (
      let a = ieval env a and b = ieval env b in
      match op with
      | Eq -> a = b
      | Ne -> a <> b
      | Lt -> a < b
      | Le -> a <= b
      | Gt -> a > b
      | Ge -> a >= b)
  | And (a, b) -> ceval env a && ceval env b
  | Or (a, b) -> ceval env a || ceval env b
  | Not a -> not (ceval env a)

let rec has_loop (b : Ast.block) =
  List.exists
    (function
      | Ast.For _ -> true
      | Ast.If (_, t, e) -> has_loop t || has_loop e
      | Ast.Assign _ -> false)
    b

(* Executions of the bodies of leaf loops (loops with no loop inside):
   one per iteration of the original nest, whatever its DOALL marks, so
   the three emissions of a nest share one denominator. Conditions that
   guard loops may only test loop indices and int scalars. *)
let iterations (p : Ast.program) =
  let env0 =
    List.filter_map
      (fun (s : Ast.scalar_decl) ->
        if s.sc_kind = Ast.Kint then Some (s.sc_name, int_of_float s.sc_init)
        else None)
      p.scalars
  in
  let rec block env b = List.fold_left (fun acc s -> acc + stmt env s) 0 b
  and stmt env = function
    | Ast.Assign _ -> 0
    | Ast.If (c, t, e) ->
        if not (has_loop t || has_loop e) then 0
        else if ceval env c then block env t
        else block env e
    | Ast.For l ->
        let lo = ieval env l.lo and hi = ieval env l.hi in
        let st = ieval env l.step in
        if st <= 0 then raise (Unsupported "non-positive step");
        if not (has_loop l.body) then max 0 (((hi - lo) / st) + 1)
        else begin
          let acc = ref 0 and i = ref lo in
          while !i <= hi do
            acc := !acc + block ((l.index, !i) :: env) l.body;
            i := !i + st
          done;
          !acc
        end
  in
  block env0 p.body

(* ---------- expected results ---------- *)

let of_eval (p : Ast.program) =
  let arrays, scalars = Eval.dump (Eval.run ~fuel:max_int p) in
  { arrays; tol = 0.0; reals = []; eval_scalars = scalars }

let make ~name ~group (p : Ast.program) expect =
  { name; group; text = Pretty.program_to_string p; iters = iterations p; expect }

(* ---------- kernels ---------- *)

let kernel_names =
  [
    "matmul";
    "stencil";
    "transpose";
    "cond_stencil";
    "tri_gather";
    "gauss_jordan";
    "relax";
    "pi";
    "histogram";
  ]

(* [base] scaled by a seeded factor in [0.92, 1.08): the seed moves
   sizes, not the mix, so seeds agree on per-iteration costs. *)
let jit rng base =
  max 3 (int_of_float (float_of_int base *. (0.92 +. Random.State.float rng 0.16)))

(* One kernel at a seeded size near [scale] times its base size. Base
   sizes make one bytecode execution at 1 domain take a few ms. *)
let kernel rng ~scale name =
  let sz b = jit rng (max 3 (int_of_float (float_of_int b *. scale))) in
  let expect ?(reals = []) arrays p =
    let ev = of_eval p in
    make ~name ~group:name p
      { arrays; tol = 1e-9; reals; eval_scalars = ev.eval_scalars }
  in
  match name with
  | "matmul" ->
      let n = sz 44 in
      expect
        [ ("C", Kernels.matmul_reference ~ra:n ~ca:n ~cb:n) ]
        (Kernels.matmul ~ra:n ~ca:n ~cb:n)
  | "stencil" ->
      let n = sz 220 in
      expect [ ("B", Kernels.stencil_reference ~n) ] (Kernels.stencil ~n)
  | "transpose" ->
      let n = sz 240 in
      expect [ ("B", Kernels.transpose_reference ~n) ] (Kernels.transpose ~n)
  | "cond_stencil" ->
      let n = sz 40000 in
      expect
        [ ("B", Kernels.cond_stencil_reference ~n) ]
        (Kernels.cond_stencil ~n)
  | "tri_gather" ->
      let n = sz 8000 in
      expect [ ("S", Kernels.tri_gather_reference ~n) ] (Kernels.tri_gather ~n)
  | "gauss_jordan" ->
      let n = sz 36 and m = 8 in
      expect
        [ ("X", Kernels.gauss_jordan_reference ~n ~m) ]
        (Kernels.gauss_jordan ~n ~m)
  | "relax" ->
      let n = sz 4096 and steps = 16 in
      expect [ ("A", Kernels.relax_reference ~n ~steps) ] (Kernels.relax ~n ~steps)
  | "pi" ->
      let intervals = sz 40000 in
      expect
        ~reals:[ ("pi_val", Kernels.calculate_pi_reference ~intervals) ]
        [] (Kernels.calculate_pi ~intervals)
  | "histogram" ->
      let n = sz 50000 and buckets = 17 in
      expect
        [ ("H", Kernels.histogram_reference ~n ~buckets) ]
        (Kernels.histogram ~n ~buckets)
  | _ -> invalid_arg ("unknown kernel " ^ name)

(* ---------- nest forms ---------- *)

(* The same rectangular nest emitted three ways by its DOALL marks:
   coalesced (every loop DOALL: one fork over the flattened space),
   outer_only (DOALL outer loop, serial inner loops: one fork, no index
   recovery), per_loop (serial outer loops, DOALL innermost loop: one
   fork per outer iteration). *)
let form_names = [ "coalesced"; "outer_only"; "per_loop" ]

let nest_text ?uid ~form dims =
  let depth = List.length dims in
  let idx = List.init depth (fun k -> Printf.sprintf "i%d" (k + 1)) in
  let marks =
    List.init depth (fun k ->
        match form with
        | "coalesced" -> "doall"
        | "outer_only" -> if k = 0 then "doall" else "do"
        | "per_loop" -> if k = depth - 1 then "doall" else "do"
        | f -> invalid_arg ("unknown form " ^ f))
  in
  let subs = String.concat ", " idx in
  (* A row-major rank of the element, so a misplaced write shows. *)
  let rank =
    List.fold_left2
      (fun acc i d -> if acc = "" then i else Printf.sprintf "(%s) * %d + %s" acc d i)
      "" idx dims
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "program\n";
  Option.iter (fun u -> Printf.bprintf b "  int uid = %d\n" u) uid;
  Printf.bprintf b "  real A[%s]\nbegin\n"
    (String.concat ", " (List.map string_of_int dims));
  List.iteri
    (fun k (m, (i, d)) ->
      Printf.bprintf b "%s%s %s = 1, %d\n" (String.make (2 * (k + 1)) ' ') m i d)
    (List.combine marks (List.combine idx dims));
  Printf.bprintf b "%sA[%s] = A[%s] * 0.5 + (%s)\n"
    (String.make (2 * (depth + 1)) ' ')
    subs subs rank;
  for k = depth downto 1 do
    Printf.bprintf b "%send\n" (String.make (2 * k) ' ')
  done;
  Buffer.add_string b "end\n";
  Buffer.contents b

(* Shape classes from outer-heavy to inner-heavy; the seed moves each
   non-8 extent by up to 8%, never the class mix. *)
let shape_classes =
  [ [ 1024; 8 ]; [ 128; 128 ]; [ 8; 2048 ]; [ 128; 8; 8 ]; [ 24; 24; 24 ]; [ 8; 64; 64 ] ]

let shape rng ~scale cls =
  List.map
    (fun d ->
      if d <= 8 then d else jit rng (max 9 (int_of_float (float_of_int d *. scale))))
    cls

let dims_name dims = String.concat "x" (List.map string_of_int dims)

let of_text ~name ~group text =
  let p = Parser.parse_program text in
  { name; group; text; iters = iterations p; expect = of_eval p }

let form_prog ?uid ~form dims =
  of_text
    ~name:(form ^ "." ^ dims_name dims)
    ~group:form (nest_text ?uid ~form dims)

(* ---------- job streams ---------- *)

(* Tags a text with a fresh unused int scalar so every submission is new
   to the plan cache. *)
let tag uid text =
  match String.index_opt text '\n' with
  | Some i ->
      String.sub text 0 (i + 1)
      ^ Printf.sprintf "  int uid = %d\n" uid
      ^ String.sub text (i + 1) (String.length text - i - 1)
  | None -> text

(* Job programs cycle through fixed classes ([k] picks the class) with
   seeded sizes, so every seed submits the same mix. *)
let tiny_kernel ?(scale = 0.01) rng ~k uid =
  let name = List.nth kernel_names (k mod List.length kernel_names) in
  let p = kernel rng ~scale name in
  { p with text = tag uid p.text }

let tiny_nest rng ~k uid =
  let depth = 2 + (k / 3 mod 2) in
  let dims = List.init depth (fun _ -> 2 + Random.State.int rng 5) in
  form_prog ~uid ~form:(List.nth form_names (k mod 3)) dims

let example_files () =
  let dir = "examples/programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".loop")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         let s = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (Filename.chop_suffix f ".loop", s))

let example ~k examples uid =
  let name, text = List.nth examples (k mod List.length examples) in
  of_text ~name ~group:"example" (tag uid text)

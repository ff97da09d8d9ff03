type kind = Block | Cyclic
type t = { n : int; p : int; kind : kind; proc_of : int -> int }

let check ~n ~p =
  if n < 0 then invalid_arg "Static: n must be >= 0";
  if p < 1 then invalid_arg "Static: p must be >= 1"

(* Balanced blocks: with n = b*p + r, processor q owns the b + [q < r]
   iterations starting at q*b + min q r + 1. *)
let block_of ~n ~p q =
  let b = n / p and r = n mod p in
  ((q * b) + min q r + 1, b + if q < r then 1 else 0)

let block ~n ~p =
  check ~n ~p;
  let b = n / p and r = n mod p in
  let proc_of j =
    if j < 1 || j > n then invalid_arg "Static.proc_of: out of range";
    let j0 = j - 1 in
    let big = r * (b + 1) in
    if j0 < big then j0 / (b + 1) else r + ((j0 - big) / max b 1)
  in
  { n; p; kind = Block; proc_of }

let cyclic ~n ~p =
  check ~n ~p;
  let proc_of j =
    if j < 1 || j > n then invalid_arg "Static.proc_of: out of range";
    (j - 1) mod p
  in
  { n; p; kind = Cyclic; proc_of }

let of_policy policy ~n ~p =
  match (policy : Policy.t) with
  | Static_block -> Some (block ~n ~p)
  | Static_cyclic -> Some (cyclic ~n ~p)
  | Self_sched _ | Gss | Factoring | Trapezoid -> None

(* The one closed-form enumeration every consumer goes through: a block
   is a single run; cyclic ownership is a stride-p progression, whose
   maximal runs are singletons unless p = 1. *)
let iter_chunks t q f =
  match t.kind with
  | Block ->
      let start, len = block_of ~n:t.n ~p:t.p q in
      if len > 0 then f start len
  | Cyclic ->
      if t.p = 1 then (if q = 0 && t.n > 0 then f 1 t.n)
      else begin
        let j = ref (q + 1) in
        while !j <= t.n do
          f !j 1;
          j := !j + t.p
        done
      end

let chunks_of t q =
  let runs = ref [] in
  iter_chunks t q (fun start len -> runs := (start, len) :: !runs);
  List.rev !runs

let iterations_of t q =
  List.concat_map (fun (start, len) -> List.init len (( + ) start)) (chunks_of t q)

let counts t =
  Array.init t.p (fun q ->
      match t.kind with
      | Block -> snd (block_of ~n:t.n ~p:t.p q)
      | Cyclic -> if q < t.n then ((t.n - q - 1) / t.p) + 1 else 0)

let is_partition t =
  let ok = ref true in
  for j = 1 to t.n do
    let q = t.proc_of j in
    if q < 0 || q >= t.p then ok := false
  done;
  (* proc_of is a function, so "exactly one owner" is structural; the
     range check is the real content. *)
  !ok

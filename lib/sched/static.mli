(** Static partitions of a 1-D iteration space [1..n] over [p] processors. *)

type kind = Block | Cyclic

type t = {
  n : int;
  p : int;
  kind : kind;
  proc_of : int -> int;  (** iteration (1-based) -> processor (0-based) *)
}

val block : n:int -> p:int -> t
(** Balanced contiguous blocks: the first [n mod p] processors get
    [⌈n/p⌉] iterations, the rest [⌊n/p⌋]. Every processor's share is
    contiguous. Requires [n >= 0], [p >= 1]. *)

val cyclic : n:int -> p:int -> t
(** Iteration [j] on processor [(j-1) mod p]. *)

val of_policy : Policy.t -> n:int -> p:int -> t option
(** [None] for dynamic policies. *)

val block_of : n:int -> p:int -> int -> int * int
(** [block_of ~n ~p q] is processor [q]'s block as [(start, len)] in
    closed form: with [n = b*p + r], the block starts at
    [q*b + min q r + 1] and has [b + (1 if q < r else 0)] iterations
    ([len = 0] when [q >= n]). *)

val iter_chunks : t -> int -> (int -> int -> unit) -> unit
(** [iter_chunks t q f] calls [f start len] on each of processor [q]'s
    maximal contiguous runs, in ascending order, in O(runs) time — the
    one enumeration the executor and the event simulator share. *)

val iterations_of : t -> int -> int list
(** The (ascending) iterations owned by a processor. *)

val counts : t -> int array
(** Iterations per processor. *)

val chunks_of : t -> int -> (int * int) list
(** The processor's iterations as maximal contiguous [(start, len)] runs —
    a block partition yields one run, a cyclic one [counts] runs. *)

val is_partition : t -> bool
(** Every iteration is owned by exactly one in-range processor — the
    property tests' soundness check. *)

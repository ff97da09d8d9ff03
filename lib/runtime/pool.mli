(** Fork-join pool over OCaml 5 domains.

    A pool of size [p] owns [p - 1] spawned worker domains; the caller of
    {!run} participates as worker [0], so a parallel region occupies
    exactly [p] domains. Workers persist across {!run} calls, which keeps
    the per-region cost to one fork-join — the one the paper's coalesced
    loops are scheduled with.

    Both sides of the barrier spin, then park. An idle worker polls for
    the next job for a few tens of microseconds before it sleeps on a
    condition variable, and the caller polls the join counter the same
    way. A fork that finds its workers still spinning costs two atomic
    updates and no system call; the mutex and condition variables are
    touched only when a side has parked. The spin length is fixed, not a
    parameter. *)

type t

val create : int -> t
(** [create p] spawns [p - 1] workers. Raises [Invalid_argument] for
    [p < 1]. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f q] for every worker id [q] in [0 .. size-1]
    concurrently and returns when all have finished. If any worker
    raises, the exception of the lowest worker id is re-raised after the
    join (all workers still complete). *)

val shutdown : t -> unit
(** Terminate and join the worker domains. The pool must not be used
    afterwards. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool p f] runs [f] with a fresh pool and always shuts it down. *)

(* A small fork-join pool over OCaml 5 domains.

   The pool spawns [size - 1] worker domains once; the calling domain
   itself acts as worker 0, so a pool of size p uses exactly p domains.
   [run] publishes one job (a function of the worker id), participates,
   and waits for all workers — one fork-join, which is precisely the
   synchronization shape the coalescing transformation reduces a nest to.

   Both sides of the barrier spin, then park. A worker that finished a
   job polls the generation counter with [Domain.cpu_relax] for up to
   [spin_ns] of monotonic time, then sleeps on [cond_job]; the master
   polls [remaining] the same way, then sleeps on [cond_done]. Back-to-back
   forks therefore cost two atomic updates and no system call, while an
   idle pool sleeps after a few tens of microseconds.

   No wake-up is lost. Waking is skipped only when nobody is parked, and
   the two sides use the Dekker pattern on OCaml's sequentially
   consistent atomics. A sleeper first publishes itself (increments
   [sleepers], or sets [master_parked]) and then, holding the mutex,
   re-checks its condition. The waker first updates the condition
   ([generation], [remaining], [stop]) and then reads the sleeper flag.
   In any interleaving one of them sees the other's write: either the
   sleeper finds the condition already true and does not wait, or the
   waker sees the flag, takes the mutex — which the sleeper holds until
   [Condition.wait] releases it — and signals a waiter that is already
   queued. *)

module Registry = Loopcoal_obs.Registry
module Trace = Loopcoal_obs.Trace

(* One observation per fork-join, covering publish -> all workers done.
   Size-1 pools run inline and are counted too: the histogram then shows
   the pure job cost, which is the useful baseline. *)
let c_forks = Registry.counter "pool.forks"
let h_fork_join_ns = Registry.histogram "pool.fork_join_ns"

(* How long either side busy-waits before parking. It must exceed the
   host's wake-up latency (a parked domain took 24 µs median, 29 µs p90
   from publish to running on a 2-vCPU x86-64 VM): with a shorter spin,
   a fork that wakes a parked side makes the other side park too while
   it waits, and every later fork pays two wake-ups. It must also stay
   short enough that an idle worker leaves its core within tens of µs. *)
let spin_ns = 50_000

type t = {
  size : int;
  mutex : Mutex.t;
  cond_job : Condition.t;
  cond_done : Condition.t;
  mutable job : int -> unit;
      (** written before [generation] is bumped, read after it is seen *)
  generation : int Atomic.t;
  remaining : int Atomic.t;  (** workers (other than 0) still running *)
  stop : bool Atomic.t;
  sleepers : int Atomic.t;  (** workers parked on [cond_job] *)
  master_parked : bool Atomic.t;  (** the caller is parked on [cond_done] *)
  errors : exn option array;
  mutable workers : unit Domain.t list;
}

let size t = t.size

(* Busy-wait until [ready ()] or [spin_ns] elapsed; true when ready.
   [Domain.cpu_relax] both eases the core and polls for stop-the-world
   requests, so a spinner never holds up another domain's minor GC. *)
let spin ready =
  if ready () then true
  else begin
    let deadline = Trace.now () + spin_ns in
    let rec go k =
      if ready () then true
      else if k land 15 = 0 && Trace.now () > deadline then false
      else begin
        Domain.cpu_relax ();
        go (k + 1)
      end
    in
    go 1
  end

let worker_loop t q =
  let seen = ref 0 in
  let ready () = Atomic.get t.generation <> !seen || Atomic.get t.stop in
  let continue_ = ref true in
  while !continue_ do
    if not (spin ready) then begin
      Mutex.lock t.mutex;
      Atomic.incr t.sleepers;
      while not (ready ()) do
        Condition.wait t.cond_job t.mutex
      done;
      Atomic.decr t.sleepers;
      Mutex.unlock t.mutex
    end;
    if Atomic.get t.stop then continue_ := false
    else begin
      seen := Atomic.get t.generation;
      let err = match t.job q with () -> None | exception e -> Some e in
      t.errors.(q) <- err;
      if Atomic.fetch_and_add t.remaining (-1) = 1
         && Atomic.get t.master_parked
      then begin
        Mutex.lock t.mutex;
        Condition.signal t.cond_done;
        Mutex.unlock t.mutex
      end
    end
  done

let create size =
  if size < 1 then invalid_arg "Pool.create: size must be >= 1";
  let t =
    {
      size;
      mutex = Mutex.create ();
      cond_job = Condition.create ();
      cond_done = Condition.create ();
      job = ignore;
      generation = Atomic.make 0;
      remaining = Atomic.make 0;
      stop = Atomic.make false;
      sleepers = Atomic.make 0;
      master_parked = Atomic.make false;
      errors = Array.make size None;
      workers = [];
    }
  in
  t.workers <-
    List.init (size - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let run t f =
  Registry.incr c_forks;
  Registry.time h_fork_join_ns @@ fun () ->
  if t.size = 1 then f 0
  else begin
    Array.fill t.errors 0 t.size None;
    t.job <- f;
    Atomic.set t.remaining (t.size - 1);
    Atomic.incr t.generation;
    if Atomic.get t.sleepers > 0 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.cond_job;
      Mutex.unlock t.mutex
    end;
    (* The caller is worker 0. *)
    (match f 0 with () -> () | exception e -> t.errors.(0) <- Some e);
    let joined () = Atomic.get t.remaining = 0 in
    if not (spin joined) then begin
      Mutex.lock t.mutex;
      Atomic.set t.master_parked true;
      while not (joined ()) do
        Condition.wait t.cond_done t.mutex
      done;
      Atomic.set t.master_parked false;
      Mutex.unlock t.mutex
    end;
    t.job <- ignore;
    (* Re-raise the lowest-id failure for determinism. *)
    Array.iter (function Some e -> raise e | None -> ()) t.errors
  end

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.mutex;
  Condition.broadcast t.cond_job;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool size f =
  let t = create size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

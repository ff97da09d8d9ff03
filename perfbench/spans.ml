(* Spans recorded by the benchmark around its calls into each layer.

   Off by default: [with_] then just calls its argument. When on, spans
   are kept in memory (name, start, end, parent) and written out once at
   exit, so recording costs two clock reads and one allocation. *)

type span = { name : string; id : int; parent : int; t0 : int; mutable t1 : int }

let on = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let now = Loopcoal.Trace.now

let with_ name f =
  if not !on then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> 0 in
    incr next_id;
    let s = { name; id = !next_id; parent; t0 = now (); t1 = 0 } in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

let duration s = s.t1 - s.t0

(* Self time: the span's duration minus the part its children cover
   (children never overlap: the benchmark is single-threaded). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  fun s -> duration s - Option.value ~default:0 (Hashtbl.find_opt child s.id)

let children s = List.filter (fun c -> c.parent = s.id) !recorded

let named name = List.filter (fun s -> s.name = name) !recorded

(* Chrome trace_event JSON ("X" events, microseconds). *)
let write file =
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}\n"
        (if i = 0 then "" else ",")
        s.name
        (float_of_int s.t0 /. 1e3)
        (float_of_int (duration s) /. 1e3)
        s.id s.parent)
    (List.rev !recorded);
  output_string oc "]}\n";
  close_out oc

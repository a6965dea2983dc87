(* In-memory span and counter recorder for the traced run.

   The benchmark wraps its own calls into the library's public functions
   in [span]; nothing inside lib/ is instrumented. Spans stay in memory
   until the run ends. A span recorded in a forked scheduler worker is
   shipped back with the task result ([in_worker]) and re-parented under
   the parent-side span that dispatched it ([adopt]). When recording is
   off, [span] is a direct call. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;
  stop : float;
}

type state = {
  mutable enabled : bool;
  mutable next : int;
  mutable stack : int list;
  mutable spans : span list;
  counters : (string, float) Hashtbl.t;
}

let st =
  { enabled = false; next = 0; stack = []; spans = []; counters = Hashtbl.create 32 }

let reset ~enabled =
  st.enabled <- enabled;
  st.next <- 0;
  st.stack <- [];
  st.spans <- [];
  Hashtbl.reset st.counters

let set_enabled b = st.enabled <- b

let fresh_id () =
  let id = st.next in
  st.next <- id + 1;
  id

let current () = match st.stack with p :: _ -> p | [] -> -1

(* A span whose times were taken by the caller, under the current one. *)
let add ~name ~start ~stop =
  if st.enabled then begin
    let parent = current () in
    st.spans <- { id = fresh_id (); parent; name; start; stop } :: st.spans
  end

let span name f =
  if not st.enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    st.stack <- id :: st.stack;
    let start = Unix.gettimeofday () in
    let close () =
      st.stack <- List.tl st.stack;
      st.spans <-
        { id; parent; name; start; stop = Unix.gettimeofday () } :: st.spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let count name v =
  if st.enabled then
    Hashtbl.replace st.counters name
      (v +. Option.value (Hashtbl.find_opt st.counters name) ~default:0.)

let counter name = Option.value (Hashtbl.find_opt st.counters name) ~default:0.

type shipped = span list * (string * float) list

(* Run [f] in a forked worker with a fresh recorder (the fork copied the
   parent's state) and return what it recorded alongside its value. *)
let in_worker f : 'a * shipped =
  let enabled = st.enabled in
  reset ~enabled;
  let v = f () in
  let counters = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.counters [] in
  (v, (st.spans, counters))

(* Merge a worker's spans under [parent], renumbering ids into this
   recorder's id space, and add its counters. *)
let adopt ~parent ((spans, counters) : shipped) =
  if st.enabled then begin
    let ids = Hashtbl.create (List.length spans) in
    List.iter (fun s -> Hashtbl.replace ids s.id (fresh_id ())) spans;
    List.iter
      (fun s ->
        let parent =
          if s.parent < 0 then parent else Hashtbl.find ids s.parent
        in
        st.spans <- { s with id = Hashtbl.find ids s.id; parent } :: st.spans)
      spans;
    List.iter (fun (k, v) -> count k v) counters
  end

let spans () = st.spans

(* Length of the union of [intervals] clipped to [lo, hi]. Children of a
   scheduler span run in parallel workers, so they may overlap. *)
let covered ~lo ~hi intervals =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = Float.max a lo and b = Float.min b hi in
           if b > a then Some (a, b) else None)
         intervals)
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total +. (cb -. ca), (a, b))
        else (total, (ca, Float.max cb b)))
      (0., (lo, lo))
      sorted
  in
  total +. (snd last -. fst last)

(* Self time of every span: its duration minus the part of it that its
   children cover. Returns [(name, self_s)] per span. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s.name, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Summed self time of every span whose name satisfies [pred]. *)
let self_s spans pred =
  List.fold_left
    (fun acc (name, self) -> if pred name then acc +. self else acc)
    0. (self_times spans)

(* Summed duration of every span whose name satisfies [pred]. *)
let total_s spans pred =
  List.fold_left
    (fun acc s -> if pred s.name then acc +. (s.stop -. s.start) else acc)
    0. spans

let to_json spans =
  let open Obs.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("name", String s.name);
             ("start", Float s.start);
             ("stop", Float s.stop);
           ])
       spans)

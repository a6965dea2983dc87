(* Dynamic work distribution over forked workers.

   [Pool] is the one worker runtime: a set of forked workers, each
   owning a task pipe and a result pipe that carry framed [Marshal]
   payloads, multiplexed by the parent with [Unix.select]. A dead
   worker shows as EOF (or a short read) where a frame was expected.

   The maps run on a [Pool] forked per call. A pool task is one
   *frame*, the item indices to run as an [int list]: workers are forks
   of this executable, so the item array and the task closure are
   already in the child's address space. A fast worker that finishes
   its frame immediately receives the next pending one, so skewed task
   durations never idle the pool. [map] dispatches singleton frames in
   input order (plain FIFO stealing); [map_adaptive_stats] plans frames
   from per-task weight estimates — heaviest first, tiny tasks
   coalesced — via [plan_frames]. The parent writes results into a slot
   array keyed by item index, so the returned list is in input order no
   matter which worker finished first or how tasks were batched into
   frames — downstream output stays byte-identical at any [jobs]. *)

type stats = {
  jobs : int;
  tasks : int;
  frames : int;  (* task-pipe handouts: = tasks unless coalescing *)
  wall_s : float;
  busy_s : float;  (* sum over workers of in-task execution time *)
  max_worker_busy_s : float;
}

let idle_fraction s =
  if s.jobs <= 0 || s.wall_s <= 0. then 0.
  else Float.max 0. (1. -. (s.busy_s /. (float_of_int s.jobs *. s.wall_s)))

let fork_available = not Sys.win32

let default_label i _item = Printf.sprintf "task %d" i

let core_count () = try Domain.recommended_domain_count () with _ -> 1

let jobs_of_string s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | Some n -> Error (Printf.sprintf "%d is not a positive worker count" n)
  | None -> Error (Printf.sprintf "%S is not an integer" s)

let default_jobs () =
  match Sys.getenv_opt "JRPM_JOBS" with
  | None -> core_count ()
  | Some s -> (
      match jobs_of_string s with
      | Ok n -> n
      | Error _ ->
          (* an invalid override must not silently change the worker
             count — behave as if unset, but say so *)
          Printf.eprintf
            "jrpm: ignoring invalid JRPM_JOBS=%S (expected a positive \
             integer); using the core count\n%!"
            s;
          core_count ())

(* ---------------- adaptive frame planning ---------------- *)

(* Pure and deterministic: the same weights always yield the same
   frames, so the dispatch order never threatens output byte-identity
   (results are slotted by index regardless).

   Policy: with [total] the clamped weight sum, the coalesce target is
   [total / (jobs * frames_per_worker)] — enough frames per worker that
   the dynamic queue can still rebalance. Items are taken heaviest
   first (LPT dispatch order; ties by ascending index). An item at or
   above the target becomes a singleton frame — the split threshold: a
   giant record never shares a frame and is dispatched before anything
   lighter, so it cannot land last and serialize the tail. Lighter
   items accumulate into one frame until it reaches the target, turning
   a long run of tiny records into a single handout. *)
let plan_frames ~jobs ?(frames_per_worker = 4) weights =
  let n = Array.length weights in
  if n = 0 then []
  else begin
    let jobs = max 1 jobs and fpw = max 1 frames_per_worker in
    let w i = Float.max 0. weights.(i) in
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. w i
    done;
    let target = !total /. float_of_int (jobs * fpw) in
    let order =
      List.stable_sort
        (fun i j -> if w i <> w j then compare (w j) (w i) else compare i j)
        (List.init n Fun.id)
    in
    let frames = ref [] in
    let cur = ref [] in
    let cur_w = ref 0. in
    let seal () =
      if !cur <> [] then begin
        frames := List.rev !cur :: !frames;
        cur := [];
        cur_w := 0.
      end
    in
    List.iter
      (fun i ->
        cur := i :: !cur;
        cur_w := !cur_w +. w i;
        if !cur_w >= target then seal ())
      order;
    seal ();
    List.rev !frames
  end

(* ---------------- framed messages over raw fds ---------------- *)

let rec restart_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_eintr f

let write_all fd bytes =
  let len = Bytes.length bytes in
  let pos = ref 0 in
  while !pos < len do
    let n = restart_eintr (fun () -> Unix.write fd bytes !pos (len - !pos)) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
    pos := !pos + n
  done

type 'a read_outcome = Complete of 'a | Eof | Truncated

(* [Eof] only at a frame boundary (byte 0); anything in between is
   [Truncated] — a worker that died mid-write. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let pos = ref 0 in
  let eof = ref false in
  while (not !eof) && !pos < n do
    let k = restart_eintr (fun () -> Unix.read fd buf !pos (n - !pos)) in
    if k = 0 then eof := true else pos := !pos + k
  done;
  if !pos = n then Complete buf else if !pos = 0 then Eof else Truncated

let write_u64 fd v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  write_all fd b

let read_u64 fd =
  match read_exact fd 8 with
  | Complete b -> Complete (Int64.to_int (Bytes.get_int64_le b 0))
  | Eof -> Eof
  | Truncated -> Truncated

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let sequential ~frames f items =
  let t0 = Unix.gettimeofday () in
  let busy = ref 0. in
  let results =
    List.mapi
      (fun i x ->
        let s0 = Unix.gettimeofday () in
        let r = f i x in
        busy := !busy +. (Unix.gettimeofday () -. s0);
        r)
      items
  in
  let wall = Unix.gettimeofday () -. t0 in
  ( results,
    {
      jobs = 1;
      tasks = List.length items;
      frames;
      wall_s = wall;
      busy_s = !busy;
      max_worker_busy_s = !busy;
    } )

(* [Unix.WSIGNALED] carries OCaml's internal signal numbers (SIGKILL is
   -7), which make for baffling error messages; name the common ones *)
let signal_name sg =
  let names =
    [
      (Sys.sigabrt, "SIGABRT"); (Sys.sigbus, "SIGBUS"); (Sys.sigfpe, "SIGFPE");
      (Sys.sigill, "SIGILL"); (Sys.sigint, "SIGINT"); (Sys.sigkill, "SIGKILL");
      (Sys.sigpipe, "SIGPIPE"); (Sys.sigsegv, "SIGSEGV");
      (Sys.sigterm, "SIGTERM"); (Sys.sigquit, "SIGQUIT");
    ]
  in
  match List.assoc_opt sg names with
  | Some name -> name
  | None -> string_of_int sg

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED sg -> Printf.sprintf "was killed by %s" (signal_name sg)
  | Unix.WSTOPPED sg -> Printf.sprintf "was stopped by %s" (signal_name sg)

(* ---------------- persistent pool ---------------- *)

(* The one forked-worker runtime. Tasks cross the task pipe as framed
   [Marshal] payloads; one task per worker in flight, and completing a
   task immediately pulls the next queued one. A resident server keeps
   one pool alive across requests so it pays the fork cost once; the
   maps below fork one per call. *)
module Pool = struct
  type 'res completion = {
    ticket : int;
    label : string;
    elapsed_s : float;
    outcome : ('res, string) result;
  }

  type worker = {
    mutable pid : int;
    mutable task_wfd : Unix.file_descr;
    mutable result_rfd : Unix.file_descr;
    mutable current : (int * string) option;  (* in-flight ticket *)
  }

  type ('task, 'res) t = {
    run : 'task -> 'res;
    pjobs : int;
    child_cleanup : unit -> unit;
    mutable pws : worker list;
    pqueue : (int * string * 'task) Queue.t;
    mutable next_ticket : int;
    mutable done_rev : 'res completion list;  (* undelivered, newest first *)
    mutable pdeaths : int;
    mutable pdown : bool;
    inline : bool;  (* no fork on this platform: run tasks at submit *)
  }

  (* Worker loop: read one framed Marshal'd task, run it, write one
     framed Marshal'd [(elapsed_s, Ok res | Error msg)]. EOF on the
     task pipe — the parent closed it, or died and the kernel closed
     it — is the shutdown signal, even if it arrives mid-frame. *)
  let serve_tasks run task_rfd result_wfd =
    let rec loop () =
      match read_u64 task_rfd with
      | Eof | Truncated -> Unix._exit 0
      | Complete len ->
          if len <= 0 || len > 1 lsl 30 then Unix._exit 2;
          let task =
            match read_exact task_rfd len with
            | Complete payload -> (Marshal.from_bytes payload 0 : _)
            | Eof | Truncated -> Unix._exit 2
          in
          let t0 = Unix.gettimeofday () in
          let outcome =
            try Ok (run task) with e -> Error (Printexc.to_string e)
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          let payload =
            Marshal.to_bytes
              ((elapsed, outcome) : float * (_, string) result)
              [ Marshal.Closures ]
          in
          write_u64 result_wfd (Bytes.length payload);
          write_all result_wfd payload;
          loop ()
    in
    (try loop () with _ -> ());
    Unix._exit 2

  (* Fork one worker. The child keeps only its own task-read /
     result-write ends; every other worker's parent-side fd — and
     whatever the embedding server registered via [child_cleanup]
     (listening sockets, client connections) — is closed so that the
     parent's death closes the last copy of each task pipe's write end
     and blocked workers see EOF instead of lingering forever.
     [others] excludes a worker being replaced: its parent-side fds
     are already closed and their numbers may have been reused by the
     new pipes. *)
  let spawn ~run ~child_cleanup ~others =
    let task_rfd, task_wfd = Unix.pipe ~cloexec:false () in
    let result_rfd, result_wfd = Unix.pipe ~cloexec:false () in
    match Unix.fork () with
    | 0 ->
        Unix.close task_wfd;
        Unix.close result_rfd;
        List.iter
          (fun w ->
            close_quietly w.task_wfd;
            close_quietly w.result_rfd)
          others;
        (try child_cleanup () with _ -> ());
        serve_tasks run task_rfd result_wfd
    | pid ->
        Unix.close task_rfd;
        Unix.close result_wfd;
        { pid; task_wfd; result_rfd; current = None }

  let create ?(jobs = 1) ?(child_cleanup = fun () -> ()) run =
    let jobs = max 1 jobs in
    let inline = (not fork_available) || jobs < 1 in
    let t =
      {
        run;
        pjobs = jobs;
        child_cleanup;
        pws = [];
        pqueue = Queue.create ();
        next_ticket = 0;
        done_rev = [];
        pdeaths = 0;
        pdown = false;
        inline;
      }
    in
    if not inline then
      for _ = 1 to jobs do
        t.pws <- t.pws @ [ spawn ~run ~child_cleanup ~others:t.pws ]
      done;
    t

  let jobs t = t.pjobs
  let worker_pids t = List.map (fun w -> w.pid) t.pws

  let busy_pids t =
    List.filter_map
      (fun w -> if w.current <> None then Some w.pid else None)
      t.pws

  let queued t = Queue.length t.pqueue
  let in_flight t = List.length (List.filter (fun w -> w.current <> None) t.pws)
  let pending t = queued t + in_flight t
  let deaths t = t.pdeaths
  let result_fds t = List.map (fun w -> w.result_rfd) t.pws

  (* A dead worker: complete its in-flight ticket as an [Error] naming
     the wait status, then fork a replacement in place — the pool keeps
     serving and only the affected request sees the failure. *)
  let reap_describe pid =
    match restart_eintr (fun () -> Unix.waitpid [] pid) with
    | _, st -> describe_status st
    | exception Unix.Unix_error _ -> "vanished"

  let handle_death t w =
    t.pdeaths <- t.pdeaths + 1;
    close_quietly w.task_wfd;
    close_quietly w.result_rfd;
    let status = reap_describe w.pid in
    (match w.current with
    | Some (ticket, label) ->
        w.current <- None;
        t.done_rev <-
          {
            ticket;
            label;
            elapsed_s = 0.;
            outcome =
              Error (Printf.sprintf "worker running %s %s" label status);
          }
          :: t.done_rev
    | None -> ());
    if not t.pdown then begin
      let fresh =
        spawn ~run:t.run ~child_cleanup:t.child_cleanup
          ~others:(List.filter (fun o -> o != w) t.pws)
      in
      w.pid <- fresh.pid;
      w.task_wfd <- fresh.task_wfd;
      w.result_rfd <- fresh.result_rfd;
      w.current <- None
    end

  let send_task t w (ticket, label, task) =
    let payload = Marshal.to_bytes task [ Marshal.Closures ] in
    match
      write_u64 w.task_wfd (Bytes.length payload);
      write_all w.task_wfd payload
    with
    | () -> w.current <- Some (ticket, label)
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
        (* the worker died before reading this handout: it never ran,
           so requeue at the front and let the replacement take it *)
        let q = Queue.create () in
        Queue.push (ticket, label, task) q;
        Queue.transfer t.pqueue q;
        Queue.transfer q t.pqueue;
        handle_death t w

  let rec dispatch t =
    if not (Queue.is_empty t.pqueue) then
      match List.find_opt (fun w -> w.current = None) t.pws with
      | None -> ()
      | Some w ->
          send_task t w (Queue.pop t.pqueue);
          dispatch t

  let submit ?(label = "task") t task =
    if t.pdown then invalid_arg "Jrpm.Scheduler.Pool.submit: pool is shut down";
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    if t.inline then begin
      let t0 = Unix.gettimeofday () in
      let outcome =
        try Ok (t.run task) with e -> Error (Printexc.to_string e)
      in
      t.done_rev <-
        { ticket; label; elapsed_s = Unix.gettimeofday () -. t0; outcome }
        :: t.done_rev
    end
    else begin
      Queue.push (ticket, label, task) t.pqueue;
      dispatch t
    end;
    ticket

  (* One readable result fd: a framed result, or EOF/garbage meaning
     the worker died. Either way the worker becomes free and the queue
     is re-dispatched. *)
  let receive t w =
    (match read_u64 w.result_rfd with
    | Eof | Truncated -> handle_death t w
    | Complete len when len < 0 || len > 1 lsl 30 -> handle_death t w
    | Complete len -> (
        match read_exact w.result_rfd len with
        | Eof | Truncated -> handle_death t w
        | Complete payload -> (
            let elapsed_s, outcome =
              (Marshal.from_bytes payload 0 : float * (_, string) result)
            in
            match w.current with
            | None -> ()  (* spurious frame from a worker we reset *)
            | Some (ticket, label) ->
                w.current <- None;
                t.done_rev <-
                  { ticket; label; elapsed_s; outcome } :: t.done_rev)));
    dispatch t

  let drain_fd t fd =
    match List.find_opt (fun w -> w.result_rfd = fd) t.pws with
    | Some w -> receive t w
    | None -> ()

  let take_completions t =
    let out = List.rev t.done_rev in
    t.done_rev <- [];
    out

  let poll ?(timeout_s = 0.) t =
    if not t.inline then begin
      dispatch t;
      match List.filter (fun w -> w.current <> None) t.pws with
      | [] -> ()
      | busy ->
          let fds = List.map (fun w -> w.result_rfd) busy in
          let ready, _, _ =
            restart_eintr (fun () -> Unix.select fds [] [] timeout_s)
          in
          List.iter (drain_fd t) ready
    end;
    take_completions t

  let rec wait t =
    match take_completions t with
    | _ :: _ as out -> out
    | [] -> (
        if pending t = 0 then []
        else
          match poll ~timeout_s:(-1.) t with
          | _ :: _ as out -> out
          | [] -> wait t)

  let drain t =
    let acc = ref (take_completions t) in
    while pending t > 0 do
      acc := !acc @ poll ~timeout_s:(-1.) t
    done;
    !acc

  let shutdown t =
    if not t.pdown then begin
      t.pdown <- true;
      List.iter
        (fun w ->
          close_quietly w.task_wfd;
          close_quietly w.result_rfd)
        t.pws;
      List.iter (fun w -> ignore (reap_describe w.pid : string)) t.pws;
      t.pws <- []
    end
end

(* ---------------- maps over a per-call pool ---------------- *)

(* A worker that dies between our send and its read must not kill the
   parent with SIGPIPE; the pool handles EPIPE at the write site. *)
let with_sigpipe_ignored f =
  let old =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter (Sys.set_signal Sys.sigpipe) old)
    f

(* Feed [frames] to a pool of [jobs] workers, one frame per worker in
   flight. A frame's result is the worker's pid plus one [Ok | Error]
   per index, so an error inside a coalesced frame names its own task;
   a worker death completes the frame's ticket as an [Error] naming the
   frame. After the first failure nothing more is submitted: the
   in-flight frames drain, the pool is shut down, and the failures are
   raised together. *)
let map_frames ~jobs ~label ~frames f items =
  let n = List.length items in
  let nframes = List.length frames in
  (* never more workers than frames: an extra worker could only idle *)
  let jobs = max 1 (min jobs nframes) in
  if jobs <= 1 || (not fork_available) || n <= 1 then
    sequential ~frames:nframes f items
  else
    with_sigpipe_ignored (fun () ->
        let arr = Array.of_list items in
        let t0 = Unix.gettimeofday () in
        let run frame =
          ( Unix.getpid (),
            List.map
              (fun i ->
                (i, try Ok (f i arr.(i)) with e -> Error (Printexc.to_string e)))
              frame )
        in
        let frame_label = function
          | [] -> "empty frame"
          | [ i ] -> label i arr.(i)
          | i :: rest ->
              Printf.sprintf "%s (+%d more in its frame)" (label i arr.(i))
                (List.length rest)
        in
        let results = Array.make n None in
        let busy_by_pid = Hashtbl.create jobs in
        let failures = ref [] (* newest first *) in
        let todo = ref frames in
        let pool = Pool.create ~jobs run in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let submit_next () =
              match !todo with
              | fr :: rest when !failures = [] ->
                  todo := rest;
                  ignore (Pool.submit ~label:(frame_label fr) pool fr : int)
              | _ -> ()
            in
            for _ = 1 to jobs do
              submit_next ()
            done;
            let rec collect () =
              match Pool.wait pool with
              | [] -> ()
              | completions ->
                  List.iter
                    (fun (c : _ Pool.completion) ->
                      (match c.Pool.outcome with
                      | Error death -> failures := death :: !failures
                      | Ok (pid, frame_results) ->
                          let prev =
                            Option.value ~default:0.
                              (Hashtbl.find_opt busy_by_pid pid)
                          in
                          Hashtbl.replace busy_by_pid pid
                            (prev +. c.Pool.elapsed_s);
                          List.iter
                            (fun (i, r) ->
                              match r with
                              | Ok v -> results.(i) <- Some v
                              | Error msg ->
                                  failures :=
                                    (label i arr.(i) ^ ": " ^ msg) :: !failures)
                            frame_results);
                      submit_next ())
                    completions;
                  collect ()
            in
            collect ());
        let wall = Unix.gettimeofday () -. t0 in
        if !failures <> [] then
          failwith
            ("Jrpm.Scheduler: " ^ String.concat "; " (List.rev !failures));
        (* the frames partition the indices, so with no failure every
           slot is filled *)
        let out = List.map Option.get (Array.to_list results) in
        let busy = Hashtbl.fold (fun _ b acc -> b :: acc) busy_by_pid [] in
        ( out,
          {
            jobs;
            tasks = n;
            frames = nframes;
            wall_s = wall;
            busy_s = List.fold_left ( +. ) 0. busy;
            max_worker_busy_s = List.fold_left Float.max 0. busy;
          } ))

let map_stats ?(jobs = 1) ?(label = default_label) f items =
  let frames = List.init (List.length items) (fun i -> [ i ]) in
  map_frames ~jobs ~label ~frames f items

let map ?jobs ?label f items = fst (map_stats ?jobs ?label f items)

let map_adaptive_stats ?(jobs = 1) ?(label = default_label) ?frames_per_worker
    ~weights f items =
  let warr = Array.of_list (List.mapi weights items) in
  let frames =
    plan_frames
      ~jobs:(max 1 (min jobs (Array.length warr)))
      ?frames_per_worker warr
  in
  map_frames ~jobs ~label ~frames f items

let map_adaptive ?jobs ?label ?frames_per_worker ~weights f items =
  fst (map_adaptive_stats ?jobs ?label ?frames_per_worker ~weights f items)

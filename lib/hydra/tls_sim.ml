open Ir

type spec_stats = {
  threads_committed : int;
  violations : int;
  overflow_stalls : int;
  forwarded_loads : int;
  loops_entered : int;
  spec_cycles : int;
  sync_stalls : int;
      (** loads delayed by learned synchronization (with [~sync:true]) *)
}

type result = {
  cycles : int;
  output : Value.t list;
  memory : Machine.Memory.t;
  stats : spec_stats;
}

exception Out_of_fuel = Machine.Out_of_fuel

type status =
  | Running
  | Stalled                     (* buffer overflow; resumes as head *)
  | Waiting_addr of int         (* learned sync: wait for a producer store *)
  | Iter_done                   (* reached Tls_iter_end; awaiting commit *)
  | Exit_taken of int           (* reached Tls_exit; pc to resume after *)
  | Trapped of string           (* speculative trap; fatal only as head *)

(* Int-keyed open-addressing table for a CPU's speculative state (word
   addresses, cache-line numbers). A slot is occupied iff its stamp
   equals the table's generation, so [reset] is O(1) and no key value
   is reserved as an "empty" marker. [order] lists the occupied slots in
   insertion order, which is the order [commit] flushes them in. The
   slot count is a power of two kept at most half full, so probes
   always reach an empty slot; nothing allocates except [grow]. *)
module Flat = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    mutable stamps : int array;
    mutable order : int array; (* occupied slots, oldest first *)
    mutable mask : int;
    mutable len : int;
    mutable gen : int;
    dummy : 'a;
  }

  let make n dummy =
    {
      keys = Array.make n 0;
      vals = Array.make n dummy;
      stamps = Array.make n 0;
      order = Array.make (n / 2) 0;
      mask = n - 1;
      len = 0;
      gen = 1;
      dummy;
    }

  let create dummy = make 32 dummy
  let length t = t.len

  let reset t =
    t.gen <- t.gen + 1;
    t.len <- 0

  let home t k =
    let h = (k lxor (k lsr 33)) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land t.mask

  (* the slot holding [k], or [-1 - e] for the empty slot [e] it would
     go in *)
  let rec probe t k i =
    if t.stamps.(i) <> t.gen then -1 - i
    else if t.keys.(i) = k then i
    else probe t k ((i + 1) land t.mask)

  let find t k = probe t k (home t k)
  let mem t k = find t k >= 0
  let value t i = t.vals.(i)

  let place t e k v =
    t.keys.(e) <- k;
    t.vals.(e) <- v;
    t.stamps.(e) <- t.gen;
    t.order.(t.len) <- e;
    t.len <- t.len + 1

  let grow t =
    let keys = t.keys and vals = t.vals and order = t.order and len = t.len in
    let n = 2 * (t.mask + 1) in
    t.keys <- Array.make n 0;
    t.vals <- Array.make n t.dummy;
    t.stamps <- Array.make n 0;
    t.order <- Array.make (n / 2) 0;
    t.mask <- n - 1;
    t.gen <- 1;
    t.len <- 0;
    for j = 0 to len - 1 do
      let i = order.(j) in
      place t (-1 - find t keys.(i)) keys.(i) vals.(i)
    done

  (* insert [k -> v], or overwrite [k]'s value in place *)
  let replace t k v =
    let i = find t k in
    if i >= 0 then t.vals.(i) <- v
    else if 2 * (t.len + 1) <= t.mask + 1 then place t (-1 - i) k v
    else begin
      grow t;
      place t (-1 - find t k) k v
    end

  let iter f t =
    for j = 0 to t.len - 1 do
      let i = t.order.(j) in
      f t.keys.(i) t.vals.(i)
    done
end

(* One CPU of the speculative machine. The record, its buffers and its
   seed frame are created once per loop activation and reused by every
   thread the CPU runs; [live] is false while the CPU is free. *)
type cpu = {
  mutable live : bool;
  mutable rank : int;
  mutable pc : int;
  mutable frames : Machine.frame list; (* non-empty; head = current *)
  mutable ready_at : int;
  mutable status : status;
  base : Machine.frame; (* the seed frame, always last in [frames] *)
  base_only : Machine.frame list; (* [ base ] *)
  write_buf : Value.t Flat.t;
  read_set : int Flat.t; (* word addr -> PC of the reading load *)
  read_lines : unit Flat.t;
  write_lines : unit Flat.t;
  mutable pending_output : Value.t list; (* reversed *)
  mutable nested : int; (* dynamic re-entries of the same STL (recursion) *)
  mutable stalled_once : bool;
}

type mstats = {
  mutable m_committed : int;
  mutable m_violations : int;
  mutable m_stalls : int;
  mutable m_forwards : int;
  mutable m_loops : int;
  mutable m_spec_cycles : int;
  mutable m_sync_stalls : int;
}

let run ?(config = Config.default) ?(fuel = 2_000_000_000) ?(sync = false)
    ?(obs = Obs.Sink.null) (p : Native.program) : result =
  (* With [sync], the speculation hardware learns the PCs of loads whose
     speculatively-read data was later overwritten (violations) and, on
     subsequent executions, delays those loads until the producing store
     is visible instead of restarting — the synchronization mechanism of
     the paper's citations [10]/[30]. The learned set persists across
     loop activations, like a violation-prediction table. *)
  let m = Machine.start ~fuel p in
  let mem = m.Machine.mem in
  let ms =
    {
      m_committed = 0;
      m_violations = 0;
      m_stalls = 0;
      m_forwards = 0;
      m_loops = 0;
      m_spec_cycles = 0;
      m_sync_stalls = 0;
    }
  in
  let sync_pcs : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let line_of addr = addr / config.Config.line_words in
  let ncpus = config.Config.num_cpus in

  (* ---------------- speculative loop execution ---------------- *)
  let run_speculative (plan : Native.stl_plan) (master : Machine.frame) :
      Machine.frame * int (* resume pc *) =
    ms.m_loops <- ms.m_loops + 1;
    let spec_start = m.Machine.cycles in
    m.Machine.cycles <- spec_start + config.Config.loop_startup;
    let snapshot = Array.copy master.Machine.slots in
    (* master-side reduction accumulators start from the pre-loop values *)
    let red_acc =
      List.map (fun (slot, op) -> (slot, op, ref snapshot.(slot))) plan.Native.reductions
    in
    let nregs = max p.funcs.(plan.Native.plan_func).Native.nregs 1 in
    let restart_delay =
      config.Config.violation_restart + List.length plan.Native.invariants
    in
    let cpus =
      Array.init ncpus (fun _ ->
          let base =
            Machine.new_frame m plan.Native.plan_func (-1) None [] [||]
          in
          let base_only = [ base ] in
          {
            live = false;
            rank = 0;
            pc = 0;
            frames = base_only;
            ready_at = 0;
            status = Running;
            base;
            base_only;
            write_buf = Flat.create Value.zero;
            read_set = Flat.create 0;
            read_lines = Flat.create ();
            write_lines = Flat.create ();
            pending_output = [];
            nested = 0;
            stalled_once = false;
          })
    in
    (* In-flight ranks are always the window [head_rank, next_iter), at
       most [ncpus] wide, so the low bits of a rank name its CPU through
       a power-of-two ring of at least [ncpus] entries. *)
    let ring_mask =
      let n = ref 1 in
      while !n < ncpus do
        n := 2 * !n
      done;
      !n - 1
    in
    let slot_of = Array.make (ring_mask + 1) 0 in
    let next_iter = ref 0 in
    let head_rank = ref 0 in
    let exit_pending = ref None in
    let now = ref m.Machine.cycles in
    let cpu_of rank = cpus.(slot_of.(rank land ring_mask)) in
    (* (re)start [t] at the top of its iteration with empty buffers *)
    let seed (t : cpu) =
      Flat.reset t.write_buf;
      Flat.reset t.read_set;
      Flat.reset t.read_lines;
      Flat.reset t.write_lines;
      t.pending_output <- [];
      t.nested <- 0;
      let slots = t.base.Machine.slots in
      Array.blit snapshot 0 slots 0 (Array.length snapshot);
      List.iter
        (fun (slot, step) ->
          slots.(slot) <- Value.Int (Value.to_int snapshot.(slot) + (t.rank * step)))
        plan.Native.inductors;
      List.iter
        (fun (slot, op) -> slots.(slot) <- Machine.reduction_identity op)
        plan.Native.reductions;
      Array.fill t.base.Machine.regs 0 nregs Value.zero;
      t.frames <- t.base_only;
      t.pc <- plan.Native.body_start;
      t.status <- Running;
      t.stalled_once <- false
    in
    let spawn i rank ~at =
      let t = cpus.(i) in
      t.live <- true;
      t.rank <- rank;
      seed t;
      t.ready_at <- at;
      slot_of.(rank land ring_mask) <- i
    in
    let restart (t : cpu) ~at =
      ms.m_violations <- ms.m_violations + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs (Obs.Event.Tls_violation { rank = t.rank; now = at });
      seed t;
      t.ready_at <- at + restart_delay
    in
    (* violate all threads with rank >= r *)
    let violate_from r ~at =
      (match !exit_pending with
      | Some (er, _) when er >= r -> exit_pending := None
      | _ -> ());
      for i = 0 to ncpus - 1 do
        let t = cpus.(i) in
        if t.live && t.rank >= r then restart t ~at
      done
    in
    let squash_younger r =
      for i = 0 to ncpus - 1 do
        let t = cpus.(i) in
        if t.live && t.rank > r then t.live <- false
      done;
      next_iter := r + 1
    in
    (* does a thread of rank [r] or older (down to the head) buffer a
       store to [addr]? *)
    let rec buffered_from addr r =
      r >= !head_rank
      && (Flat.mem (cpu_of r).write_buf addr || buffered_from addr (r - 1))
    in
    (* forwarding latency of the last [spec_load] *)
    let fwd_delay = ref 0 in
    (* the value of [addr] as seen by rank [r]: the nearest older buffer
       holding it, else committed memory *)
    let rec load_from addr r =
      if r < !head_rank then Machine.Memory.load mem addr
      else
        let buf = (cpu_of r).write_buf in
        let i = Flat.find buf addr in
        if i >= 0 then begin
          ms.m_forwards <- ms.m_forwards + 1;
          fwd_delay := config.Config.store_load_communication;
          Flat.value buf i
        end
        else load_from addr (r - 1)
    in
    (* speculative load for thread t *)
    let spec_load (t : cpu) addr ~pc =
      let i = Flat.find t.write_buf addr in
      if i >= 0 then Flat.value t.write_buf i
      else begin
        let v = load_from addr (t.rank - 1) in
        Flat.replace t.read_set addr pc;
        Flat.replace t.read_lines (line_of addr) ();
        v
      end
    in
    (* learned synchronization: should this load wait for a producer? *)
    let must_wait (t : cpu) addr ~pc =
      sync
      && Hashtbl.mem sync_pcs pc
      && t.rank <> !head_rank
      && (not (Flat.mem t.write_buf addr))
      && not (buffered_from addr (t.rank - 1))
    in
    (* can a Waiting_addr thread resume? *)
    let wait_satisfied (t : cpu) addr =
      t.rank = !head_rank || buffered_from addr (t.rank - 1)
    in
    (* the oldest thread of rank >= r that has read [addr], or -1 *)
    let rec first_reader addr r =
      if r >= !next_iter then -1
      else if Flat.mem (cpu_of r).read_set addr then r
      else first_reader addr (r + 1)
    in
    let spec_store (t : cpu) addr v ~at =
      Flat.replace t.write_buf addr v;
      Flat.replace t.write_lines (line_of addr) ();
      (* violation detection against more-speculative threads *)
      let victim = first_reader addr (t.rank + 1) in
      if victim >= 0 then begin
        (if sync then
           (* learn the violating load so future executions synchronize *)
           for i = 0 to ncpus - 1 do
             let th = cpus.(i) in
             if th.live && th.rank >= victim then begin
               let j = Flat.find th.read_set addr in
               if j >= 0 then Hashtbl.replace sync_pcs (Flat.value th.read_set j) ()
             end
           done);
        violate_from victim ~at
      end
    in
    let check_overflow (t : cpu) =
      if t.rank <> !head_rank then
        if
          Flat.length t.read_lines > config.Config.load_buffer_lines
          || Flat.length t.write_lines > config.Config.store_buffer_lines
        then begin
          t.status <- Stalled;
          if not t.stalled_once then begin
            t.stalled_once <- true;
            ms.m_stalls <- ms.m_stalls + 1;
            if Obs.Sink.enabled obs then
              Obs.Sink.emit obs
                (Obs.Event.Tls_overflow_stall
                   { rank = t.rank; now = m.Machine.cycles })
          end
        end
    in
    (* execute one instruction of thread t at time n; returns unit *)
    let step (t : cpu) ~n =
      let frame = List.hd t.frames in
      let f = p.funcs.(frame.Machine.fidx) in
      let ins = f.Native.code.(t.pc) in
      m.Machine.icount <- m.Machine.icount + 1;
      if m.Machine.icount > fuel then raise (Out_of_fuel fuel);
      fwd_delay := 0;
      let regs = frame.Machine.regs in
      let slots = frame.Machine.slots in
      let next = t.pc + 1 in
      (try
         match ins with
         | Native.Const (r, v) ->
             regs.(r) <- v;
             t.pc <- next
         | Native.Mov (d, s) ->
             regs.(d) <- regs.(s);
             t.pc <- next
         | Native.Unop (d, op, s) ->
             regs.(d) <- Machine.eval_unop op regs.(s);
             t.pc <- next
         | Native.Binop (d, op, a, b) ->
             regs.(d) <- Machine.eval_binop op regs.(a) regs.(b);
             t.pc <- next
         | Native.Ld_local (d, s) ->
             regs.(d) <- slots.(s);
             t.pc <- next
         | Native.St_local (s, r) ->
             slots.(s) <- regs.(r);
             t.pc <- next
         | Native.Ld_heap (d, a) ->
             let addr = Value.to_int regs.(a) in
             if addr < 0 then raise (Machine.Trap "load from a negative address");
             let fpc = f.Native.pc_base + t.pc in
             if must_wait t addr ~pc:fpc then begin
               ms.m_sync_stalls <- ms.m_sync_stalls + 1;
               if Obs.Sink.enabled obs then
                 Obs.Sink.emit obs
                   (Obs.Event.Tls_sync_stall { pc = fpc; now = n });
               t.status <- Waiting_addr addr
               (* pc unchanged: the load re-issues when the wait ends *)
             end
             else begin
               regs.(d) <- spec_load t addr ~pc:fpc;
               check_overflow t;
               t.pc <- next
             end
         | Native.St_heap (a, s) ->
             let addr = Value.to_int regs.(a) in
             if addr < 0 then raise (Machine.Trap "store to a negative address");
             spec_store t addr regs.(s) ~at:n;
             check_overflow t;
             t.pc <- next
         | Native.Alloc (d, nreg, kind) ->
             regs.(d) <-
               Value.Int
                 (Machine.Memory.alloc ~kind mem (Value.to_int regs.(nreg)));
             t.pc <- next
         | Native.Call (ret_reg, callee, args) ->
             t.frames <-
               Machine.new_frame m callee next ret_reg args regs :: t.frames;
             t.pc <- 0
         | Native.Builtin (d, b, args) ->
             regs.(d) <- Machine.eval_builtin b (Machine.arg_values regs args);
             t.pc <- next
         | Native.Print (_, r) ->
             t.pending_output <- regs.(r) :: t.pending_output;
             t.pc <- next
         | Native.Jump tgt -> t.pc <- tgt
         | Native.Branch (r, a, b) ->
             t.pc <- (if Value.truthy regs.(r) then a else b)
         | Native.Return rv -> (
             match t.frames with
             | [ _ ] ->
                 (* returning out of the base frame from inside a
                    speculative thread: only reachable on a misspeculated
                    path (real exits run Tls_exit first) — trap/squash *)
                 t.status <- Trapped "speculative return past loop frame"
             | _ :: (caller :: _ as rest) ->
                 (match frame.Machine.ret_reg with
                 | Some d ->
                     caller.Machine.regs.(d) <-
                       (match rv with Some r -> regs.(r) | None -> Value.zero)
                 | None -> ());
                 t.pc <- frame.Machine.ret_pc;
                 t.frames <- rest
             | [] -> assert false)
         | Native.Sloop _ | Native.Eloop _ | Native.Eoi _ | Native.Read_stats _
         | Native.Lwl _ | Native.Swl _ ->
             t.pc <- next
         | Native.Tls_enter stl ->
             if stl = plan.Native.stl_id then t.nested <- t.nested + 1;
             t.pc <- next
         | Native.Tls_iter_end stl ->
             if stl = plan.Native.stl_id && t.nested = 0 then
               t.status <- Iter_done
             else t.pc <- next
         | Native.Tls_exit stl ->
             if stl = plan.Native.stl_id then
               if t.nested > 0 then begin
                 t.nested <- t.nested - 1;
                 t.pc <- next
               end
               else begin
                 t.status <- Exit_taken next;
                 squash_younger t.rank;
                 exit_pending := Some (t.rank, next)
               end
             else t.pc <- next
       with Machine.Trap msg -> t.status <- Trapped msg);
      t.ready_at <- n + Native.instr_cost ins + !fwd_delay
    in
    (* commit thread t (head): flush writes, merge reductions, output *)
    let commit (t : cpu) =
      Flat.iter (Machine.Memory.store mem) t.write_buf;
      List.iter
        (fun (slot, op, acc) ->
          acc := Machine.reduction_merge op !acc t.base.Machine.slots.(slot))
        red_acc;
      m.Machine.output <- t.pending_output @ m.Machine.output;
      ms.m_committed <- ms.m_committed + 1;
      if Obs.Sink.enabled obs then
        Obs.Sink.emit obs
          (Obs.Event.Tls_commit { rank = t.rank; now = m.Machine.cycles })
    in
    (* main speculation loop *)
    let result = ref None in
    while Option.is_none !result do
      (* 0. refill free CPUs with the next iterations (optimistic spawn) *)
      (match !exit_pending with
      | None ->
          for i = 0 to ncpus - 1 do
            if not cpus.(i).live then begin
              spawn i !next_iter ~at:(!now + config.Config.loop_eoi);
              incr next_iter
            end
          done
      | Some _ -> ());
      (* 0b. wake synchronized threads whose producer store arrived *)
      if sync then
        for i = 0 to ncpus - 1 do
          let t = cpus.(i) in
          if t.live then
            match t.status with
            | Waiting_addr addr when wait_satisfied t addr ->
                t.status <- Running;
                t.ready_at <- Int.max t.ready_at !now
            | _ -> ()
        done;
      (* 1. head-thread state transitions *)
      (if !head_rank < !next_iter then
         let t = cpu_of !head_rank in
         (match t.status with
         | Stalled | Waiting_addr _ ->
             t.status <- Running (* head never stalls *)
         | Trapped msg -> raise (Machine.Trap msg) (* non-speculative trap *)
         | Running | Iter_done | Exit_taken _ -> ());
         match t.status with
         | Iter_done when t.ready_at <= !now ->
             commit t;
             (* free the CPU; the refill step spawns the next iteration *)
             t.live <- false;
             incr head_rank
         | Exit_taken resume when t.ready_at <= !now ->
             commit t;
             (* install merged reduction results *)
             List.iter
               (fun (slot, _, acc) -> t.base.Machine.slots.(slot) <- !acc)
               red_acc;
             result := Some (t.base, resume)
         | _ -> ());
      if Option.is_none !result then begin
        (* 2. execute ready threads *)
        let progressed = ref false in
        for i = 0 to ncpus - 1 do
          let t = cpus.(i) in
          if t.live && t.ready_at <= !now then
            match t.status with
            | Running ->
                step t ~n:!now;
                progressed := true
            | _ -> ()
        done;
        (* 3. advance time *)
        if not !progressed then begin
          let next_time = ref max_int in
          for i = 0 to ncpus - 1 do
            let t = cpus.(i) in
            if t.live then
              match t.status with
              | Running | Iter_done | Exit_taken _ ->
                  if t.ready_at > !now && t.ready_at < !next_time then
                    next_time := t.ready_at
              | Stalled | Waiting_addr _ | Trapped _ -> ()
          done;
          now := (if !next_time = max_int then !now + 1 else !next_time)
        end
      end
    done;
    let base_frame, resume = Option.get !result in
    m.Machine.cycles <- !now + config.Config.loop_shutdown;
    ms.m_spec_cycles <- ms.m_spec_cycles + (m.Machine.cycles - spec_start);
    (* rebuild a frame whose regs/slots master will keep using *)
    let mf =
      {
        master with
        Machine.slots = base_frame.Machine.slots;
        regs = base_frame.Machine.regs;
      }
    in
    (mf, resume)
  in

  (* ---------------- sequential (master) execution ---------------- *)
  Seq_interp.exec m ~tls_enter:(fun stl frame ->
      match List.assoc_opt stl p.stl_plans with
      | Some plan when plan.Native.plan_func = frame.Machine.fidx ->
          Some (run_speculative plan frame)
      | _ -> None);
  {
    cycles = m.Machine.cycles;
    output = List.rev m.Machine.output;
    memory = mem;
    stats =
      {
        threads_committed = ms.m_committed;
        violations = ms.m_violations;
        overflow_stalls = ms.m_stalls;
        forwarded_loads = ms.m_forwards;
        loops_entered = ms.m_loops;
        spec_cycles = ms.m_spec_cycles;
        sync_stalls = ms.m_sync_stalls;
      };
  }

open Ir

type result = {
  cycles : int;
  output : Value.t list;
  memory : Machine.Memory.t;
  instructions : int;
  site_counts : int array;
}

exception Out_of_fuel = Machine.Out_of_fuel

(* The clock and the instruction count live in local refs (registers,
   without flambda) and reach [m] only around [tls_enter] and at exit:
   writing the record fields on every instruction costs ~10% of the
   plain loop. Annotation sites are counted only in the annotation arms
   of a tracing run, so neither the plain loop nor the TLS master loop
   touches [site_counts]. *)
let exec ?(sink = Trace.null_sink) ?(tracing = false) ?(site_counts = [||])
    ~tls_enter (m : Machine.run) =
  let p = m.Machine.prog in
  let count_site f pc =
    let i = f.Native.pc_base + pc in
    site_counts.(i) <- site_counts.(i) + 1
  in
  let mem = m.Machine.mem in
  let fuel = m.Machine.fuel in
  let cycles = ref m.Machine.cycles in
  let icount = ref m.Machine.icount in
  let stack = ref [] in
  let frame = ref (Machine.new_frame m p.main (-1) None [] [||]) in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let f = p.funcs.(!frame.Machine.fidx) in
    if !pc < 0 || !pc >= Array.length f.code then
      raise (Machine.Trap (Printf.sprintf "pc out of range in %s" f.name));
    let ins = f.code.(!pc) in
    incr icount;
    if !icount > fuel then raise (Out_of_fuel fuel);
    let cost =
      if tracing then Native.instr_cost ins
      else
        match ins with
        | Native.Sloop _ | Native.Eloop _ | Native.Eoi _ | Native.Read_stats _
        | Native.Lwl _ | Native.Swl _ ->
            0
        | _ -> Native.instr_cost ins
    in
    cycles := !cycles + cost;
    let regs = !frame.Machine.regs in
    let slots = !frame.Machine.slots in
    let next = !pc + 1 in
    (match ins with
    | Native.Const (r, v) ->
        regs.(r) <- v;
        pc := next
    | Native.Mov (d, s) ->
        regs.(d) <- regs.(s);
        pc := next
    | Native.Unop (d, op, s) ->
        regs.(d) <- Machine.eval_unop op regs.(s);
        pc := next
    | Native.Binop (d, op, a, b) ->
        regs.(d) <- Machine.eval_binop op regs.(a) regs.(b);
        pc := next
    | Native.Ld_local (d, s) ->
        regs.(d) <- slots.(s);
        pc := next
    | Native.St_local (s, r) ->
        slots.(s) <- regs.(r);
        pc := next
    | Native.Ld_heap (d, a) ->
        let addr = Value.to_int regs.(a) in
        regs.(d) <- Machine.Memory.load mem addr;
        if tracing then
          sink.Trace.on_heap_load ~addr ~pc:(f.pc_base + !pc) ~now:!cycles;
        pc := next
    | Native.St_heap (a, s) ->
        let addr = Value.to_int regs.(a) in
        Machine.Memory.store mem addr regs.(s);
        if tracing then sink.Trace.on_heap_store ~addr ~now:!cycles;
        pc := next
    | Native.Alloc (d, n, kind) ->
        regs.(d) <-
          Value.Int (Machine.Memory.alloc ~kind mem (Value.to_int regs.(n)));
        pc := next
    | Native.Call (ret_reg, callee, args) ->
        if tracing then sink.Trace.on_call ~callee ~now:!cycles;
        stack := !frame :: !stack;
        frame := Machine.new_frame m callee next ret_reg args regs;
        pc := 0
    | Native.Builtin (d, b, args) ->
        regs.(d) <- Machine.eval_builtin b (Machine.arg_values regs args);
        pc := next
    | Native.Print (_, r) ->
        m.Machine.output <- regs.(r) :: m.Machine.output;
        pc := next
    | Native.Jump t -> pc := t
    | Native.Branch (r, a, b) ->
        pc := (if Value.truthy regs.(r) then a else b)
    | Native.Return rv -> (
        let v = Option.map (fun r -> regs.(r)) rv in
        if tracing && !stack <> [] then sink.Trace.on_return ~now:!cycles;
        match !stack with
        | [] -> running := false
        | caller :: rest ->
            (match (!frame.Machine.ret_reg, v) with
            | Some d, Some v -> caller.Machine.regs.(d) <- v
            | Some d, None -> caller.Machine.regs.(d) <- Value.zero
            | None, _ -> ());
            pc := !frame.Machine.ret_pc;
            frame := caller;
            stack := rest)
    | Native.Sloop (stl, nlocals) ->
        if tracing then begin
          count_site f !pc;
          sink.Trace.on_sloop ~stl ~nlocals ~frame:!frame.Machine.uid
            ~now:!cycles
        end;
        pc := next
    | Native.Eloop stl ->
        if tracing then begin
          count_site f !pc;
          sink.Trace.on_eloop ~stl ~now:!cycles
        end;
        pc := next
    | Native.Eoi stl ->
        if tracing then begin
          count_site f !pc;
          sink.Trace.on_eoi ~stl ~now:!cycles
        end;
        pc := next
    | Native.Read_stats stl ->
        if tracing then begin
          count_site f !pc;
          sink.Trace.on_read_stats ~stl ~now:!cycles
        end;
        pc := next
    | Native.Lwl s ->
        if tracing then begin
          count_site f !pc;
          sink.Trace.on_local_load ~frame:!frame.Machine.uid ~slot:s
            ~pc:(f.pc_base + !pc) ~now:!cycles
        end;
        pc := next
    | Native.Swl s ->
        if tracing then begin
          count_site f !pc;
          sink.Trace.on_local_store ~frame:!frame.Machine.uid ~slot:s
            ~now:!cycles
        end;
        pc := next
    | Native.Tls_enter stl ->
        m.Machine.cycles <- !cycles;
        m.Machine.icount <- !icount;
        (match tls_enter stl !frame with
        | Some (resumed, resume_pc) ->
            frame := resumed;
            pc := resume_pc
        | None -> pc := next);
        cycles := m.Machine.cycles;
        icount := m.Machine.icount
    | Native.Tls_iter_end _ | Native.Tls_exit _ -> pc := next)
  done;
  m.Machine.cycles <- !cycles;
  m.Machine.icount <- !icount

let run ?sink ?(tracing = false) ?(fuel = 500_000_000) (p : Native.program) :
    result =
  let m = Machine.start ~fuel p in
  let site_counts =
    if tracing then Array.make (Native.code_size p) 0 else [||]
  in
  exec ?sink ~tracing ~site_counts ~tls_enter:(fun _ _ -> None) m;
  {
    cycles = m.Machine.cycles;
    output = List.rev m.Machine.output;
    memory = m.Machine.mem;
    instructions = m.Machine.icount;
    site_counts;
  }

type t = {
  plain_cycles : int;
  plain_output : Ir.Value.t list;
  base : Jrpm.Pipeline.anno_run;
  opt : Jrpm.Pipeline.anno_run;
}

let annotated ?fuel ~optimized ~plain_cycles table tac =
  let prog =
    Compiler.Codegen.generate
      ~mode:(Compiler.Codegen.Annotated { optimized })
      table tac
  in
  let counts = Jrpm.Counting_sink.create_counts () in
  let sink = Jrpm.Counting_sink.wrap counts Hydra.Trace.null_sink in
  let r = Hydra.Seq_interp.run ?fuel ~tracing:true ~sink prog in
  {
    Jrpm.Pipeline.cycles = r.Hydra.Seq_interp.cycles;
    slowdown =
      Float.of_int r.Hydra.Seq_interp.cycles /. Float.of_int (max 1 plain_cycles);
    locals_cycles = Jrpm.Counting_sink.locals_cycles counts;
    read_stats_cycles = Jrpm.Counting_sink.read_stats_cycles counts;
    loop_anno_cycles = Jrpm.Counting_sink.loop_cycles counts;
  }

let profile ?fuel table tac =
  let plain =
    Hydra.Seq_interp.run ?fuel
      (Compiler.Codegen.generate ~mode:Compiler.Codegen.Plain table tac)
  in
  let plain_cycles = plain.Hydra.Seq_interp.cycles in
  {
    plain_cycles;
    plain_output = plain.Hydra.Seq_interp.output;
    base = annotated ?fuel ~optimized:false ~plain_cycles table tac;
    opt = annotated ?fuel ~optimized:true ~plain_cycles table tac;
  }

let of_report (r : Jrpm.Pipeline.report) =
  {
    plain_cycles = r.Jrpm.Pipeline.plain_cycles;
    plain_output = r.Jrpm.Pipeline.plain_output;
    base = r.Jrpm.Pipeline.base;
    opt = r.Jrpm.Pipeline.opt;
  }

let anno_to_string (a : Jrpm.Pipeline.anno_run) =
  Printf.sprintf "cycles=%d slowdown=%h locals=%d read_stats=%d loop=%d"
    a.Jrpm.Pipeline.cycles a.slowdown a.locals_cycles a.read_stats_cycles
    a.loop_anno_cycles

let value_to_string = function
  | Ir.Value.Int n -> string_of_int n
  | Ir.Value.Float f -> Printf.sprintf "%h" f

let to_string t =
  Printf.sprintf "plain=%d output=[%s]\nbase: %s\nopt:  %s" t.plain_cycles
    (String.concat ";" (List.map value_to_string t.plain_output))
    (anno_to_string t.base) (anno_to_string t.opt)

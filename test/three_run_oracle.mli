(** The profiling numbers of a {!Jrpm.Pipeline.report} computed the
    long way: the plain build, the base-annotated build and the
    optimized-annotated build are each interpreted, and each annotated
    run's slowdown split is read off a {!Jrpm.Counting_sink}.

    The pipeline derives all of this from its one optimized annotated
    run ({!Compiler.Codegen.site}); this module is the oracle the
    derivation is checked against, on the registry and on random
    programs. *)

type t = {
  plain_cycles : int;
  plain_output : Ir.Value.t list;
  base : Jrpm.Pipeline.anno_run;
  opt : Jrpm.Pipeline.anno_run;
}

val profile : ?fuel:int -> Compiler.Stl_table.t -> Ir.Tac.program -> t
(** [profile table tac] runs the three builds of [tac].
    @raise Hydra.Seq_interp.Out_of_fuel if any of them runs out. *)

val of_report : Jrpm.Pipeline.report -> t
(** The same fields, as the pipeline reported them. *)

val to_string : t -> string
(** Every field, floats in hexadecimal: equal strings mean equal
    values. *)

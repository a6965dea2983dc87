(** Sequential execution of a native program on one Hydra CPU.

    [run] interprets the program from [main], counting cycles with the
    {!Cost} model. With [~tracing:true] the annotation instructions and
    all heap accesses are reported to [sink] (and the annotations cost
    their Table-4 overhead cycles); with [~tracing:false] annotations are
    free no-ops, modelling plain compiled code. TLS markers are no-ops
    in [run]; {!Tls_sim} runs its master CPU on [exec] and hands each
    [Tls_enter] to the speculative machine. *)

type result = {
  cycles : int;
  output : Ir.Value.t list;      (** print_int / print_float values, in order *)
  memory : Machine.Memory.t;
  instructions : int;            (** dynamic instruction count *)
  site_counts : int array;
      (** executions of each annotation instruction, indexed by
          program-wide PC (zero at every other PC); [[||]] unless
          [~tracing:true] *)
}

exception Out_of_fuel of int

val exec :
  ?sink:Trace.sink ->
  ?tracing:bool ->
  ?site_counts:int array ->
  tls_enter:(int -> Machine.frame -> (Machine.frame * int) option) ->
  Machine.run ->
  unit
(** [exec ~tls_enter m] runs [m]'s program from [main] to its return,
    advancing [m]'s clock, instruction count and output — the one
    sequential machine, shared by profiling, plain runs and the TLS
    master CPU. At a [Tls_enter stl] marker (after charging its cost)
    it calls [tls_enter stl frame] with [m]'s counters up to date:
    [Some (frame', pc)] resumes the current function in [frame'] at
    [pc], having advanced [m] past the region; [None] falls through to
    the next instruction. With [~tracing:true] each executed annotation
    instruction also increments its program-wide PC's cell of
    [site_counts], which must then have {!Native.code_size} cells.
    @raise Out_of_fuel when the count exceeds [m]'s fuel;
    @raise Machine.Trap on runtime errors (division by zero, negative
    address, pc out of range). *)

val run :
  ?sink:Trace.sink ->
  ?tracing:bool ->
  ?fuel:int ->
  Native.program ->
  result
(** @param fuel maximum dynamic instructions (default 500 million);
    @raise Out_of_fuel if exceeded;
    @raise Machine.Trap on runtime errors (division by zero, negative
    address, pc out of range). *)
